"""Every slotted record class through ``Record``'s one store and one trusted path.

The classes are found by walking ``Record``'s subclasses, so a record class
added later is covered too: ``test_every_slotted_record_has_a_sample`` fails
until it has a sample builder below.  For each class, seeded valid values
must come back equal from ``_trusted`` of their own fields and from copies
and pickles at every protocol, and must refuse assignment and deletion.
"""

import copy
import pickle
import random

import pytest

from helpers import rand_morphism, rand_motive
from lefschetz.measures import HodgeDelignePoly, K0Class
from lefschetz.orbit import OrbitMorphism
from lefschetz.sod import FEC_FAILS_LENGTH, FEC_FAILS_ODD, FEC_OK, OPAQUE
from lefschetz.sod import Collection, FecVerdict, SODPiece
from lefschetz.tate import PoincarePoly, Record, SparsePoly, TateMotive
from lefschetz.varieties import GeneralizedMotive, OpaquePart, Projective, VarietyExpr


def _terms(rng, key, low):
    return {key(rng): rng.randint(low, 3) for _ in range(rng.randint(0, 4))}


def _exponent(rng):
    return rng.randint(-3, 6)


def _piece(rng):
    if rng.random() < 0.5:
        return SODPiece("E%d" % rng.randint(1, 9))
    return SODPiece("Cl0(Q_%d)" % rng.randint(1, 9), OPAQUE, rng.choice([None, 0, 1, 4]))


def _part(rng):
    return OpaquePart(rng.choice(["J", "H3", "h^{1,2}"]), rng.random() < 0.5, _exponent(rng))


def _verdict(rng):
    status = rng.choice([FEC_OK, FEC_FAILS_ODD, FEC_FAILS_LENGTH])
    if status == FEC_FAILS_ODD:
        return FecVerdict(status, odd_degrees=tuple(sorted(rng.sample(range(1, 12, 2), 2))))
    return FecVerdict(status, rng.randint(0, 9), rng.choice([None, rng.randint(1, 9)]))


def _sparse(rng):
    # the base class has no ``_check``, so only its trusted path builds a value:
    # nonzero coefficients in the natural order of the keys
    terms = _terms(rng, _exponent, -3)
    return SparsePoly._trusted({k: c for k, c in sorted(terms.items()) if c})


# One builder of seeded valid values per slotted record class.
SAMPLES = {
    SparsePoly: _sparse,
    TateMotive: lambda rng: rand_motive(rng, min_exp=-3),
    PoincarePoly: lambda rng: PoincarePoly(_terms(rng, lambda rng: rng.randint(0, 7), 0)),
    K0Class: lambda rng: K0Class(_terms(rng, _exponent, -3)),
    HodgeDelignePoly: lambda rng: HodgeDelignePoly(
        _terms(rng, lambda rng: (_exponent(rng), _exponent(rng)), -3)
    ),
    SODPiece: _piece,
    Collection: lambda rng: Collection([_piece(rng) for _ in range(rng.randint(1, 4))]),
    FecVerdict: _verdict,
    OrbitMorphism: lambda rng: rand_morphism(rng, rand_motive(rng), rand_motive(rng)),
    OpaquePart: _part,
    GeneralizedMotive: lambda rng: GeneralizedMotive(
        rand_motive(rng), [_part(rng) for _ in range(rng.randint(0, 3))]
    ),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_slotted_record_has_a_sample():
    # a class whose instances have no ``__dict__`` keeps its fields in slots
    slotted = {cls for cls in _subclasses(Record) if cls.__dictoffset__ == 0}
    assert slotted == set(SAMPLES)


def test_a_record_with_a_dict_has_no_trusted_path():
    # expression nodes keep their fields in ``__dict__``, where no slot
    # setter stores them, so ``_trusted`` refuses rather than build a node
    # with no fields
    unslotted = [cls for cls in _subclasses(Record) if cls.__dictoffset__]
    assert VarietyExpr in unslotted and Projective in unslotted
    for cls in unslotted:
        with pytest.raises(TypeError, match="^%s keeps its fields in __dict__" % cls.__name__):
            cls._trusted(3)
    assert repr(Projective(3)) == "Projective(n=3)"


def _values(cls, seed):
    rng = random.Random("%s-%d" % (cls.__name__, seed))
    return [SAMPLES[cls](rng) for _ in range(25)]


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_trusted_rebuilds_each_value(cls):
    for seed in range(2):
        for v in _values(cls, seed):
            assert type(v) is cls
            twin = cls._trusted(*v._values())
            assert type(twin) is cls
            assert twin == v and hash(twin) == hash(v) and repr(twin) == repr(v)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_copies_and_pickles_give_equal_values(cls):
    for v in _values(cls, 2):
        twins = [copy.copy(v), copy.deepcopy(v)]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            twins.append(pickle.loads(pickle.dumps(v, protocol)))
        for twin in twins:
            assert type(twin) is cls
            assert twin == v and hash(twin) == hash(v) and repr(twin) == repr(v)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_are_refused(cls):
    for v in _values(cls, 3):
        before = v._values()
        for name in (*cls._slot_names, "other"):
            with pytest.raises(AttributeError):
                setattr(v, name, 0)
            with pytest.raises(AttributeError):
                delattr(v, name)
        assert v._values() == before

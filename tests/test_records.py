"""The immutable records of ``sod`` and ``varieties`` against the dataclasses
they replaced.

``helpers`` keeps the five frozen dataclasses as they were.  Each seeded call
below is made once with the library's classes and once with the oracle's,
and the two must agree on the value or on the error raised, and then on
``repr``, ``==``, ``hash``, copies, pickles and refused assignment.
"""

import copy
import pickle
import random
from unittest.mock import ANY

import pytest

import helpers
from lefschetz import sod, varieties
from lefschetz.tate import InputError, PoincarePoly, Record, SparsePoly, TateMotive
from lefschetz.varieties import Projective, VarietyExpr

NAMES = ("SODPiece", "Collection", "FecVerdict", "OpaquePart", "GeneralizedMotive")
NEW = {name: getattr(sod, name, None) or getattr(varieties, name) for name in NAMES}
OLD = {name: getattr(helpers, name) for name in NAMES}
# A collection file reaches these two as it was written, so where the
# oracle raises a plain ValueError they raise exactly its InputError.
READ_FROM_INPUT = ("SODPiece", "Collection")


class Call:
    """A constructor call to make with either set of classes."""

    def __init__(self, name, /, *args, **kwargs):
        self.name, self.args, self.kwargs = name, args, kwargs

    def build(self, classes):
        args = [_arg(a, classes) for a in self.args]
        kwargs = {k: _arg(v, classes) for k, v in self.kwargs.items()}
        return classes[self.name](*args, **kwargs)

    def __repr__(self):
        return "Call(%r, *%r, **%r)" % (self.name, self.args, self.kwargs)


def _arg(value, classes):
    if isinstance(value, Call):
        return value.build(classes)
    if isinstance(value, (list, tuple)):
        return type(value)(_arg(v, classes) for v in value)
    return value


def rand_call(rng, name, params):
    """A call of ``name`` with a value drawn for each ``(param, has_default, draw)``.

    Leading values go by position and the rest by keyword, a defaulted
    parameter is sometimes left out, and a few calls get the arity wrong.
    """
    args, kwargs = [], {}
    positional = True
    for param, has_default, draw in params:
        if has_default and rng.random() < 0.3:
            positional = False
            continue
        value = draw(rng)
        if positional and rng.random() < 0.7:
            args.append(value)
        else:
            positional = False
            kwargs[param] = value
    shape = rng.random()
    if shape < 0.03:
        args.append(0)
    elif shape < 0.06:
        kwargs["extra"] = 0
    elif shape < 0.09 and args:
        args.pop(0)
    return Call(name, *args, **kwargs)


def choice(*values):
    return lambda rng: rng.choice(values)


def rand_piece(rng, valid=False):
    if valid:
        return Call("SODPiece", rng.choice(("O", "O(-1)", "Cl0(Q_3)")), rng.choice((sod.EXCEPTIONAL, sod.OPAQUE)))
    return rand_call(rng, "SODPiece", (
        ("label", False, choice("O", "O(-1)", "Cl0(Q_3)", "", 7, None)),
        ("kind", True, choice(sod.EXCEPTIONAL, sod.OPAQUE, "other", None, [])),
        ("nc_rank", True, choice(None, 0, 1, 2, 5, -1, True, 1.0, "2")),
    ))


def rand_pieces(rng):
    shape = rng.random()
    if shape < 0.05:
        return 5  # not iterable
    pieces = [rand_piece(rng, valid=rng.random() < 0.8) for _ in range(rng.randint(0, 3))]
    if shape < 0.15:
        pieces.append(rng.choice(("O", rand_part(rng))))
    return tuple(pieces) if rng.random() < 0.5 else pieces


def rand_part(rng):
    return rand_call(rng, "OpaquePart", (
        ("name", False, choice("M^1(X)", "M^5(X)", "J")),
        ("odd", False, choice(True, False)),
        ("twist", True, choice(0, 1, 2, -1, None)),
    ))


def rand_tate(rng):
    return TateMotive({rng.randint(0, 3): rng.randint(1, 2) for _ in range(rng.randint(0, 2))})


def rand_record(rng):
    name = rng.choice(NAMES)
    if name == "SODPiece":
        return rand_piece(rng)
    if name == "Collection":
        return rand_call(rng, name, (("pieces", False, rand_pieces),))
    if name == "FecVerdict":
        return rand_call(rng, name, (
            ("status", False, choice(sod.FEC_OK, sod.FEC_FAILS_ODD, sod.FEC_FAILS_LENGTH)),
            ("min_length", True, choice(None, 0, 3)),
            ("bound", True, choice(None, 2, 7)),
            ("odd_degrees", True, choice((), (1,), (1, 3), [1])),
        ))
    if name == "OpaquePart":
        return rand_part(rng)
    return rand_call(rng, name, (
        ("tate", False, rand_tate),
        ("opaque", True, lambda rng: [rand_part(rng) for _ in range(rng.randint(0, 2))]),
    ))


def outcome(thunk):
    """``("ok", value)``, or the type and message of the exception raised."""
    try:
        return "ok", thunk()
    except Exception as exc:
        return type(exc), str(exc)


def shown(result):
    """An ``outcome`` with its value as its ``repr``, comparable across classes."""
    kind, value = result
    return kind, repr(value) if kind == "ok" else value


def round_trips(x):
    """What a copy, a deep copy and a pickle round trip of ``x`` give back."""
    out = []
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        out.append((type(twin).__name__, twin is x, twin == x, repr(twin), outcome(lambda: hash(twin))))
    return out


def assert_refuses_change(x, names):
    """Assigning or deleting any field, or another name, raises AttributeError."""
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)


@pytest.mark.parametrize("seed", range(6))
def test_records_match_dataclass_oracle(seed):
    rng = random.Random(seed)
    built = []
    for _ in range(150):
        call = rand_record(rng)
        new, old = outcome(lambda: call.build(NEW)), outcome(lambda: call.build(OLD))
        if new[0] != "ok" or old[0] != "ok":
            if call.name in READ_FROM_INPUT and old[0] is ValueError:
                old = InputError, old[1]
            assert shown(new) == shown(old), call
            continue
        new, old = new[1], old[1]
        assert type(new) is NEW[call.name] and type(old) is OLD[call.name]
        assert repr(new) == repr(old), call
        assert outcome(lambda: hash(new)) == outcome(lambda: hash(old)), call
        assert round_trips(new) == round_trips(old), call
        # the oracle raises FrozenInstanceError, an AttributeError
        for x in (new, old):
            assert_refuses_change(x, new.__slots__)
        built.append((new, old))
    assert len(built) > 50
    # ANY equals everything, when asked: both sides must ask it
    foreign = [None, 0, (), "O", ANY]
    for _ in range(400):
        (a, a_old), (b, b_old) = rng.choice(built), rng.choice(built)
        assert (a == b, a != b, b == a) == (a_old == b_old, a_old != b_old, b_old == a_old)
    for a, a_old in built:
        values = tuple(getattr(a, name) for name in a.__slots__)
        for other in (*foreign, values):
            assert (a == other, a != other) == (a_old == other, a_old != other)


@pytest.mark.parametrize("seed", range(3))
def test_motive_arithmetic_matches_oracle(seed):
    rng = random.Random(100 + seed)
    for _ in range(100):
        calls = [
            rand_call(rng, "GeneralizedMotive", (
                ("tate", False, rand_tate),
                ("opaque", True, lambda rng: [rand_part(rng) for _ in range(rng.randint(0, 2))]),
            ))
            for _ in range(2)
        ]
        new = [outcome(lambda: c.build(NEW)) for c in calls]
        old = [outcome(lambda: c.build(OLD)) for c in calls]
        if any(kind != "ok" for kind, _ in new + old):
            assert list(map(shown, new)) == list(map(shown, old))
            continue
        (a, b), (a_old, b_old) = [x for _, x in new], [x for _, x in old]
        for op in (lambda x, y: x + y, lambda x, y: x * y):
            assert shown(outcome(lambda: op(a, b))) == shown(outcome(lambda: op(a_old, b_old)))
        assert shown(outcome(a.text)) == shown(outcome(a_old.text))
        assert a.is_tate == a_old.is_tate


def test_one_immutability_idiom():
    for cls in (*NEW.values(), SparsePoly, VarietyExpr):
        assert issubclass(cls, Record)
    for x in (sod.SODPiece("O"), varieties.OpaquePart("J", True), TateMotive({0: 1})):
        assert not hasattr(x, "__dict__")
    for x in (TateMotive({0: 1}), PoincarePoly({1: 2}), Projective(2)):
        with pytest.raises(AttributeError):
            x._terms = {}
        with pytest.raises(AttributeError):
            del x._terms


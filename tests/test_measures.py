"""The two measures out of the Lefschetz subring and their compatibility."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.measures import (
    LV,
    HodgeDelignePoly,
    K0Class,
    VirtualClassError,
    chi_gs,
    chi_hd,
    hodge_numbers,
    hodge_tate,
    k0_class,
)
from lefschetz.tate import NonEffectiveError, PoincarePoly, TateMotive, poincare
from lefschetz.varieties import (
    Fano3fold,
    Grassmannian,
    OpaqueMotiveError,
    Product,
    Projective,
    Quadric,
    motive_of,
)

classes = st.dictionaries(st.integers(-3, 5), st.integers(-4, 4), max_size=4).map(
    K0Class
)
effective_classes = st.dictionaries(
    st.integers(-3, 5), st.integers(0, 4), max_size=4
).map(K0Class)


class TestK0Class:
    def test_normalization(self):
        assert K0Class({1: 0, 0: 2}) == K0Class({0: 2})
        assert K0Class([(1, 1), (1, 1)]) == K0Class({1: 2})
        # items that cancel leave no zero entry behind
        assert K0Class([(1, 1), (1, -1)]).terms == {}
        assert HodgeDelignePoly([((0, 1), 2), ((0, 1), -2)]) == HodgeDelignePoly()

    @pytest.mark.parametrize("terms", [{True: 1}, {0: False}], ids=repr)
    def test_bool_rejected(self, terms):
        with pytest.raises(TypeError, match="must be integers"):
            K0Class(terms)

    def test_virtual_classes_allowed(self):
        c = K0Class({0: 1}) - LV
        assert c.terms == {0: 1, 1: -1}
        assert not c.is_effective

    def test_arithmetic(self):
        assert (LV + LV).terms == {1: 2}
        assert (LV * LV).terms == {2: 1}
        assert (K0Class({0: 1, 1: 1}) * K0Class({0: 1, 1: 1})).terms == {
            0: 1,
            1: 2,
            2: 1,
        }

    def test_text(self):
        assert K0Class().text() == "0"
        assert K0Class({0: 1, 1: 2, 2: 1}).text() == "1 + 2*Lv + Lv^2"
        assert (K0Class({0: 1}) - LV).text() == "1 + -Lv"
        assert K0Class({0: -1, 2: -3}).text() == "-1 + -3*Lv^2"

    def test_repr_and_hash(self):
        c = K0Class({3: -1, -1: 2})
        assert repr(c) == "K0Class({-1: 2, 3: -1})"
        d = K0Class([(3, -2), (-1, 2), (3, 1)])
        assert c == d and hash(c) == hash(d)

    def test_unequal_to_other_rings(self):
        values = [TateMotive({0: 1}), K0Class({0: 1}), PoincarePoly({0: 1})]
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                assert a != b and b != a

    def test_json_round_trip(self):
        c = K0Class({-1: 2, 3: -1})
        assert K0Class.from_json(c.to_json()) == c

    def test_immutable(self):
        with pytest.raises(AttributeError):
            LV.terms = {}


class TestK0OfVarieties:
    def test_from_expression(self):
        assert k0_class(Projective(2)) == K0Class({0: 1, 1: 1, 2: 1})
        assert k0_class(Quadric(2)) == K0Class({0: 1, 1: 2, 2: 1})

    def test_from_motive(self):
        assert k0_class(TateMotive({0: 1, 2: 1})) == K0Class({0: 1, 2: 1})

    def test_opaque_rejected(self):
        with pytest.raises(OpaqueMotiveError):
            k0_class(Fano3fold(1, False))

    def test_type_checked(self):
        with pytest.raises(TypeError):
            k0_class("P(2)")


class TestChiGs:
    def test_termwise(self):
        assert chi_gs(K0Class({0: 1, 1: 2})) == TateMotive({0: 1, 1: 2})

    def test_virtual_rejected(self):
        with pytest.raises(VirtualClassError):
            chi_gs(K0Class({0: 1}) - LV)

    @given(effective_classes, effective_classes)
    def test_ring_map_on_effective_classes(self, a, b):
        assert chi_gs(a + b) == chi_gs(a) + chi_gs(b)
        assert chi_gs(a * b) == chi_gs(a) * chi_gs(b)

    @given(effective_classes)
    def test_inverts_k0_class(self, c):
        assert k0_class(chi_gs(c)) == c


class TestChiHd:
    def test_lefschetz_goes_to_uv(self):
        assert chi_hd(LV) == HodgeDelignePoly({(1, 1): 1})
        assert chi_hd(K0Class({0: 1, 1: 1})).text() == "1 + u*v"

    def test_virtual_classes_pass_through(self):
        p = chi_hd(K0Class({0: 1}) - LV)
        assert p.terms == {(0, 0): 1, (1, 1): -1}
        assert hodge_tate(p)

    @given(classes, classes)
    def test_ring_map_on_all_classes(self, a, b):
        assert chi_hd(a + b) == chi_hd(a) + chi_hd(b)
        assert chi_hd(a * b) == chi_hd(a) * chi_hd(b)

    @given(classes)
    def test_image_is_hodge_tate(self, c):
        assert hodge_tate(chi_hd(c))

    def test_diagonal_square_with_motives(self):
        exprs = [Projective(3), Quadric(4), Grassmannian(2, 4), Product(Projective(1), Quadric(3))]
        for e in exprs:
            diagonal = HodgeDelignePoly(
                {(l, l): c for l, c in motive_of(e).tate.terms.items()}
            )
            assert chi_hd(k0_class(e)) == diagonal


class TestHodgeTate:
    def test_off_diagonal_detected(self):
        assert not hodge_tate(HodgeDelignePoly({(1, 0): 1}))
        assert hodge_tate(HodgeDelignePoly({(2, 2): 5, (0, 0): 1}))
        assert hodge_tate(HodgeDelignePoly())


class TestHodgeDelignePoly:
    def test_text_ordered_by_total_degree(self):
        p = HodgeDelignePoly({(2, 2): 1, (0, 0): 1, (1, 1): 3})
        assert p.text() == "1 + 3*u*v + u^2*v^2"
        assert HodgeDelignePoly({(1, 0): 1, (0, 1): 1}).text() == "u + v"
        assert HodgeDelignePoly({(2, 0): -1}).text() == "-u^2"
        q = HodgeDelignePoly({(0, 2): 1, (1, 1): -2, (2, 0): 1})
        assert q.text() == "u^2 + -2*u*v + v^2"

    def test_repr_and_hash(self):
        p = HodgeDelignePoly({(0, 2): 1, (1, 1): -2, (2, 0): 1})
        assert repr(p) == "HodgeDelignePoly({(2, 0): 1, (1, 1): -2, (0, 2): 1})"
        q = HodgeDelignePoly([((1, 1), -1), ((2, 0), 1), ((0, 2), 1), ((1, 1), -1)])
        assert p == q and hash(p) == hash(q)

    def test_immutable(self):
        p = HodgeDelignePoly({(1, 1): 1})
        with pytest.raises(AttributeError):
            p.terms = {}
        p.terms[(0, 0)] = 1
        assert p == HodgeDelignePoly({(1, 1): 1})

    def test_json_round_trip(self):
        p = HodgeDelignePoly({(1, 2): -3, (0, 0): 1})
        assert HodgeDelignePoly.from_json(p.to_json()) == p

    @pytest.mark.parametrize(
        "terms", [{(True, 0): 1}, {(0, False): 1}, {(1, 1): True}], ids=repr
    )
    def test_bool_rejected(self, terms):
        with pytest.raises(TypeError, match="must be integers"):
            HodgeDelignePoly(terms)


class TestHodgeNumbers:
    def test_diagonal_table(self):
        assert hodge_numbers(TateMotive({0: 1, 1: 2})) == {(0, 0): 1, (1, 1): 2}

    def test_needs_effective(self):
        with pytest.raises(NonEffectiveError):
            hodge_numbers(TateMotive({-1: 1}))


class TestCopyAndPickle:
    @pytest.mark.parametrize(
        "value",
        [
            TateMotive({0: 1, 2: 3}),
            PoincarePoly({0: 1, 3: 2}),
            K0Class({-1: 2, 1: -1}),
            HodgeDelignePoly({(1, 1): -3, (0, 0): 1}),
            motive_of(Fano3fold(1, False)),
        ],
        ids=lambda v: type(v).__name__,
    )
    def test_copy_deepcopy_and_pickle(self, value):
        for twin in (
            copy.copy(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)


def assert_same(got, want):
    """Equal value, type, term order, ``repr`` and hash."""
    assert type(got) is type(want)
    assert list(got.terms.items()) == list(want.terms.items())
    assert repr(got) == repr(want)
    assert got == want and hash(got) == hash(want)


# keys in any order, and zero multiplicities, go through the constructor
effective_motives = st.dictionaries(
    st.integers(0, 30), st.integers(0, 5), max_size=8
).map(TateMotive)


class TestTrustedConversions:
    """The conversions skip the item checks, and build what the checks build."""

    @settings(derandomize=True)
    @given(effective_motives)
    def test_equal_to_validating_constructors(self, m):
        assert_same(poincare(m), PoincarePoly({2 * l: c for l, c in m.terms.items()}))
        c = k0_class(m)
        assert_same(c, K0Class(m.terms))
        assert_same(chi_gs(c), TateMotive(c.terms))
        assert_same(chi_gs(c), m)
        assert_same(chi_hd(c), HodgeDelignePoly({(e, e): k for e, k in c.terms.items()}))

    @settings(derandomize=True)
    @given(classes)
    def test_chi_hd_of_any_class(self, c):
        assert_same(chi_hd(c), HodgeDelignePoly({(e, e): k for e, k in c.terms.items()}))

    @settings(derandomize=True)
    @given(effective_motives, st.integers(-5, 30), st.integers(1, 3))
    def test_checks_still_fire(self, m, l, k):
        if l < 0:
            with pytest.raises(NonEffectiveError):
                poincare(m + TateMotive({l: k}))
        virtual = k0_class(m) - K0Class({l: m.multiplicity(l) + k})
        with pytest.raises(VirtualClassError) as info:
            chi_gs(virtual)
        assert str(info.value) == "virtual class: negative coefficient at exponents [%d]" % l

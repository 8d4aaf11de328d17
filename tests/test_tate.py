"""Ring arithmetic of Tate motives and their Poincare polynomials."""

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import pairwise_tensor
from lefschetz.tate import (
    INT_TOO_LONG,
    InputError,
    NonEffectiveError,
    PoincarePoly,
    SparsePoly,
    TateMotive,
    direct_sum,
    integer,
    lefschetz,
    poincare,
    tensor,
)
from lefschetz.exprlang import parse_expr
from lefschetz.measures import K0Class, chi_gs, k0_class
from lefschetz.varieties import motive_of

motives = st.dictionaries(st.integers(-4, 6), st.integers(1, 3), max_size=4).map(
    TateMotive
)
effective_motives = st.dictionaries(
    st.integers(0, 6), st.integers(1, 3), max_size=4
).map(TateMotive)


class TestConstruction:
    def test_normalization_drops_zeros_and_merges(self):
        assert TateMotive({2: 0, 1: 1}) == TateMotive({1: 1})
        assert TateMotive([(1, 1), (1, 2), (0, 1)]) == TateMotive({0: 1, 1: 3})

    @given(st.lists(st.tuples(st.integers(-4, 6), st.integers(0, 3)), max_size=6))
    def test_terms_in_ascending_order(self, pairs):
        merged = {}
        for l, c in pairs:
            merged[l] = merged.get(l, 0) + c
        want = sorted((l, c) for l, c in merged.items() if c)
        assert list(TateMotive(pairs).terms.items()) == want
        assert list(TateMotive(dict(reversed(want))).terms.items()) == want

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            TateMotive({0: -1})
        # each item is checked before equal exponents are merged
        with pytest.raises(ValueError):
            TateMotive([(0, -1), (0, 2)])

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            TateMotive({0.5: 1})
        with pytest.raises(TypeError):
            TateMotive({0: "1"})

    @pytest.mark.parametrize(
        "terms", [{True: 1}, {0: True}, {False: 1}, [(1, False)]], ids=repr
    )
    def test_bool_rejected(self, terms):
        with pytest.raises(TypeError, match="must be integers"):
            TateMotive(terms)

    def test_immutable(self):
        m = TateMotive({0: 1})
        with pytest.raises(AttributeError):
            m.terms = {}
        m.terms[5] = 1
        assert m.multiplicity(5) == 0 and m == TateMotive({0: 1})

    def test_repr(self):
        assert repr(TateMotive({2: 3, 0: 1})) == "TateMotive({0: 1, 2: 3})"
        assert repr(TateMotive()) == "TateMotive({})"

    def test_equal_values_hash_equal(self):
        a = TateMotive({3: 1, -1: 2, 0: 1})
        b = TateMotive([(0, 1), (3, 1), (-1, 1), (-1, 1)])
        assert a == b and hash(a) == hash(b)

    def test_accessors(self):
        m = TateMotive({0: 1, 2: 3})
        assert m.terms == {0: 1, 2: 3}
        assert m.rank == 4
        assert m.multiplicity(2) == 3
        assert m.multiplicity(5) == 0
        assert m.exponent_multiset() == (0, 2, 2, 2)
        assert m.is_effective and not m.is_zero
        assert TateMotive().is_zero and TateMotive().rank == 0
        assert not TateMotive({-1: 1}).is_effective

    def test_text(self):
        assert TateMotive().text() == "0"
        assert TateMotive({0: 1}).text() == "1"
        assert TateMotive({0: 1, 1: 1}).text() == "1 + L"
        assert TateMotive({2: 3}).text() == "3*L^2"
        assert TateMotive({-1: 1, 0: 2}).text() == "L^-1 + 2"

    def test_json_round_trip(self):
        # the keys that ``to_json`` writes read back through ``integer``
        m = TateMotive({-2: 1, 0: 2, 3: 1})
        assert m.to_json() == {"terms": {"-2": 1, "0": 2, "3": 1}}
        assert TateMotive({integer(k): c for k, c in m.to_json()["terms"].items()}) == m

    @pytest.mark.parametrize(
        "key",
        ["\u0663", "1_0", " 2 ", "+2", "2.0", "", "-", "--1", "9" * 101, 3],
        ids=repr,
    )
    def test_json_keys_only_as_to_json_writes_them(self, key):
        # int() alone takes other scripts' digits, underscores and spaces
        message = INT_TOO_LONG if key == "9" * 101 else "invalid integer %r" % (key,)
        with pytest.raises(InputError, match="^%s$" % re.escape(message)):
            integer(key)

    def test_json_keys_accepted(self):
        big = "9" * 100
        terms = {"-3": 1, "0": 2, "07": 1, big: 1}
        assert TateMotive({integer(k): c for k, c in terms.items()}) == TateMotive({-3: 1, 0: 2, 7: 1, int(big): 1})


class TestRingAxioms:
    @given(motives, motives)
    def test_sum_commutes(self, a, b):
        assert direct_sum(a, b) == direct_sum(b, a)
        assert a + b == direct_sum(a, b)

    @given(motives, motives, motives)
    def test_sum_associates(self, a, b, c):
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))

    @given(motives)
    def test_zero_neutral(self, a):
        assert direct_sum(a, TateMotive()) == a

    @given(motives, motives)
    def test_rank_additive(self, a, b):
        assert direct_sum(a, b).rank == a.rank + b.rank

    @given(motives, motives)
    def test_tensor_commutes(self, a, b):
        assert tensor(a, b) == tensor(b, a)
        assert a * b == tensor(a, b)

    @given(motives, motives, motives)
    def test_tensor_associates(self, a, b, c):
        assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))

    @given(motives)
    def test_unit_neutral(self, a):
        assert tensor(a, TateMotive({0: 1})) == a

    @given(motives, motives, motives)
    def test_tensor_distributes(self, a, b, c):
        assert tensor(a, direct_sum(b, c)) == direct_sum(tensor(a, b), tensor(a, c))

    @given(motives, motives)
    def test_rank_multiplicative(self, a, b):
        assert tensor(a, b).rank == a.rank * b.rank


class TestTwist:
    def test_lefschetz_powers(self):
        assert lefschetz() == TateMotive({1: 1})
        assert lefschetz(0) == TateMotive({0: 1})
        assert lefschetz(-2) == TateMotive({-2: 1})

    def test_twisted_is_the_product_with_a_power(self):
        rng = random.Random(24)
        for _ in range(300):
            a = TateMotive({rng.randint(-6, 9): rng.randint(1, 300) for _ in range(rng.randint(0, 6))})
            r = rng.randint(-8, 8)
            got, want = a.twisted(r), pairwise_tensor(a, lefschetz(r))
            assert list(got.terms.items()) == list(want.terms.items())
            assert got == want and hash(got) == hash(want)

    @pytest.mark.parametrize("r", [1.0, True, "1", None], ids=repr)
    def test_twist_must_be_an_integer(self, r):
        with pytest.raises(TypeError):
            TateMotive({0: 1, 2: 1}).twisted(r)
        with pytest.raises(TypeError):
            TateMotive().twisted(r)


def _packs(a, b):
    """Whether ``a * b`` takes the packed path: two terms or more each, spans within the pairs."""
    ta, tb = a.terms, b.terms
    if len(ta) < 2 or len(tb) < 2:
        return False
    spans = max(ta) - min(ta) + 1 + max(tb) - min(tb) + 1
    return spans <= len(ta) * len(tb)


def _dense(rng, low, high, lo=0):
    """A motive on lo .. lo + span - 1 with multiplicities in [low, high], some gaps."""
    span = rng.randint(2, 12)
    kept = [i for i in range(span) if i in (0, span - 1) or rng.random() < 0.8]
    return TateMotive({lo + i: rng.randint(low, high) for i in kept})


class TestPackedProduct:
    """``TateMotive.__mul__`` against ``pairwise_tensor``, the pairwise product it replaced.

    Each factor pair is multiplied both ways round; ``SparsePoly.__mul__``
    is counted, so a pair goes to the pairwise loop exactly when the
    density rule says so.  ``_check`` returns how many pairs packed.
    """

    @staticmethod
    def _check(pairs, monkeypatch):
        pairwise = []
        loop = SparsePoly.__mul__

        def counted(a, b):
            pairwise.append((a, b))
            return loop(a, b)

        monkeypatch.setattr(SparsePoly, "__mul__", counted)
        packed = 0
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                del pairwise[:]
                got, want = x * y, pairwise_tensor(x, y)
                assert type(got) is TateMotive
                assert list(got.terms.items()) == list(want.terms.items())
                assert all(type(c) is int for c in got.terms.values())
                assert got == want and hash(got) == hash(want)
                assert pairwise == ([] if _packs(x, y) else [(x, y)])
            packed += _packs(a, b)
        return packed

    def test_zero_and_monomials_times_dense(self, monkeypatch):
        rng = random.Random(2401)
        dense = [motive_of(parse_expr(t)).tate for t in ("P(4)", "Q(6)", "Gr(3,7)", "toric[1,6,9,4]")]
        dense += [_dense(rng, 1, 2 ** 70, rng.randint(-5, 5)) for _ in range(20)]
        small = [TateMotive(), lefschetz(0), lefschetz(-3), TateMotive({7: 2 ** 80}), TateMotive({-2: 300})]
        assert self._check([(s, d) for s in small for d in dense], monkeypatch) == 0

    def test_catalog_motives_times_each_other(self, monkeypatch):
        texts = ("point", "P(1)", "P(5)", "P(40)", "Q(3)", "Q(8)", "Gr(2,4)", "Gr(3,7)",
                 "Gr(5,10)", "Gr(10,20)", "toric[1,4,4]", "toric[1,6,9,4]", "M0(5)", "fano(3; true)")
        motives = [motive_of(parse_expr(t)).tate for t in texts]
        pairs = [(a, b) for i, a in enumerate(motives) for b in motives[i:]]
        assert self._check(pairs, monkeypatch) > len(pairs) // 2

    def test_negative_exponents(self, monkeypatch):
        rng = random.Random(2402)
        pairs = [
            (_dense(rng, 1, 5, rng.randint(-40, 0)), _dense(rng, 1, 5, rng.randint(-40, 40)))
            for _ in range(200)
        ]
        gr, q = motive_of(parse_expr("Gr(3,6)")).tate, motive_of(parse_expr("Q(4)")).tate
        pairs.append((gr.twisted(-9), q.twisted(-2)))
        assert self._check(pairs, monkeypatch) > 150

    @pytest.mark.parametrize(
        "top", [2 ** 8, 2 ** 16, 2 ** 32, 2 ** 64, 2 ** 200], ids=lambda t: "2^%d" % (t.bit_length() - 1)
    )
    def test_large_multiplicities(self, top, monkeypatch):
        rng = random.Random(top)
        pairs = [
            (_dense(rng, top // 2, 2 * top), _dense(rng, 1, 2 * top, rng.randint(-3, 3)))
            for _ in range(60)
        ]
        pairs += [(_dense(rng, 1, top), _dense(rng, 1, 3)) for _ in range(60)]
        # a factor of two terms far apart can miss the density rule
        assert self._check(pairs, monkeypatch) > 100

    def test_digit_widths_at_their_edges(self, monkeypatch):
        # the middle coefficient of (c + cL + cL^2)(cL^-1 + c + cL) is 3 c^2,
        # the bound itself, so each width is filled to its last bit
        pairs = []
        for k in range(1, 140):
            for c in (2 ** k - 1, 2 ** k, 2 ** k + 1):
                pairs.append((TateMotive({0: c, 1: c, 2: c}), TateMotive({-1: c, 0: c, 1: c})))
        assert self._check(pairs, monkeypatch) == len(pairs)

    def test_sparse_supports(self, monkeypatch):
        rng = random.Random(2403)
        pairs = []
        for _ in range(200):
            width = rng.choice((3, 10, 100, 10 ** 6, 10 ** 15))
            terms = lambda: {rng.randint(-width, width): rng.randint(1, 9) for _ in range(rng.randint(2, 5))}
            pairs.append((TateMotive(terms()), TateMotive(terms())))
        pairs.append((TateMotive({0: 1, 10 ** 15: 1}), motive_of(parse_expr("Gr(4,8)")).tate))
        packed = self._check(pairs, monkeypatch)
        assert 0 < packed < len(pairs) // 2

    def test_a_gap_of_10_to_the_15_is_no_huge_int(self):
        # packed, the first factor alone would be about 10^15 bytes
        a, b = TateMotive({0: 1, 10 ** 15: 1}), TateMotive({0: 1, 1: 1})
        want = TateMotive({0: 1, 1: 1, 10 ** 15: 1, 10 ** 15 + 1: 1})
        assert a * b == want and b * a == want
        assert len((a * b).terms) == 4


class TestPoincare:
    def test_literal(self):
        p = poincare(TateMotive({0: 1, 1: 2, 3: 1}))
        assert p.coefficients == {0: 1, 2: 2, 6: 1}
        assert p.text() == "1 + 2*t^2 + t^6"

    def test_needs_effective(self):
        with pytest.raises(NonEffectiveError):
            poincare(TateMotive({-1: 1}))

    @given(effective_motives)
    def test_even_degrees_only(self, m):
        p = poincare(m)
        assert all(n % 2 == 0 for n in p.coefficients)
        assert all(p.coefficient(2 * l) == c for l, c in m.terms.items())
        assert max(p.coefficients.values(), default=0) <= m.rank

    @given(effective_motives, effective_motives)
    def test_ring_map(self, a, b):
        assert poincare(direct_sum(a, b)) == poincare(a) + poincare(b)
        assert poincare(tensor(a, b)) == poincare(a) * poincare(b)


class TestPoincarePoly:
    def test_validation(self):
        with pytest.raises(ValueError):
            PoincarePoly({-1: 1})
        with pytest.raises(ValueError):
            PoincarePoly({1: -1})
        with pytest.raises(ValueError):
            PoincarePoly([(1, -1), (1, 1)])
        with pytest.raises(TypeError):
            PoincarePoly({1: 1.5})

    @pytest.mark.parametrize("terms", [{True: 1}, {0: True}], ids=repr)
    def test_bool_rejected(self, terms):
        with pytest.raises(TypeError, match="must be integers"):
            PoincarePoly(terms)

    def test_text_and_zero(self):
        assert PoincarePoly().text() == "0"
        assert PoincarePoly({0: 1, 1: 1, 4: 2}).text() == "1 + t + 2*t^4"

    def test_odd_degrees_representable(self):
        p = PoincarePoly({1: 2, 3: 1})
        assert p.coefficient(1) == 2 and p.coefficient(3) == 1

    def test_immutable(self):
        p = PoincarePoly({0: 1})
        with pytest.raises(AttributeError):
            p.coefficients = {}
        p.coefficients[2] = 1
        assert p.coefficient(2) == 0

    def test_repr_and_hash(self):
        p = PoincarePoly({4: 2, 0: 1})
        assert repr(p) == "PoincarePoly({0: 1, 4: 2})"
        q = PoincarePoly([(0, 1), (4, 1), (4, 1)])
        assert p == q and hash(p) == hash(q)


class TestEffective:
    """``is_effective`` reads the first exponent; a scan of all of them is the oracle."""

    def test_against_the_scan(self):
        rng = random.Random(31)
        seen = [TateMotive(), TateMotive({0: 1}), lefschetz(-1), TateMotive({-3: 1, 0: 2}), TateMotive({2: 1, -1: 1})]
        for _ in range(300):
            a = TateMotive({rng.randint(-4, 6): rng.randint(1, 3) for _ in range(rng.randint(0, 4))})
            b = rng.choice(seen)
            seen += [
                a,
                tensor(a, lefschetz(-rng.randint(-5, 5))),
                a + b,
                b + a,
                a * b,
                tensor(a, lefschetz(rng.randint(-3, 3))),
            ]
        # trusted results: catalog formulas and the measure back from K0
        for text in ("point", "P(4)", "Q(3)", "Q(6)", "Gr(2,5)", "M0(5)", "toric[1,4,4]"):
            m = motive_of(parse_expr(text)).tate
            seen += [m, chi_gs(k0_class(m)), tensor(m, lefschetz(-2)), tensor(m, lefschetz(1))]
        for _ in range(100):
            c = K0Class({rng.randint(-4, 4): rng.randint(1, 3) for _ in range(rng.randint(0, 3))})
            seen += [chi_gs(c), chi_gs(c * c), TateMotive._trusted(c.terms)]
        results = [m.is_effective for m in seen]
        assert results == [all(l >= 0 for l in m.terms) for m in seen]
        assert True in results and False in results

"""Graded morphism calculus and the lift back out of the orbit category."""

import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul

import pytest

from helpers import (
    canonical_morphism,
    conjugated_unit_iso,
    fraction_conjugated_unit_iso,
    fraction_matmul,
    graded_compose,
    grassmannian_oracle,
    invert,
    matmul,
    rand_entry,
    rand_morphism,
    rand_motive,
    row_product_is_inverse,
    scan_and_compose_lift,
    trace_multiset,
    unimodular_conjugated_unit_iso,
)
from lefschetz.orbit import (
    CompositionError,
    LiftError,
    NotAnIsomorphismError,
    OrbitMorphism,
    RankMismatchError,
    SupportViolationError,
    _is_inverse,
    block_unit_iso,
    canonical_unit_iso,
    compose,
    decompose_via_orbit,
    identity_morphism,
)
from lefschetz.tate import TateMotive, lefschetz


def _rand_twist_preserving(rng, source, target):
    matrix = [
        [rand_entry(rng) if te == se else 0 for se in source.exponent_multiset()]
        for te in target.exponent_multiset()
    ]
    return OrbitMorphism(source, target, {0: matrix})


class TestConstruction:
    def test_delta_pattern_enforced(self):
        one_plus_l = TateMotive({0: 1, 1: 1})
        # entry from L^1 into L^0 at grade 0 is forbidden
        with pytest.raises(ValueError, match="delta pattern"):
            OrbitMorphism(one_plus_l, one_plus_l, {0: [[0, 1], [0, 0]]})
        # the same entry at grade -1 is fine
        f = OrbitMorphism(one_plus_l, one_plus_l, {-1: [[0, 1], [0, 0]]})
        assert f.support == (-1,)

    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="must be 1 x 2"):
            OrbitMorphism(TateMotive({0: 2}), TateMotive({0: 1}), {0: [[1, 0], [0, 1]]})

    def test_zero_components_dropped(self):
        m = TateMotive({0: 2})
        f = OrbitMorphism(m, m, {0: [[0, 0], [0, 0]], 1: [[0, 0], [0, 0]]})
        assert f.components == {}
        assert f == OrbitMorphism(m, m, {})

    def test_entries_normalized_to_fractions(self):
        m = TateMotive({0: 1})
        f = OrbitMorphism(m, m, {0: [[Fraction(1, 2)]]})
        assert f.components[0][0][0] == Fraction(1, 2)

    @pytest.mark.parametrize("entry", ["1/2", "0", "-3", " 1/2 ", "1e3"], ids=repr)
    def test_string_entries_rejected(self, entry):
        m = TateMotive({0: 1})
        with pytest.raises(TypeError, match="must be exact"):
            OrbitMorphism(m, m, {0: [[entry]]})

    def test_grade_given_twice_rejected(self):
        # only a mapping, which gives each grade once, is a graded form; a
        # list of (grade, matrix) pairs is refused, repeated grade or not
        one, l1 = TateMotive({0: 1}), lefschetz(1)
        with pytest.raises(TypeError, match="components must be a mapping, got list"):
            OrbitMorphism(one, l1, [(1, [[1]]), (1, [[2]])])

    def test_component_accessor_returns_zero_matrix(self):
        m = TateMotive({0: 1, 1: 1})
        f = identity_morphism(m)
        assert f.component(5) == ((Fraction(0),) * 2,) * 2


def _assert_canonical(f):
    """The stored form: one positive denominator, coprime to the entries."""
    assert type(f.den) is int and f.den > 0
    assert all(type(x) is int for x in chain.from_iterable(f.rows))
    assert gcd(f.den, *chain.from_iterable(f.rows)) == 1


def _outcome(lift, *args):
    try:
        return "value", lift(*args)
    except LiftError as exc:
        return type(exc), str(exc)


def _lift_variants(m, f, g, rng):
    """An inverse pair (f, g) for m, then broken copies of it.

    g scaled by 2, one entry of g moved by +-1, and, when m has exponents,
    the column of f and the row of g of its last summand set to zero,
    together and f alone: with a window that ends below the top exponent,
    the first pair passes the support scans and fails the inverse check.
    """
    n = m.rank
    yield f, g
    yield f, canonical_morphism(g.source, m, g.den, [[2 * x for x in row] for row in g.rows])
    if not n:
        return
    rows = [list(row) for row in g.rows]
    rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
    yield f, canonical_morphism(g.source, m, g.den, rows)
    k = n - 1
    f_rows = [[0 if j == k else x for j, x in enumerate(row)] for row in f.rows]
    g_rows = [[0] * n if i == k else list(row) for i, row in enumerate(g.rows)]
    f_zero = canonical_morphism(m, f.target, f.den, f_rows)
    yield f_zero, canonical_morphism(g.source, m, g.den, g_rows)
    yield f_zero, g


class TestOrbitMorphism:
    def test_equal_entries_give_equal_morphisms(self):
        m = TateMotive({0: 1})
        half = OrbitMorphism(m, m, {0: [[Fraction(2, 4)]]})
        assert half == OrbitMorphism(m, m, {0: [[Fraction(1, 2)]]})
        assert (half.den, half.rows) == (2, ((1,),))
        # the same rows over another denominator are another morphism
        assert half != identity_morphism(m)
        assert OrbitMorphism(m, m, {0: [[Fraction(4, 2)]]}) == OrbitMorphism(m, m, {0: [[2]]})

    def test_scalar_multiples_of_identity_compose_to_identity(self):
        m = TateMotive({0: 1, 1: 2, 3: 1})
        n = m.rank
        double = OrbitMorphism(m, m, {0: [[2 * (i == j) for j in range(n)] for i in range(n)]})
        half = OrbitMorphism(
            m, m, {0: [[Fraction(int(i == j), 2) for j in range(n)] for i in range(n)]}
        )
        for f in (compose(double, half), compose(half, double)):
            assert f == identity_morphism(m)
            assert (f.den, f.rows) == (1, identity_morphism(m).rows)

    def test_stored_form_is_canonical(self):
        rng = random.Random(29)
        for _ in range(100):
            x, y, z = (rand_motive(rng) for _ in range(3))
            f = rand_morphism(rng, x, y)
            g = rand_morphism(rng, y, z)
            for h in (f, g, compose(g, f), identity_morphism(x), *block_unit_iso(x)):
                _assert_canonical(h)
        zero = OrbitMorphism(TateMotive({0: 2}), TateMotive({0: 2}), {0: [[Fraction(0, 3), 0], [0, 0]]})
        assert (zero.den, zero.rows) == (1, ((0, 0), (0, 0)))

    @pytest.mark.parametrize(
        "entry", [0.1, 0.0, 1.0, float("nan"), True, False, Decimal("0.5")], ids=repr
    )
    def test_float_and_bool_entries_rejected(self, entry):
        m = TateMotive({0: 1})
        with pytest.raises(TypeError, match="must be exact"):
            OrbitMorphism(m, m, {0: [[entry]]})

    @pytest.mark.parametrize(
        "grade",
        [0.5, 0.0, True, False, Fraction(1, 2), Fraction(0), Decimal("0.5"), "0"],
        ids=repr,
    )
    def test_float_and_bool_grades_rejected(self, grade):
        m = TateMotive({0: 1})
        with pytest.raises(TypeError, match="grades must be exact"):
            OrbitMorphism(m, m, {grade: [[1]]})

    @pytest.mark.parametrize("motive_end", ["source", "target"])
    def test_one_endpoint_not_a_motive(self, motive_end):
        # the other endpoint is a dict of the same terms, not a TateMotive
        m = TateMotive({0: 1})
        ends = (m, {0: 1}) if motive_end == "source" else ({0: 1}, m)
        with pytest.raises(TypeError, match="source and target must be TateMotive"):
            OrbitMorphism(*ends, {0: [[1]]})

    def test_matrix_is_read_only(self):
        f = identity_morphism(TateMotive({0: 2}))
        assert f.matrix == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        with pytest.raises(AttributeError):
            f.matrix = ((Fraction(2),),)

    def test_copy_deepcopy_and_pickle(self):
        rng = random.Random(31)
        x, y = TateMotive({0: 1, 1: 2}), TateMotive({0: 2, 2: 1})
        f = rand_morphism(rng, x, y)
        for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert twin == f
            assert (twin.den, twin.rows) == (f.den, f.rows)
            assert twin.components == f.components

    def test_unpickling_does_not_validate_again(self, monkeypatch):
        f = rand_morphism(random.Random(37), TateMotive({0: 2, 1: 1}), TateMotive({0: 3}))
        data = pickle.dumps(f)

        def refuse(*args, **kwargs):
            raise AssertionError("unpickling ran the validating constructor")

        monkeypatch.setattr(OrbitMorphism, "__init__", refuse)
        assert pickle.loads(data) == f
        assert copy.deepcopy(f) == f

    def test_fields_cannot_be_assigned_or_deleted(self):
        m = TateMotive({0: 1, 2: 1})
        f, g = block_unit_iso(m)
        before = compose(g, f)
        for name in ("source", "target", "den", "rows", "matrix", "other"):
            with pytest.raises(AttributeError):
                setattr(f, name, getattr(g, name, 2))
            with pytest.raises(AttributeError):
                delattr(f, name)
        assert (f.source, f.target, f.den, f.rows) == (m, TateMotive({0: 2}), 1, ((1, 0), (0, 1)))
        assert compose(g, f) == before == identity_morphism(m)

    def test_equal_morphisms_hash_equal(self):
        m = TateMotive({0: 1})
        half = OrbitMorphism(m, m, {0: [[Fraction(1, 2)]]})
        assert hash(OrbitMorphism(m, m, {0: [[Fraction(2, 4)]]})) == hash(half)
        rng = random.Random(41)
        for _ in range(50):
            x, y = rand_motive(rng), rand_motive(rng)
            f = rand_morphism(rng, x, y)
            # the same morphism from its graded form and from its stored rows
            twins = (
                OrbitMorphism(x, y, f.components),
                OrbitMorphism._trusted(x, y, f.den, f.rows),
                compose(identity_morphism(y), f),
            )
            for twin in twins:
                assert twin == f and hash(twin) == hash(f)
            assert len({f, *twins}) == 1


class TestCompose:
    def test_graded_convolution_literal(self):
        one = TateMotive({0: 1})
        f = OrbitMorphism(one, lefschetz(1), {1: [[Fraction(1, 2)]]})
        g = OrbitMorphism(lefschetz(1), lefschetz(3), {2: [[Fraction(1, 3)]]})
        gf = compose(g, f)
        assert gf.components == {3: ((Fraction(1, 6),),)}

    def test_mismatch_rejected(self):
        f = identity_morphism(TateMotive({0: 1}))
        g = identity_morphism(TateMotive({1: 1}))
        with pytest.raises(CompositionError):
            compose(g, f)

    def test_identity_neutral_and_associative(self):
        rng = random.Random(7)
        for _ in range(50):
            x, y, z, w = (rand_motive(rng) for _ in range(4))
            f = rand_morphism(rng, x, y)
            g = rand_morphism(rng, y, z)
            h = rand_morphism(rng, z, w)
            assert compose(f, identity_morphism(x)) == f
            assert compose(identity_morphism(y), f) == f
            assert compose(h, compose(g, f)) == compose(compose(h, g), f)

    def test_matches_graded_convolution(self):
        # oracle: per-grade products summed grade by grade
        rng = random.Random(23)
        for _ in range(200):
            x, y, z = (rand_motive(rng) for _ in range(3))
            f = rand_morphism(rng, x, y)
            g = rand_morphism(rng, y, z)
            assert compose(g, f).components == graded_compose(g, f)
        m = TateMotive({0: 1, 2: 2})
        zero = TateMotive()
        for x, y, z in ((zero, m, m), (m, zero, m), (m, m, zero), (zero, zero, m)):
            f = rand_morphism(rng, x, y)
            g = rand_morphism(rng, y, z)
            gf = compose(g, f)
            assert gf.components == graded_compose(g, f) == {}
            assert gf.matrix == ((Fraction(0),) * x.rank,) * z.rank
            for r in (-2, 0, 2):
                assert gf.component(r) == ((Fraction(0),) * x.rank,) * z.rank

    def test_matches_fraction_oracle(self):
        # oracle: the dense Fraction product of the two matrices, on the
        # seeded triples of test_matches_graded_convolution, then with every
        # combination of rank-0 source, middle and target
        def check(x, y, z):
            f = rand_morphism(rng, x, y)
            g = rand_morphism(rng, y, z)
            gf = compose(g, f)
            assert gf.matrix == fraction_matmul(g.matrix, f.matrix, x.rank)
            _assert_canonical(gf)

        rng = random.Random(23)
        for _ in range(200):
            check(*(rand_motive(rng) for _ in range(3)))
        m = TateMotive({0: 1, 2: 2})
        for x in (TateMotive(), m):
            for y in (TateMotive(), m):
                for z in (TateMotive(), m):
                    check(x, y, z)

    def test_matches_fraction_oracle_on_conjugated_pairs(self):
        # the shape of a lift: the block unit isomorphism conjugated by a
        # random invertible rational matrix A, ranks 1 to 8
        rng = random.Random(37)
        for rank in range(1, 9):
            for _ in range(3):
                m = TateMotive([(rng.randint(0, 6), 1) for _ in range(rank)])
                while True:
                    a = [
                        [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rank)]
                        for _ in range(rank)
                    ]
                    a_inv = invert(a)
                    if a_inv is not None:
                        break
                f, g = block_unit_iso(m)
                units = f.target
                f = OrbitMorphism(m, units, {r: matmul(a, c) for r, c in f.components.items()})
                g = OrbitMorphism(units, m, {s: matmul(c, a_inv) for s, c in g.components.items()})
                gf, fg = compose(g, f), compose(f, g)
                assert gf.matrix == fraction_matmul(g.matrix, f.matrix, rank)
                assert fg.matrix == fraction_matmul(f.matrix, g.matrix, rank)
                assert gf == identity_morphism(m)
                assert fg == identity_morphism(units)
                fgf = compose(f, gf)
                assert fgf.matrix == fraction_matmul(f.matrix, gf.matrix, rank)
                assert fgf == f

    def test_support_contained_in_sumset(self):
        rng = random.Random(11)
        for _ in range(50):
            x, y, z = (rand_motive(rng) for _ in range(3))
            f = rand_morphism(rng, x, y)
            g = rand_morphism(rng, y, z)
            sumset = {r + s for r in f.support for s in g.support}
            assert set(compose(g, f).support) <= sumset


class TestProjection:
    def test_functorial_on_random_twist_preserving_morphisms(self):
        # oracle: composition in the source category is plain matrix product
        rng = random.Random(13)
        for _ in range(50):
            x, y, z = (rand_motive(rng) for _ in range(3))
            f = _rand_twist_preserving(rng, x, y)
            g = _rand_twist_preserving(rng, y, z)
            f0, g0 = f.component(0), g.component(0)
            product = [
                [
                    sum((g0[i][k] * f0[k][j] for k in range(y.rank)), Fraction(0))
                    for j in range(x.rank)
                ]
                for i in range(z.rank)
            ]
            composite = OrbitMorphism(x, z, {0: product})
            assert compose(g, f) == composite


class TestCanonicalUnitIso:
    def test_round_trips(self):
        for l in range(11):
            u, v = canonical_unit_iso(l)
            assert u.support == ((l,) if l else (0,))
            assert compose(v, u) == identity_morphism(TateMotive({0: 1}))
            assert compose(u, v) == identity_morphism(lefschetz(l))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            canonical_unit_iso(-1)
        with pytest.raises(ValueError, match="non-negative integer"):
            canonical_unit_iso(True)


class TestDecompose:
    def test_hand_example(self):
        m = TateMotive({0: 1, 1: 2, 3: 1})
        f, g = block_unit_iso(m)
        assert decompose_via_orbit(m, f, g, 3) == (0, 1, 1, 3)

    def test_zero_motive(self):
        f, g = block_unit_iso(TateMotive())
        assert decompose_via_orbit(TateMotive(), f, g, 4) == ()

    def test_conjugation_invariance(self):
        rng = random.Random(19)
        for _ in range(25):
            m = rand_motive(rng, max_exp=4, max_distinct=3, max_mult=2)
            f, g = conjugated_unit_iso(m, rng)
            assert decompose_via_orbit(m, f, g, 4) == m.exponent_multiset()

    @pytest.mark.parametrize("seed", range(3))
    def test_integer_conjugation_helper_matches_fraction_one(self, seed):
        # the test helper builds its morphisms as integer rows; the Fraction
        # version it replaced must give the same morphisms from the same draws
        shapes = random.Random(seed)
        new, old = random.Random(seed), random.Random(seed)
        motives = [TateMotive(), TateMotive({0: 1, 2: 3})]
        motives += [rand_motive(shapes, max_exp=5, max_distinct=4, max_mult=3) for _ in range(20)]
        for m in motives:
            assert conjugated_unit_iso(m, new) == fraction_conjugated_unit_iso(m, old)
            assert new.getstate() == old.getstate()

    def test_matches_trace_oracle(self):
        # the lift returns the exponent multiset once its checks pass; the
        # paper's trace reading must give the same answer on valid input
        rng = random.Random(19)
        cases = [(TateMotive({0: 1, 1: 2, 3: 1}), 3), (TateMotive(), 4), (lefschetz(2), 2)]
        cases += [(rand_motive(rng, max_exp=4, max_distinct=3, max_mult=2), 4) for _ in range(25)]
        for m, dim in cases:
            for f, g in (block_unit_iso(m), conjugated_unit_iso(m, rng)):
                assert decompose_via_orbit(m, f, g, dim) == trace_multiset(m, f, g)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scan_and_compose_oracle(self, seed):
        # the lift checks the window from m's exponents and the inverse on
        # integer rows; the old scans and canonical composite must agree on
        # the value, or on the exception class and message
        rng = random.Random(seed)
        motives = [TateMotive(), TateMotive({0: 1, 2: 3}), TateMotive({-1: 1, 0: 2}), lefschetz(3)]
        motives += [
            rand_motive(rng, min_exp=rng.choice((-2, 0)), max_exp=6, max_distinct=4, max_mult=2)
            for _ in range(30)
        ]
        seen = set()
        for m in motives:
            low, top = min(m.terms, default=0), max(m.terms, default=0)
            for pair in (block_unit_iso(m), conjugated_unit_iso(m, rng)):
                for f, g in _lift_variants(m, *pair, rng):
                    for dim in {max(d, 0) for d in (top - 1, top, top + 1, rng.randint(0, 6))}:
                        got = _outcome(decompose_via_orbit, m, f, g, dim)
                        assert got == _outcome(scan_and_compose_lift, m, f, g, dim)
                        seen.add((got[0], low < 0 or top > dim))
        # an exponent outside the window fails the scans, or, when its
        # summand carries nothing, the inverse check
        assert seen == {
            ("value", False),
            (NotAnIsomorphismError, False),
            (NotAnIsomorphismError, True),
            (SupportViolationError, True),
        }

    def test_rank_mismatch(self):
        one = TateMotive({0: 1})
        two = TateMotive({0: 2})
        f = OrbitMorphism(one, two, {0: [[1], [0]]})
        g = OrbitMorphism(two, one, {0: [[1, 0]]})
        with pytest.raises(RankMismatchError):
            decompose_via_orbit(one, f, g, 0)

    def test_support_violation(self):
        m = lefschetz(2)
        f, g = block_unit_iso(m)
        with pytest.raises(SupportViolationError):
            decompose_via_orbit(m, f, g, 1)
        assert decompose_via_orbit(m, f, g, 2) == (2,)

    def test_not_mutually_inverse(self):
        m = TateMotive({0: 1, 1: 1})
        f, g = block_unit_iso(m)
        doubled = OrbitMorphism(
            g.source,
            m,
            {s: [[2 * x for x in row] for row in mat] for s, mat in g.components.items()},
        )
        with pytest.raises(NotAnIsomorphismError):
            decompose_via_orbit(m, f, doubled, 1)

    def test_far_side_must_be_units(self):
        m = TateMotive({0: 1, 1: 1})
        i = identity_morphism(m)
        with pytest.raises(ValueError, match="unit objects"):
            decompose_via_orbit(m, i, i, 1)

    def test_wrong_endpoints(self):
        m = TateMotive({0: 1})
        other = TateMotive({0: 2})
        f, g = block_unit_iso(m)
        with pytest.raises(ValueError, match="must start at m"):
            decompose_via_orbit(other, f, g, 0)

    @pytest.mark.parametrize("wrong", ["f-leaves-another", "g-ends-at-another"])
    def test_one_wrong_endpoint(self, wrong):
        # the other motive has the same rank, so f and g still meet at the units
        m = TateMotive({0: 1, 1: 1})
        f, g = block_unit_iso(m)
        f_other, g_other = block_unit_iso(TateMotive({0: 1, 2: 1}))
        pair = (f_other, g) if wrong == "f-leaves-another" else (f, g_other)
        with pytest.raises(ValueError, match="f must start at m and g must end at m"):
            decompose_via_orbit(m, *pair, 2)

    def test_dim_validation(self):
        m = TateMotive({0: 1})
        f, g = block_unit_iso(m)
        with pytest.raises(ValueError):
            decompose_via_orbit(m, f, g, -1)
        with pytest.raises(ValueError, match="non-negative integer"):
            decompose_via_orbit(m, f, g, True)


class TestIsInverse:
    """The packed check of G F = s I against the row-by-row product."""

    @staticmethod
    def _pairs(rng):
        """(m, f, g): inverse pairs for m, dense and sparse, then broken copies."""
        motives = [TateMotive(), lefschetz(3), TateMotive(grassmannian_oracle(3, 7))]
        motives += [rand_motive(rng, max_exp=6, max_distinct=4, max_mult=3) for _ in range(12)]
        for m in motives:
            pairs = [block_unit_iso(m), conjugated_unit_iso(m, rng)]
            pairs.append(unimodular_conjugated_unit_iso(m, rng, 1 << 200, 3))
            for pair in pairs:
                for f, g in _lift_variants(m, *pair, rng):
                    yield m, f, g

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_row_product_oracle(self, seed):
        seen = {True: 0, False: 0}
        big = 0
        for m, f, g in self._pairs(random.Random(seed)):
            got = _is_inverse(g, f)
            assert got == row_product_is_inverse(g, f), (m, f, g)
            seen[got] += 1
            big = max(big, *map(abs, chain.from_iterable(g.rows)), 0)
        assert seen[True] and seen[False]
        # the unimodular conjugations reach entries of 2^200 and more
        assert big.bit_length() > 200

    def test_sparse_rank_252(self):
        m = TateMotive(grassmannian_oracle(5, 10))
        assert m.rank == 252
        rng = random.Random(252)
        outcomes = []
        for f, g in _lift_variants(m, *block_unit_iso(m), rng):
            outcomes.append(_is_inverse(g, f))
            assert outcomes[-1] == row_product_is_inverse(g, f)
        assert outcomes == [True, False, False, False, False]

    def test_rank_zero(self):
        f, g = block_unit_iso(TateMotive())
        assert _is_inverse(g, f) and row_product_is_inverse(g, f)

    @staticmethod
    def _unit_pair(den_g, f_rows, g_rows):
        m = TateMotive({0: 1, 1: 1})
        units = TateMotive({0: 2})
        f = OrbitMorphism._trusted(m, units, 1, f_rows)
        g = OrbitMorphism._trusted(units, m, den_g, g_rows)
        return f, g

    def test_fields_need_the_sign_bit(self):
        # s = 6 and bound = max(2 * 2 * 3, s) = 12, which takes 4 bits, so
        # fields are 5 bits wide.  Row 0 of G F is (-10, 1): in 4-bit fields
        # it would pack to -10 + 16 = 6 = s, the packed value of s e_0.
        f, g = self._unit_pair(6, ((-2, -1), (2, -1)), ((2, -3), (-3, -3)))
        assert [[sum(map(mul, r, c)) for c in zip(*f.rows)] for r in g.rows] == [[-10, 1], [0, 6]]
        assert not row_product_is_inverse(g, f)
        assert not _is_inverse(g, f)

    def test_bound_takes_absolute_values(self):
        # s = 1; the largest entries of G are negative, so only max |G| = 2
        # gives bound = 2 * 3 * 2 = 12.  Row 0 of G F is (-3, 1), which in
        # the 2-bit fields of a bound of 1 would pack to -3 + 4 = 1 = s.
        f, g = self._unit_pair(1, ((3, 1), (0, -1)), ((-1, -2), (0, -1)))
        assert [[sum(map(mul, r, c)) for c in zip(*f.rows)] for r in g.rows] == [[-3, 1], [0, 1]]
        assert not row_product_is_inverse(g, f)
        assert not _is_inverse(g, f)

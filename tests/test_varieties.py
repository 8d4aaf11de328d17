"""Catalog formulas, dimensions, collections, and the generalized motive algebra."""

import copy
import json
import math
import pickle
import random

import pytest

from helpers import (
    fresh_dimension,
    fresh_motive,
    gaussian_binomial_pascal,
    grassmannian_oracle,
)
from lefschetz.exprlang import parse_expr, render_expr
from lefschetz.sod import FEC_FAILS_ODD, FEC_OK
from lefschetz.tate import TateMotive
from lefschetz.varieties import (
    Blowup,
    CollectionUnavailableError,
    DisjointUnion,
    Fano3fold,
    GeneralizedMotive,
    Grassmannian,
    InvalidParameterError,
    ModuliM0,
    OpaqueMotiveError,
    OpaquePart,
    Point,
    Product,
    ProjBundle,
    Projective,
    Quadric,
    Toric,
    VarietyExpr,
    _gaussian_binomial,
    _labels,
    dimension_of,
    exceptional_collection_of,
    expr_from_json,
    expr_to_json,
    fec_verdict,
    motive_of,
)

P2 = Toric((1, 3, 3))
P1XP1 = Toric((1, 4, 4))


class TestValidation:
    def test_parameter_bounds(self):
        with pytest.raises(InvalidParameterError):
            Projective(-1)
        with pytest.raises(InvalidParameterError):
            Quadric(0)
        with pytest.raises(InvalidParameterError):
            Grassmannian(0, 3)
        with pytest.raises(InvalidParameterError):
            Grassmannian(3, 3)
        with pytest.raises(InvalidParameterError):
            Toric((2, 3, 3))
        with pytest.raises(InvalidParameterError):
            Toric(())
        with pytest.raises(InvalidParameterError):
            ModuliM0(6)
        with pytest.raises(InvalidParameterError):
            Fano3fold(-1, True)
        with pytest.raises(InvalidParameterError):
            Fano3fold(1, "yes")
        with pytest.raises(InvalidParameterError):
            ProjBundle(Point(), 0)
        # a bool is not an integer parameter
        for make in (
            lambda: Projective(True),
            lambda: Quadric(True),
            lambda: Grassmannian(True, 3),
            lambda: Toric((True, 2, 1)),
            lambda: Fano3fold(True, True),
            lambda: ProjBundle(Point(), True),
        ):
            with pytest.raises(InvalidParameterError):
                make()

    def test_blowup_codim_must_match_dimension_gap(self):
        with pytest.raises(InvalidParameterError):
            Blowup(Projective(2), Point(), 3)
        with pytest.raises(InvalidParameterError):
            Blowup(Projective(3), Projective(1), 3)
        with pytest.raises(InvalidParameterError):
            Blowup(Projective(2), Projective(1), 1)
        # matching gap is accepted
        Blowup(Projective(3), Projective(1), 2)

    def test_children_must_be_expressions(self):
        with pytest.raises(InvalidParameterError):
            Product(Point(), "P(1)")


class TestDimension:
    def test_catalog(self):
        assert dimension_of(Point()) == 0
        assert dimension_of(Projective(4)) == 4
        assert dimension_of(Quadric(3)) == 3
        assert dimension_of(Grassmannian(2, 5)) == 6
        assert dimension_of(P2) == 2
        assert dimension_of(Product(Projective(1), Quadric(2))) == 3
        assert dimension_of(DisjointUnion(Point(), Projective(3))) == 3
        assert dimension_of(Blowup(Projective(2), Point(), 2)) == 2
        assert dimension_of(ProjBundle(Projective(1), 3)) == 3
        assert dimension_of(ModuliM0(3)) == 0
        assert dimension_of(ModuliM0(5)) == 2
        assert dimension_of(Fano3fold(2, True)) == 3


class TestMotives:
    def test_projective(self):
        for n in range(7):
            assert motive_of(Projective(n)).tate == TateMotive(
                {i: 1 for i in range(n + 1)}
            )

    def test_quadric_frozen(self):
        expected = {
            1: {0: 1, 1: 1},
            2: {0: 1, 1: 2, 2: 1},
            3: {0: 1, 1: 1, 2: 1, 3: 1},
            4: {0: 1, 1: 1, 2: 2, 3: 1, 4: 1},
            5: {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
            6: {0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1},
        }
        for d, terms in expected.items():
            assert motive_of(Quadric(d)).tate == TateMotive(terms)

    def test_quadric_rank(self):
        for d in range(1, 9):
            rank = motive_of(Quadric(d)).tate.rank
            assert rank == d + 1 + (1 - d % 2)

    def test_gaussian_binomial_against_q_pascal(self):
        for n in range(2, 31):
            for k in range(1, n):
                assert _gaussian_binomial(n, k) == gaussian_binomial_pascal(n, k)

    def test_grassmannian_against_partition_oracle(self):
        for n in range(2, 11):
            for k in range(1, n):
                got = motive_of(Grassmannian(k, n)).tate
                assert got == TateMotive(grassmannian_oracle(k, n))
                assert got.rank == math.comb(n, k)

    def test_grassmannian_special_cases(self):
        for n in range(1, 6):
            assert motive_of(Grassmannian(1, n + 1)).tate == motive_of(
                Projective(n)
            ).tate
        assert motive_of(Grassmannian(2, 5)).tate == motive_of(Grassmannian(3, 5)).tate

    def test_toric_surfaces(self):
        assert motive_of(P2).tate == TateMotive({0: 1, 1: 1, 2: 1})
        assert motive_of(P1XP1).tate == TateMotive({0: 1, 1: 2, 2: 1})

    def test_toric_euler_characteristic_is_top_cone_count(self):
        for counts in [(1, 3, 3), (1, 4, 4), (1, 5, 5), (1, 4, 6, 4), (1, 6, 12, 8)]:
            assert motive_of(Toric(counts)).tate.rank == counts[-1]

    def test_toric_threefolds_match_known_motives(self):
        assert motive_of(Toric((1, 4, 6, 4))).tate == motive_of(Projective(3)).tate
        p1 = Projective(1)
        assert (
            motive_of(Toric((1, 6, 12, 8))).tate
            == motive_of(Product(Product(p1, p1), p1)).tate
        )

    def test_toric_negative_betti_rejected(self):
        with pytest.raises(InvalidParameterError, match="negative Betti"):
            motive_of(Toric((1, 1, 1)))

    def test_product_and_union(self):
        p1 = Projective(1)
        assert motive_of(Product(p1, p1)).tate == TateMotive({0: 1, 1: 2, 2: 1})
        assert motive_of(DisjointUnion(Point(), Point())).tate == TateMotive({0: 2})

    def test_blowup(self):
        surface = Blowup(Projective(2), Point(), 2)
        assert motive_of(surface).tate == TateMotive({0: 1, 1: 2, 2: 1})
        threefold = Blowup(Projective(3), Projective(1), 2)
        # adds M(P^1) twisted once: L + L^2
        assert motive_of(threefold).tate == TateMotive({0: 1, 1: 2, 2: 2, 3: 1})

    def test_proj_bundle(self):
        ruled = ProjBundle(Projective(1), 2)
        assert motive_of(ruled).tate == TateMotive({0: 1, 1: 2, 2: 1})

    def test_moduli(self):
        assert motive_of(ModuliM0(3)).tate == TateMotive({0: 1})
        assert motive_of(ModuliM0(4)).tate == TateMotive({0: 1, 1: 1})
        assert motive_of(ModuliM0(5)).tate == TateMotive({0: 1, 1: 5, 2: 1})

    @pytest.mark.parametrize(
        "n, model",
        [(3, "point"), (4, "P(1)"), (5, "blowup(P(2); point+point+point+point; 2)")],
    )
    def test_moduli_matches_model_space(self, n, model):
        """M0(n) has the motive and collection of the space it is."""
        space = parse_expr(model)
        assert dimension_of(ModuliM0(n)) == dimension_of(space)
        assert motive_of(ModuliM0(n)) == motive_of(space)
        for variant in ("split", "kuznetsov"):
            got = exceptional_collection_of(ModuliM0(n), quadric_variant=variant)
            if n <= 4:
                want = exceptional_collection_of(space, quadric_variant=variant)
                assert got.labels == want.labels
            else:
                # the catalog has no collection for a blowup: generic labels
                rank = motive_of(space).tate.rank
                assert got.labels == tuple("E%d" % (i + 1) for i in range(rank))

    def test_fano(self):
        for b in range(4):
            gm = motive_of(Fano3fold(b, True))
            assert gm.tate == TateMotive({0: 1, 1: b, 2: b, 3: 1})
            assert gm.opaque == ()
        gm = motive_of(Fano3fold(2, False))
        assert gm.tate == TateMotive({0: 1, 1: 2, 2: 2, 3: 1})
        assert [p.name for p in gm.opaque] == ["M^1(X)", "M^1(J)", "M^5(X)"]
        assert [p.twist for p in gm.opaque] == [0, 1, 0]
        assert all(p.odd for p in gm.opaque)
        assert gm.text() == (
            "1 + 2*L + 2*L^2 + L^3 + [M^1(X)] + [M^1(J)*L] + [M^5(X)]"
        )

    def test_exponents_bounded_by_dimension(self):
        samples = [
            Point(),
            Projective(5),
            Quadric(4),
            Grassmannian(2, 5),
            P2,
            Product(Projective(2), Quadric(2)),
            DisjointUnion(Projective(1), Quadric(3)),
            Blowup(Projective(3), Point(), 3),
            ProjBundle(Quadric(2), 2),
            ModuliM0(5),
            Fano3fold(3, True),
        ]
        for e in samples:
            exps = motive_of(e).tate.terms
            assert min(exps) == 0
            assert max(exps) <= dimension_of(e)


class TestGeneralizedMotive:
    def test_opaque_tensor_shifts_twist(self):
        fano = motive_of(Fano3fold(1, False))
        line = motive_of(Projective(1))
        prod = fano * line
        assert prod.tate == TateMotive({0: 1, 1: 2, 2: 2, 3: 2, 4: 1})
        # each opaque part appears once plain and once twisted
        twists = sorted(p.twist for p in prod.opaque if p.name == "M^1(X)")
        assert twists == [0, 1]

    def test_opaque_times_opaque_rejected(self):
        fano = motive_of(Fano3fold(1, False))
        with pytest.raises(OpaqueMotiveError):
            fano * fano

    def test_sum_concatenates(self):
        fano = motive_of(Fano3fold(1, False))
        both = fano + fano
        assert len(both.opaque) == 6
        assert both.tate.rank == 8

    def test_is_tate(self):
        assert motive_of(Projective(1)).is_tate
        assert not motive_of(Fano3fold(0, False)).is_tate

    def test_opaque_text_forms(self):
        assert OpaquePart("N", True).text() == "[N]"
        assert OpaquePart("N", True, 1).text() == "[N*L]"
        assert OpaquePart("N", True, 3).text() == "[N*L^3]"

    def test_zero_text(self):
        assert GeneralizedMotive(TateMotive()).text() == "0"


class TestCollections:
    def test_projective_labels(self):
        assert exceptional_collection_of(Projective(2)).labels == (
            "O(-2)",
            "O(-1)",
            "O",
        )
        assert exceptional_collection_of(Projective(0)).labels == ("O",)

    def test_quadric_split_labels(self):
        assert exceptional_collection_of(Quadric(3)).labels == (
            "Sigma(-3)",
            "O(-2)",
            "O(-1)",
            "O",
        )
        assert exceptional_collection_of(Quadric(2)).labels == (
            "Sigma+(-2)",
            "Sigma-(-2)",
            "O(-1)",
            "O",
        )

    def test_quadric_kuznetsov(self):
        col = exceptional_collection_of(Quadric(4), quadric_variant="kuznetsov")
        assert col.labels == ("Cl0(Q_4)", "O(-3)", "O(-2)", "O(-1)", "O")
        assert col.pieces[0].kind == "opaque"
        assert col.pieces[0].nc_rank is None
        assert all(p.kind == "exceptional" for p in col.pieces[1:])

    def test_variant_validated(self):
        with pytest.raises(ValueError):
            exceptional_collection_of(Quadric(2), quadric_variant="other")

    def test_point_and_union(self):
        assert exceptional_collection_of(Point()).labels == ("O",)
        two = DisjointUnion(Point(), Point())
        assert len(exceptional_collection_of(two)) == 2

    def test_generic_label_entries(self):
        assert len(exceptional_collection_of(P2)) == 3
        assert exceptional_collection_of(ModuliM0(5)).labels[:2] == ("E1", "E2")
        assert len(exceptional_collection_of(ModuliM0(5))) == 7
        assert len(exceptional_collection_of(Fano3fold(2, True))) == 6

    def test_moduli_delegates_small_cases(self):
        assert exceptional_collection_of(ModuliM0(3)).labels == ("O",)
        assert exceptional_collection_of(ModuliM0(4)).labels == ("O(-1)", "O")

    def test_length_matches_rank(self):
        samples = [
            Point(),
            Projective(3),
            Quadric(2),
            Quadric(5),
            P2,
            ModuliM0(5),
            Fano3fold(1, True),
            DisjointUnion(Point(), Projective(1)),
        ]
        for e in samples:
            assert len(exceptional_collection_of(e)) == motive_of(e).tate.rank

    def test_unavailable(self):
        for e in [
            Grassmannian(2, 4),
            Product(Projective(1), Projective(1)),
            Blowup(Projective(2), Point(), 2),
            ProjBundle(Projective(1), 2),
            Fano3fold(1, False),
        ]:
            with pytest.raises(CollectionUnavailableError):
                exceptional_collection_of(e)


class TestFecVerdict:
    def test_catalog_ok(self):
        v = fec_verdict(Projective(2))
        assert v.status == FEC_OK and v.min_length == 1 and v.bound == 3

    def test_no_collection_still_ok(self):
        v = fec_verdict(Grassmannian(2, 4))
        assert v.status == FEC_OK and v.min_length == 2 and v.bound is None

    def test_odd_opaque_fails(self):
        for b in range(3):
            assert fec_verdict(Fano3fold(b, False)).status == FEC_FAILS_ODD


class TestExprJson:
    def test_round_trip(self):
        samples = [
            Point(),
            Projective(2),
            Quadric(4),
            Grassmannian(2, 5),
            Toric((1, 4, 4)),
            Product(Projective(1), Point()),
            DisjointUnion(Point(), Point()),
            Blowup(Projective(2), Point(), 2),
            ProjBundle(Quadric(2), 3),
            ModuliM0(4),
            Fano3fold(2, False),
        ]
        for e in samples:
            assert expr_from_json(expr_to_json(e)) == e

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            expr_from_json({"n": 2})
        with pytest.raises(ValueError):
            expr_from_json({"kind": "elliptic"})
        point = {"kind": "point"}
        cases = [
            ({"kind": "projective"}, "projective expression JSON needs a field 'n'"),
            (
                {"kind": "product", "left": point},
                "product expression JSON needs a field 'right'",
            ),
            (
                {"kind": "blowup", "base": point, "center": point},
                "blowup expression JSON needs a field 'codim'",
            ),
            (
                {"kind": "toric", "cone_counts": 5},
                "toric expression JSON needs 'cone_counts' as a list",
            ),
            ({"kind": ["point"]}, "unknown expression kind ['point']"),
            ({"kind": "projective", "n": True}, "projective space needs n >= 0"),
            (
                {"kind": "grassmannian", "k": True, "n": 3},
                "Grassmannian needs 0 < k < n",
            ),
            (
                {"kind": "toric", "cone_counts": [True, 2, 1]},
                "cone counts must be positive integers",
            ),
        ]
        for data, message in cases:
            with pytest.raises(ValueError) as info:
                expr_from_json(data)
            assert str(info.value) == message

    def test_exact_text(self):
        # key order and list-valued fields are part of the format
        expected = [
            (Point(), '{"kind": "point"}'),
            (Projective(2), '{"kind": "projective", "n": 2}'),
            (Quadric(4), '{"kind": "quadric", "d": 4}'),
            (Grassmannian(2, 5), '{"kind": "grassmannian", "k": 2, "n": 5}'),
            (Toric((1, 4, 4)), '{"kind": "toric", "cone_counts": [1, 4, 4]}'),
            (
                Product(Projective(1), Point()),
                '{"kind": "product", "left": {"kind": "projective", "n": 1}, '
                '"right": {"kind": "point"}}',
            ),
            (
                DisjointUnion(Point(), Quadric(1)),
                '{"kind": "disjoint_union", "left": {"kind": "point"}, '
                '"right": {"kind": "quadric", "d": 1}}',
            ),
            (
                Blowup(Projective(2), Point(), 2),
                '{"kind": "blowup", "base": {"kind": "projective", "n": 2}, '
                '"center": {"kind": "point"}, "codim": 2}',
            ),
            (
                ProjBundle(Quadric(2), 3),
                '{"kind": "proj_bundle", "base": {"kind": "quadric", "d": 2}, '
                '"fiber_rank": 3}',
            ),
            (ModuliM0(4), '{"kind": "moduli_m0", "n": 4}'),
            (
                Fano3fold(2, False),
                '{"kind": "fano3fold", "b": 2, "odd_trivial": false}',
            ),
        ]
        for e, text in expected:
            assert json.dumps(expr_to_json(e)) == text


class TestNodes:
    def test_exact_repr(self):
        expected = [
            (Point(), "Point()"),
            (Projective(3), "Projective(n=3)"),
            (Quadric(4), "Quadric(d=4)"),
            (Grassmannian(2, 5), "Grassmannian(k=2, n=5)"),
            (Toric([1, 4, 4]), "Toric(cone_counts=(1, 4, 4))"),
            (
                Product(Projective(1), Point()),
                "Product(left=Projective(n=1), right=Point())",
            ),
            (
                DisjointUnion(Point(), Quadric(1)),
                "DisjointUnion(left=Point(), right=Quadric(d=1))",
            ),
            (
                Blowup(Projective(2), Point(), 2),
                "Blowup(base=Projective(n=2), center=Point(), codim=2)",
            ),
            (ProjBundle(Quadric(2), 3), "ProjBundle(base=Quadric(d=2), fiber_rank=3)"),
            (ModuliM0(4), "ModuliM0(n=4)"),
            (Fano3fold(2, False), "Fano3fold(b=2, odd_trivial=False)"),
        ]
        for e, text in expected:
            assert repr(e) == text
            assert eval(text) == e

    def test_equal_and_hash_three_ways(self):
        text = "blowup(P(1) * P(1); point + point; 2) + toric[1,4,4] * fano(2; true)"
        built = DisjointUnion(
            Blowup(
                Product(Projective(1), Projective(1)),
                DisjointUnion(Point(), Point()),
                2,
            ),
            Product(Toric((1, 4, 4)), Fano3fold(2, True)),
        )
        trees = [parse_expr(text), built, expr_from_json(expr_to_json(built))]
        for tree in trees:
            assert tree == built
            assert hash(tree) == hash(built)
        assert len(set(trees)) == 1
        # same labels in another shape, another class, another value
        assert Product(Point(), Projective(1)) != Product(Projective(1), Point())
        assert DisjointUnion(Point(), Point()) != Product(Point(), Point())
        assert Fano3fold(2, True) != Fano3fold(2, False)
        assert Point() != "point"

    def test_copy_deepcopy_and_pickle(self):
        e = parse_expr("blowup(P(3); P(1); 2) * toric[1,4,4] + fano(1; false)")
        for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin == e
            assert hash(twin) == hash(e)
            assert repr(twin) == repr(e)
            with pytest.raises(AttributeError):
                twin.left = Point()

    def test_immutable(self):
        e = Product(Projective(2), Point())
        for attempt in (
            lambda: setattr(e, "left", Point()),
            lambda: setattr(Projective(2), "n", 3),
            lambda: setattr(Toric((1, 3, 3)), "cone_counts", (1,)),
            lambda: delattr(e, "right"),
        ):
            with pytest.raises(AttributeError):
                attempt()
        assert e == Product(Projective(2), Point())

    def test_collection_errors_of_sums_and_products(self):
        # a product fails as a product, before its factors are looked at
        with pytest.raises(CollectionUnavailableError) as info:
            exceptional_collection_of(parse_expr("fano(1; false)*P(1)"))
        assert str(info.value) == "no collection in the catalog for Product"
        with pytest.raises(CollectionUnavailableError) as info:
            exceptional_collection_of(parse_expr("P(1) + fano(1; false)"))
        assert str(info.value) == (
            "odd-weight summands were not asserted trivial, so no full "
            "exceptional collection is available"
        )


def _random_toric(rng):
    """Cone counts from random Betti numbers, or now and then a negative one."""
    if rng.random() < 0.1:
        return Toric((1, 1, rng.randint(1, 3)))
    n = rng.randint(1, 3)
    betti = [rng.randint(0, 3) for _ in range(n)] + [1]
    return Toric(
        tuple(sum(b * math.comb(j, n - k) for j, b in enumerate(betti)) for k in range(n + 1))
    )


LEAVES = (
    lambda rng: Point(),
    lambda rng: Projective(rng.randint(0, 6)),
    lambda rng: Quadric(rng.randint(1, 6)),
    lambda rng: Grassmannian(rng.randint(1, 3), rng.randint(4, 7)),
    _random_toric,
    lambda rng: ModuliM0(rng.randint(3, 5)),
    lambda rng: Fano3fold(rng.randint(0, 3), rng.random() < 0.5),
)


def random_tree(rng, depth=1):
    """A random catalog tree of at most four levels.

    Some trees raise when evaluated: a product of two opaque motives, or a
    toric variety with a negative Betti number.
    """
    if depth >= 4 or rng.random() < 0.35:
        return rng.choice(LEAVES)(rng)
    kind = rng.randrange(4)
    if kind == 0:
        return Product(random_tree(rng, depth + 1), random_tree(rng, depth + 1))
    if kind == 1:
        return DisjointUnion(random_tree(rng, depth + 1), random_tree(rng, depth + 1))
    base = random_tree(rng, depth + 1)
    if kind == 2:
        return ProjBundle(base, rng.randint(1, 3))
    dim = fresh_dimension(base)
    if dim < 2:
        dim = rng.randint(2, 5)
        base = Projective(dim)
    codim = rng.randint(2, min(dim, 3))
    center = Point() if dim == codim else Projective(dim - codim)
    return Blowup(base, center, codim)


def outcome(f, e):
    """``f(e)``'s value, or the type and message of what it raised."""
    try:
        return "value", f(e)
    except Exception as exc:
        return type(exc), str(exc)


def split(e):
    return exceptional_collection_of(e)


def kuznetsov(e):
    return exceptional_collection_of(e, quadric_variant="kuznetsov")


class TestMemo:
    """Each entry point keeps its answer on the node: a pure cache."""

    ENTRY_POINTS = (
        (dimension_of, fresh_dimension),
        (motive_of, fresh_motive),
        (split, split),
        (kuznetsov, kuznetsov),
    )

    @pytest.mark.parametrize("seed", range(8))
    def test_equal_to_the_unmemoized_fold(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            e = random_tree(rng)
            text = render_expr(e)
            for entry, oracle in self.ENTRY_POINTS:
                want = outcome(oracle, parse_expr(text))
                assert outcome(entry, parse_expr(text)) == want
                got = [outcome(entry, e) for _ in range(3)]
                assert got == [want] * 3, text
                if want[0] == "value":
                    assert entry(e) is entry(e)

    def test_node_unchanged_by_evaluation(self):
        rng = random.Random(99)
        for _ in range(100):
            e = random_tree(rng)
            before = (hash(e), repr(e), pickle.dumps(e), _labels(e), render_expr(e))
            twin = parse_expr(render_expr(e))
            for entry, _ in self.ENTRY_POINTS:
                outcome(entry, e)
            assert (hash(e), repr(e), pickle.dumps(e), _labels(e), render_expr(e)) == before
            assert e == twin and twin == e
            assert copy.copy(e) is e and copy.deepcopy(e) is e
            assert pickle.loads(pickle.dumps(e)) == twin

    @pytest.mark.parametrize(
        "call, e, error",
        [
            (motive_of, Toric((1, 1, 2)), InvalidParameterError),
            (motive_of, DisjointUnion(Point(), Toric((1, 1, 2))), InvalidParameterError),
            (split, Toric((1, 1, 2)), InvalidParameterError),
            (motive_of, parse_expr("fano(1; false)*fano(0; false)"), OpaqueMotiveError),
            (split, Grassmannian(2, 4), CollectionUnavailableError),
            (kuznetsov, parse_expr("P(1) + fano(1; false)"), CollectionUnavailableError),
            (motive_of, VarietyExpr(), TypeError),
            (dimension_of, VarietyExpr(), TypeError),
            (motive_of, 42, TypeError),
            (dimension_of, "P(1)", TypeError),
            (lambda e: exceptional_collection_of(e, quadric_variant="x"), Point(), ValueError),
        ],
    )
    def test_errors_are_raised_again(self, call, e, error):
        messages = []
        for _ in range(3):
            with pytest.raises(error) as info:
                call(e)
            assert type(info.value) is error
            messages.append(str(info.value))
        assert len(set(messages)) == 1

    @pytest.mark.parametrize("op", ["+", "*"])
    def test_long_chain(self, op):
        e = parse_expr(op.join(["point"] * 10000))
        first = motive_of(e)
        assert first == fresh_motive(e) and motive_of(e) is first
        assert dimension_of(e) == fresh_dimension(e) == 0

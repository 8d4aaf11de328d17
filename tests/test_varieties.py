"""Catalog formulas, dimensions, collections, and the generalized motive algebra."""

import base64
import copy
import gc
import math
import pickle
import random
import tracemalloc
from collections import Counter

import pytest

from helpers import (
    checked_rebuild,
    collection_length_verdict,
    expanding_motive,
    expanding_mul,
    fresh_collection,
    fresh_dimension,
    fresh_motive,
    gaussian_binomial_pascal,
    grassmannian_oracle,
    identity_pattern,
    outcome,
    random_tree,
    rebuilt_collection,
    span_memo_motive,
)
from lefschetz.exprlang import parse_expr, render_expr
from lefschetz.measures import chi_gs, chi_hd, k0_class
from lefschetz.sod import FEC_FAILS_ODD, FEC_OK, Collection, SODPiece
from lefschetz.tate import TateMotive, lefschetz, poincare
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
    _fold,
    _from_labels,
    _gaussian_binomial,
    _labels,
    _twist_sum,
    dimension_of,
    exceptional_collection_of,
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


class Outside(VarietyExpr):
    """A leaf outside the catalog: no kind."""


class OutsidePair(VarietyExpr):
    """A node outside the catalog with two children."""

    _fields = (("left", VarietyExpr), ("right", VarietyExpr))


# each class without a kind, with the labels of a node of it
KINDLESS = (
    (VarietyExpr, [(VarietyExpr,)]),
    (Outside, [(Outside,)]),
    (OutsidePair, [(Point,), (Point,), (OutsidePair, ("left", VarietyExpr, None), ("right", VarietyExpr, None))]),
)


class PickledLabels:
    """Pickles as ``_from_labels(labels)``, the call a node's pickle holds."""

    def __init__(self, labels):
        self.labels = labels

    def __reduce__(self):
        return _from_labels, (self.labels,)


def unpickled(labels):
    """What a pickle that holds ``labels`` loads as."""
    return pickle.loads(pickle.dumps(PickledLabels(labels)))


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

    def test_nodes_outside_the_catalog(self):
        # the catalog is closed: a class without a kind builds no node,
        # whether directly, from labels or from a pickle
        for cls, labels in KINDLESS:
            for build in (
                lambda: cls(*[Point()] * len(cls._children)),
                lambda: _from_labels(labels),
                lambda: unpickled(labels),
            ):
                with pytest.raises(TypeError) as info:
                    build()
                assert str(info.value) == "unknown expression node %r" % cls.__name__

    def test_attribute_outside_the_fields(self):
        e = parse_expr("blowup(P(3); P(1); 2) * Q(2) + point")
        assert e.dim == 5
        with pytest.raises(AttributeError):
            e.dim = 6
        assert repr(e) == (
            "DisjointUnion(left=Product(left=Blowup(base=Projective(n=3), "
            "center=Projective(n=1), codim=2), right=Quadric(d=2)), right=Point())"
        )
        assert [name for label in _labels(e) for name, _, _ in label[1:]] == [
            "n", "n", "base", "center", "codim", "d", "left", "right", "left", "right"
        ]
        twin = pickle.loads(pickle.dumps(e))
        assert twin == e and twin.dim == 5 and copy.deepcopy(e).dim == 5

    @pytest.mark.parametrize("seed", range(4))
    def test_every_node_against_the_fold(self, seed):
        rng = random.Random(700 + seed)
        for _ in range(40):
            todo = [random_tree(rng)]
            while todo:
                node = todo.pop()
                assert node.dim == dimension_of(node) == fresh_dimension(node)
                todo += [getattr(node, name) for name in node._children]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: dimension_of(Product(VarietyExpr(), Point())),
            lambda: dimension_of(DisjointUnion(Point(), Product(Projective(1), VarietyExpr()))),
            lambda: Blowup(VarietyExpr(), Point(), 2),
            lambda: Blowup(Projective(3), VarietyExpr(), 2),
            lambda: Blowup(Projective(3), ProjBundle(VarietyExpr(), 2), 2),
        ],
    )
    def test_the_node_outside_the_catalog_is_named(self, build):
        # as motive_of names it, not the root above it
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == "unknown expression node 'VarietyExpr'"

    def test_named_node_is_the_one_motive_of_rejects(self):
        # labels that put a node outside the catalog below catalog nodes
        # fail where that node is built, naming it, not the root above it
        leaf = _labels(Product(Projective(1), Point()))
        leaf[1] = (Outside,)
        pair = _labels(DisjointUnion(Point(), Product(Point(), Point())))
        pair[3] = (OutsidePair, *pair[3][1:])
        for labels, name in ((leaf, "Outside"), (pair, "OutsidePair")):
            for build in (_from_labels, unpickled):
                with pytest.raises(TypeError) as info:
                    build(labels)
                assert str(info.value) == "unknown expression node %r" % name
        # every entry point names the type of a root that is no node
        for call in (dimension_of, motive_of, render_expr, split):
            for value in (42, "P(1)", None):
                with pytest.raises(TypeError) as info:
                    call(value)
                assert str(info.value) == "unknown expression node %r" % type(value).__name__

    def test_nested_blowups_build_in_linear_time(self, monkeypatch):
        # folding the base again for each blowup made about n^2/2 calls
        n = 2000
        e = Projective(2)
        for _ in range(n):
            e = Blowup(e, Point(), 2)
        calls = []
        formula = Blowup._dimension

        def counted(node, *dims):
            calls.append(node)
            return formula(node, *dims)

        monkeypatch.setattr(Blowup, "_dimension", counted)
        twin = pickle.loads(pickle.dumps(e))
        assert twin == e and dimension_of(twin) == 2
        assert n <= len(calls) <= 2 * n


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


# ``pickle.dumps`` of ``PICKLED_TEXT``'s tree, saved when the pickle format
# was first pinned: a pickle names ``varieties._from_labels`` and the node
# classes, and holds the flat post-order labels.
PICKLED_TEXT = (
    "blowup(P(1) * P(3); point + P(2); 2) + toric[1,4,4] * fano(2; true)"
    " + projbundle(Q(3); 2) * M0(5) + Gr(2,4) + fano(0; false)"
)
PICKLED = base64.b64decode(
    "gASViQIAAAAAAACME2xlZnNjaGV0ei52YXJpZXRpZXOUjAxfZnJvbV9sYWJlbHOUk5Rd"
    "lChoAIwKUHJvamVjdGl2ZZSTlIwBbpSMCGJ1aWx0aW5zlIwDaW50lJOUSwGHlIaUaAVo"
    "BmgJSwOHlIaUaACMB1Byb2R1Y3SUk5SMBGxlZnSUaACMC1ZhcmlldHlFeHBylJOUToeU"
    "jAVyaWdodJRoEk6HlIeUaACMBVBvaW50lJOUhZRoBWgGaAlLAoeUhpRoAIwNRGlzam9p"
    "bnRVbmlvbpSTlGgQaBJOh5RoFGgSToeUh5QoaACMBkJsb3d1cJSTlIwEYmFzZZRoEk6H"
    "lIwGY2VudGVylGgSToeUjAVjb2RpbZRoCUsCh5R0lGgAjAVUb3JpY5STlIwLY29uZV9j"
    "b3VudHOUaAeMBXR1cGxllJOUSwFLBEsEh5SHlIaUaACMCUZhbm8zZm9sZJSTlIwBYpRo"
    "CUsCh5SMC29kZF90cml2aWFslGgHjARib29slJOUiIeUh5RoD2gQaBJOh5RoFGgSToeU"
    "h5RoHWgQaBJOh5RoFGgSToeUh5RoAIwHUXVhZHJpY5STlIwBZJRoCUsDh5SGlGgAjApQ"
    "cm9qQnVuZGxllJOUaCNoEk6HlIwKZmliZXJfcmFua5RoCUsCh5SHlGgAjAhNb2R1bGlN"
    "MJSTlGgGaAlLBYeUhpRoD2gQaBJOh5RoFGgSToeUh5RoHWgQaBJOh5RoFGgSToeUh5Ro"
    "AIwMR3Jhc3NtYW5uaWFulJOUjAFrlGgJSwKHlGgGaAlLBIeUh5RoHWgQaBJOh5RoFGgS"
    "ToeUh5RoM2g0aAlLAIeUaDZoOImHlIeUaB1oEGgSToeUaBRoEk6HlIeUZYWUUpQu"
)


def test_stored_pickle_loads():
    e = parse_expr(PICKLED_TEXT)
    twin = pickle.loads(PICKLED)
    assert twin == e and hash(twin) == hash(e)
    assert _labels(twin) == _labels(e)
    assert dimension_of(twin) == dimension_of(e) == 6
    assert pickle.dumps(e) == PICKLED


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
        trees = [parse_expr(text), built, pickle.loads(pickle.dumps(built))]
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
            (motive_of, 42, TypeError),
            (dimension_of, "P(1)", TypeError),
            (lambda e: exceptional_collection_of(e, quadric_variant="x"), Point(), ValueError),
            (lambda e: exceptional_collection_of(e, quadric_variant=[]), Point(), ValueError),
            (lambda e: exceptional_collection_of(e, quadric_variant={}), Point(), ValueError),
            (split, 42, TypeError),
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


def assert_canonical(poly):
    """Equal to its checked rebuild: same items in the same order, ``repr`` and hash."""
    want = checked_rebuild(poly)
    assert type(poly) is type(want)
    assert list(poly.terms.items()) == list(want.terms.items())
    assert repr(poly) == repr(want) and hash(poly) == hash(want) and poly == want
    assert 0 not in poly.terms.values()


class TestCanonicalResults:
    """Trusted constructors build what the checking constructor builds."""

    @pytest.mark.parametrize("seed", range(6))
    def test_every_polynomial_against_its_rebuild(self, seed):
        rng = random.Random(900 + seed)
        motives = [motive_of(Quadric(2)), motive_of(Fano3fold(1, False))]
        classes = [k0_class(Projective(2))]
        for _ in range(40):
            e = random_tree(rng)
            got = outcome(motive_of, e)
            if got[0] != "value":
                continue
            m = got[1]
            assert_canonical(m.tate)
            other = rng.choice(motives)
            assert_canonical((m + other).tate)
            if not (m.opaque and other.opaque):
                assert_canonical((m * other).tate)
            motives.append(m)
            if m.opaque:
                continue
            c = k0_class(e)
            assert c == k0_class(m) == k0_class(m.tate)
            virtual = c - rng.choice(classes)
            classes.append(c)
            for poly in (poincare(m.tate), c, chi_gs(c), chi_hd(c), -c, virtual, chi_hd(virtual), -virtual):
                assert_canonical(poly)

    @pytest.mark.parametrize("seed", range(6))
    def test_both_collections_against_the_per_variant_fold(self, seed):
        rng = random.Random(950 + seed)
        for _ in range(40):
            e = random_tree(rng)
            want = [outcome(lambda e: fresh_collection(e, v), e) for v in ("split", "kuznetsov")]
            assert [outcome(split, e), outcome(kuznetsov, e)] == want
            # whichever variant is asked first fills both
            twin = parse_expr(render_expr(e))
            assert [outcome(kuznetsov, twin), outcome(split, twin)] == want[::-1]


def summands(e):
    return _fold(e, lambda node, *parts: node._summands(*parts))


def memos(e):
    """The names of the memo attributes kept on the node ``e``."""
    return [name for name in vars(e) if name.endswith("_memo")]


class TestOneWalk:
    @pytest.fixture
    def asked(self, monkeypatch):
        """Each call of a ``_pieces`` or ``_kuznetsov`` method, as (node, hook).

        Only hooks that are functions are wrapped: a class without a
        collection keeps the base class's ``_pieces``, None.
        """
        calls = []
        for cls in (VarietyExpr, *VarietyExpr.__subclasses__()):
            for hook in ("_pieces", "_kuznetsov"):
                if callable(vars(cls).get(hook)):
                    def counted(node, *args, hook=hook, method=vars(cls)[hook]):
                        calls.append((node, hook))
                        return method(node, *args)

                    monkeypatch.setattr(cls, hook, counted)
        return calls

    @pytest.mark.parametrize("seed", range(4))
    def test_each_summand_asked_once(self, asked, seed):
        rng = random.Random(980 + seed)
        for _ in range(40):
            e = random_tree(rng)
            # one walk asks each summand both questions, up to the first
            # summand without a collection: one whose class has none is
            # asked nothing, and an opaque Fano threefold only the first
            want = []
            for node in summands(e):
                if node._pieces is None:
                    break
                want.append((id(node), "_pieces"))
                if outcome(lambda node: node._pieces(), node)[0] != "value":
                    break
                want.append((id(node), "_kuznetsov"))
            asked.clear()
            first = [outcome(split, e), outcome(kuznetsov, e)]
            assert [outcome(split, e), outcome(kuznetsov, e)] == first
            got = [(id(node), hook) for node, hook in asked]
            if first[0][0] == "value":
                assert split(e) is split(e) and kuznetsov(e) is kuznetsov(e)
                # one attribute keeps both variants
                assert memos(e) == ["_collections_memo"]
                assert vars(e)["_collections_memo"] == (first[0][1], first[1][1])
                assert got == want
            else:
                # both fail alike and keep nothing, so each call walks again
                assert first[1] == first[0]
                assert memos(e) == []
                assert got == want * 4

    def test_no_collection_raises_again(self, asked):
        e = parse_expr("P(1) + Q(3) + Gr(2,4) + P(2)")
        messages = []
        for call in (split, kuznetsov, split, kuznetsov):
            with pytest.raises(CollectionUnavailableError) as info:
                call(e)
            messages.append(str(info.value))
            assert memos(e) == []
        assert messages == ["no collection in the catalog for Grassmannian"] * 4
        # each call asks P(1) and Q(3) both questions; the Grassmannian's
        # class has no ``_pieces``, so it is asked nothing
        assert [(type(n).__name__, hook) for n, hook in asked] == [
            ("Projective", "_pieces"),
            ("Projective", "_kuznetsov"),
            ("Quadric", "_pieces"),
            ("Quadric", "_kuznetsov"),
        ] * 4

    @pytest.mark.parametrize("text", ["P(3) + Q(4) + toric[1,4,4]", "P(1) + Gr(2,4)"])
    def test_verdict_builds_no_collection(self, asked, text):
        # the bound is the Tate rank, so the verdict asks no summand for a
        # collection and keeps none on the node
        e = parse_expr(text)
        verdict = fec_verdict(e)
        assert asked == [] and memos(e) == ["_motive_memo"]
        assert verdict == collection_length_verdict(parse_expr(text))


class TestSharedTerms:
    """Trusted results may share one terms dict, which nobody can reach."""

    @pytest.mark.parametrize("text", ["point", "P(3)", "Q(4)", "Gr(2,5)", "M0(5)", "Q(3) + toric[1,4,4]"])
    def test_terms_is_a_copy(self, text):
        m = motive_of(parse_expr(text)).tate
        c = k0_class(m)
        values = [m, c, chi_gs(c), chi_hd(c), -c, poincare(m), c - c]
        before = [(repr(v), hash(v), list(v.terms.items())) for v in values]
        for v in values:
            terms = v.terms
            assert terms is not v.terms and terms == v.terms
            terms[next(iter(terms), 0)] = 99
            terms[7] = 5
            terms.clear()
        assert [(repr(v), hash(v), list(v.terms.items())) for v in values] == before
        for v in values:
            twin = pickle.loads(pickle.dumps(v))
            assert twin == v and type(twin) is type(v) and repr(twin) == repr(v)
            assert list(twin.terms.items()) == list(v.terms.items())


SMALL_LEAVES = (
    lambda rng: Point(),
    lambda rng: Projective(rng.randint(0, 4)),
    lambda rng: Quadric(rng.randint(1, 4)),
    lambda rng: Grassmannian(2, rng.randint(3, 5)),
    lambda rng: ModuliM0(rng.randint(3, 5)),
    lambda rng: Fano3fold(rng.randint(0, 2), rng.random() < 0.25),
)


def opaque_tree(rng, depth=1):
    """A random tree where opaque Fano parts meet products, unions, bundles and blowups.

    Products take opaque factors on either side and nest; bundles and
    blowups take opaque bases, and a blowup's centre may be an opaque Fano
    threefold.  Some trees raise: a product of two opaque motives.
    """
    if depth >= 4 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Fano3fold(rng.randint(0, 2), False)
        return rng.choice(SMALL_LEAVES)(rng)
    kind = rng.randrange(4)
    if kind == 0:
        return Product(opaque_tree(rng, depth + 1), opaque_tree(rng, depth + 1))
    if kind == 1:
        return DisjointUnion(opaque_tree(rng, depth + 1), opaque_tree(rng, depth + 1))
    base = opaque_tree(rng, depth + 1)
    if kind == 2:
        return ProjBundle(base, rng.randint(1, 3))
    if rng.random() < 0.25:
        # a Fano threefold as the centre, in a base of dimension 3 + codim
        codim = rng.randint(2, 3)
        center = Fano3fold(rng.randint(0, 2), rng.random() < 0.3)
        dim = 3 + codim
        if base.dim <= dim and rng.random() < 0.7:
            base = Product(base, Projective(dim - base.dim))
        else:
            base = Projective(dim)
        return Blowup(base, center, codim)
    if base.dim < 2:
        base = Product(Fano3fold(rng.randint(0, 2), False), base)
    codim = rng.randint(2, min(base.dim, 4))
    rest = base.dim - codim
    return Blowup(base, Point() if rest == 0 else Projective(rest), codim)


# Tate factors with a multiplicity above 1: a product with one repeats the
# twisted part objects of the other factor
REPEATING_LEAVES = (
    lambda rng: Grassmannian(2, rng.randint(4, 5)),
    lambda rng: Quadric(2 * rng.randint(1, 2)),
)


def shared_tree(rng, depth=1):
    """A random tree whose bundles and blowups twist part objects that repeat.

    A leaf is a Fano threefold's opaque parts times one or two Tate factors,
    the first with a multiplicity above 1, so its parts repeat as objects.
    Inner nodes are products with a Tate factor on either side, sums,
    bundles of rank 3 or 4, and blowups of codimension 3 or 4 along a
    subtree.
    """
    if depth >= 3 or rng.random() < 0.25:
        e = Product(Fano3fold(rng.randint(0, 2), False), rng.choice(REPEATING_LEAVES)(rng))
        if rng.random() < 0.5:
            e = Product(e, Projective(rng.randint(1, 2)))
        return e
    kind = rng.randrange(4)
    sub = shared_tree(rng, depth + 1)
    if kind == 0:
        tate = rng.choice(REPEATING_LEAVES + (lambda rng: Projective(rng.randint(1, 3)),))(rng)
        return Product(sub, tate) if rng.random() < 0.5 else Product(tate, sub)
    if kind == 1:
        return DisjointUnion(sub, shared_tree(rng, depth + 1))
    if kind == 2:
        return ProjBundle(sub, rng.randint(3, 4))
    codim = rng.randint(3, 4)
    base = Product(Projective(codim), sub) if rng.random() < 0.5 else Projective(sub.dim + codim)
    return Blowup(base, sub, codim)


def parts_shown(m):
    """What a reader sees of ``m``'s opaque parts: values, text and JSON, in order."""
    return list(m.opaque), [p.text() for p in m.opaque], [p.to_json() for p in m.opaque]


def shape(m):
    """``m`` up to the order of its opaque parts: its Tate part and a count of the parts."""
    return m.tate, Counter((p.name, p.odd, p.twist) for p in m.opaque)


class TestMonoidalLaws:
    """Product and sum of motives are associative, commutative and distributive
    up to the order of the opaque parts, wherever no product has two opaque
    factors."""

    @pytest.mark.parametrize("seed", range(4))
    def test_laws_up_to_order(self, seed):
        rng = random.Random(1400 + seed)
        # small motives, so that a product of three stays quick
        pools = {False: [], True: []}
        while min(map(len, pools.values())) < 15:
            e = opaque_tree(rng) if rng.random() < 0.5 else random_tree(rng)
            got = outcome(motive_of, e)
            if got[0] == "value" and got[1].tate.rank <= 30 and len(got[1].opaque) <= 30:
                pools[bool(got[1].opaque)].append(e)
        with_opaque = 0
        for _ in range(60):
            # at most one opaque factor, in any place, or none
            trees = [rng.choice(pools[False]) for _ in range(3)]
            place = rng.randrange(4)
            if place < 3:
                trees[place] = rng.choice(pools[True])
                with_opaque += 1
            a, b, c = trees
            for left, right in (
                (Product(Product(a, b), c), Product(a, Product(b, c))),
                (Product(a, b), Product(b, a)),
                (Product(a, DisjointUnion(b, c)), DisjointUnion(Product(a, b), Product(a, c))),
                (Product(DisjointUnion(b, c), a), DisjointUnion(Product(b, a), Product(c, a))),
            ):
                assert shape(motive_of(left)) == shape(motive_of(right)), (render_expr(left), render_expr(right))
        assert with_opaque >= 30

    def test_order_follows_the_bracketing(self):
        # each factor's parts are listed in turn, twisted by the other
        # factor's exponents ascending, so regrouping reorders the parts
        left = motive_of(parse_expr("fano(1; false)*P(1)*P(2)"))
        right = motive_of(parse_expr("fano(1; false)*(P(1)*P(2))"))
        twists = [[p.twist for p in m.opaque if p.name == "M^1(X)"] for m in (left, right)]
        assert twists == [[0, 1, 2, 1, 2, 3], [0, 1, 1, 2, 2, 3]]
        assert shape(left) == shape(right) and left != right


class TestSharedParts:
    """Products twist each part object once per distinct exponent and share it."""

    @pytest.mark.parametrize("seed", range(6))
    def test_against_the_expanding_product(self, seed):
        rng = random.Random(1200 + seed)
        opaque_seen = 0
        for _ in range(60):
            e = opaque_tree(rng)
            want = outcome(expanding_motive, e)
            got = outcome(motive_of, e)
            if want[0] != "value":
                assert got == want
                continue
            want, got = want[1], got[1]
            assert got == want and hash(got) == hash(want)
            assert got.tate == want.tate and list(got.tate.terms.items()) == list(want.tate.terms.items())
            assert parts_shown(got) == parts_shown(want)
            assert got.text() == want.text() and repr(got) == repr(want)
            opaque_seen += bool(got.opaque)
        assert opaque_seen >= 10

    @pytest.mark.parametrize("seed", range(4))
    def test_products_either_side(self, seed):
        rng = random.Random(1300 + seed)
        # factors small enough that 150 oracle products stay quick; the
        # trees above reach larger ones
        motives = [motive_of(Fano3fold(1, False)), motive_of(Projective(2))]
        for _ in range(30):
            got = outcome(motive_of, opaque_tree(rng))
            if got[0] == "value" and got[1].tate.rank <= 40 and len(got[1].opaque) <= 120:
                motives.append(got[1])
        for _ in range(150):
            a, b = rng.choice(motives), rng.choice(motives)
            want = outcome(lambda _: expanding_mul(a, b), None)
            assert outcome(lambda _: a * b, None) == want
            if want[0] == "value":
                assert parts_shown(a * b) == parts_shown(want[1])
            assert outcome(lambda _: b * a, None) == outcome(lambda _: expanding_mul(b, a), None)

    @pytest.mark.parametrize("seed", range(3))
    def test_twisted_motive_is_the_product_with_a_power(self, seed):
        rng = random.Random(2410 + seed)
        for _ in range(40):
            got = outcome(motive_of, opaque_tree(rng))
            if got[0] != "value":
                continue
            m, r = got[1], rng.randint(-4, 4)
            # the sum of the one twist L^r
            twisted = _twist_sum(m, r, r + 1)
            want = expanding_mul(m, GeneralizedMotive(lefschetz(r)))
            assert twisted == want and parts_shown(twisted) == parts_shown(want)
            assert list(twisted.tate.terms.items()) == list(want.tate.terms.items())
            # one twisted object per part object, shared where ``m`` shares
            assert len(set(map(id, twisted.opaque))) == len(set(map(id, m.opaque)))

    def test_twisted_zero_is_the_part(self):
        p = OpaquePart("M^1(J)", True, 1)
        assert p.twisted(0) is p
        assert p.twisted(2) == OpaquePart("M^1(J)", True, 3)

    def test_parts_built_once_per_distinct_exponent(self):
        # twisted parts are built through ``Record._trusted``, which skips
        # ``__init__``, so the part objects are counted, not the calls
        m = motive_of(parse_expr("fano(1; false)*Gr(5,10)"))
        # the Fano's 3 parts, each twisted once by each of the 26 exponents
        # of Gr(5,10); the list-expanding product built 756
        assert len(m.opaque) == 756
        assert len({id(p) for p in m.opaque}) == len(set(m.opaque)) == 78
        # each product twists each part object of its other factor once per
        # distinct exponent: 78 objects times the 4 of P(3), then times the
        # 13 of Gr(3,7)
        m = motive_of(parse_expr("fano(1; false)*Gr(5,10)*P(3)*Gr(3,7)"))
        assert len(m.opaque) == 105840 and len({id(p) for p in m.opaque}) == 4056
        # a bundle twists each part object of its base once per twist
        m = motive_of(parse_expr("projbundle(fano(1; false)*Gr(5,10); 4)"))
        assert len(m.opaque) == 3024 and len({id(p) for p in m.opaque}) == 312

    @pytest.mark.parametrize("seed", range(4))
    def test_against_the_span_memo_oracle(self, seed):
        rng = random.Random(3300 + seed)
        sums_of_twists = 0
        for _ in range(20):
            e = shared_tree(rng)
            got, want = motive_of(e), span_memo_motive(e)
            assert got.tate == want.tate
            # the same part values in the same order, and the same entries
            # one shared object
            assert list(got.opaque) == list(want.opaque)
            assert identity_pattern(got.opaque) == identity_pattern(want.opaque)
            sums_of_twists += isinstance(e, (Blowup, ProjBundle))
        assert sums_of_twists >= 5

    def test_sum_of_twists_holds_its_parts_about_once(self):
        # 75600 parts in 7800 objects, each of the 78 objects of the product
        # twisted 100 times; listing the parts part-major and then reading
        # them back exponent-major held them twice at the peak
        e = parse_expr("projbundle(fano(1; false)*Gr(5,10); 100)")
        tracemalloc.start()
        try:
            m = motive_of(e)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(m.opaque) == 75600 and len(set(map(id, m.opaque))) == 7800
        assert peak <= 1.3 * kept, (peak, kept)

    def test_shared_parts_pickle_copy_and_compare(self):
        shared = motive_of(parse_expr("fano(1; false)*Gr(3,6)*P(2)"))
        assert len({id(p) for p in shared.opaque}) < len(shared.opaque)
        distinct = GeneralizedMotive(
            shared.tate, tuple(OpaquePart(p.name, p.odd, p.twist) for p in shared.opaque)
        )
        assert len({id(p) for p in distinct.opaque}) == len(distinct.opaque)
        assert shared == distinct and distinct == shared and hash(shared) == hash(distinct)
        for twin in (
            copy.copy(shared),
            copy.deepcopy(shared),
            pickle.loads(pickle.dumps(shared)),
        ):
            assert twin == distinct and repr(twin) == repr(distinct)
            assert parts_shown(twin) == parts_shown(distinct)
        assert pickle.loads(pickle.dumps(shared)) == pickle.loads(pickle.dumps(distinct))

    def test_no_part_outlives_its_product(self):
        def live_parts():
            gc.collect()
            return sum(isinstance(x, OpaquePart) for x in gc.get_objects())

        a = motive_of(parse_expr("fano(2; false)*P(3)"))
        b = motive_of(Grassmannian(3, 6))
        before = live_parts()
        for product in (lambda: a * b, lambda: b * a, lambda: (a * b) * b):
            m = product()
            assert m.opaque
            del m
            assert live_parts() == before


class TestTrustedCollections:
    """The catalog's trusted pieces and collections are what the checks build."""

    @staticmethod
    def assert_checked(collection):
        want = rebuilt_collection(collection)
        assert type(collection) is Collection and type(collection.pieces) is tuple
        assert all(type(p) is SODPiece for p in collection.pieces)
        assert collection == want and want == collection and hash(collection) == hash(want)
        assert repr(collection) == repr(want)
        assert collection.to_json() == want.to_json()
        assert Collection.from_json(collection.to_json()) == collection

    @pytest.mark.parametrize("seed", range(6))
    def test_every_collection_against_its_checked_rebuild(self, seed):
        rng = random.Random(1400 + seed)
        seen = 0
        for _ in range(50):
            e = random_tree(rng)
            for node in summands(e):
                got = outcome(lambda node: node._pieces(), node)
                if got[0] == "value":
                    pieces = got[1]
                    assert type(pieces) is tuple
                    self.assert_checked(Collection(pieces))
                    kuznetsov_pieces = node._kuznetsov(pieces)
                    assert type(kuznetsov_pieces) is tuple
                    self.assert_checked(Collection(kuznetsov_pieces))
            for variant in ("split", "kuznetsov"):
                got = outcome(lambda e: exceptional_collection_of(e, quadric_variant=variant), e)
                if got[0] == "value":
                    self.assert_checked(got[1])
                    seen += 1
        assert seen >= 20

    @pytest.mark.parametrize(
        "text", ["point", "P(0)", "P(5)", "Q(1)", "Q(2)", "Q(7)", "M0(3)", "M0(4)", "M0(5)", "fano(0; true)", "toric[1,3,3]"]
    )
    def test_each_catalog_entry(self, text):
        for variant in ("split", "kuznetsov"):
            self.assert_checked(exceptional_collection_of(parse_expr(text), quadric_variant=variant))

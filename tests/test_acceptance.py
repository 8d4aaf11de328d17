"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with ``pytest -v tests/test_acceptance.py``; each test is one criterion
and its verbose line is the pass/fail line for that criterion.
"""

import json
import random
import subprocess
import sys
from importlib import resources

from jsonschema import Draft202012Validator

from helpers import (
    conjugated_unit_iso,
    grassmannian_oracle,
    multisets_up_to,
    rand_morphism,
    rand_motive,
    trace_multiset,
)
from lefschetz.cli import main
from lefschetz.measures import chi_gs, chi_hd, hodge_tate, k0_class, K0Class
from lefschetz.orbit import (
    block_unit_iso,
    canonical_unit_iso,
    compose,
    decompose_via_orbit,
    identity_morphism,
)
from lefschetz.sod import FEC_FAILS_ODD, FEC_OK, fec_obstruction, solve_nc_ranks
from lefschetz.tate import TateMotive, lefschetz, poincare
from lefschetz.varieties import (
    DisjointUnion,
    Fano3fold,
    Grassmannian,
    ModuliM0,
    Point,
    Product,
    Projective,
    Quadric,
    Toric,
    exceptional_collection_of,
    fec_verdict,
    motive_of,
)

TORIC_P2 = Toric((1, 3, 3))
TORIC_P1XP1 = Toric((1, 4, 4))
TORIC_F1 = Toric((1, 4, 4))


def _catalog_with_collections():
    entries = [Point(), DisjointUnion(Point(), Point())]
    entries += [Projective(n) for n in range(7)]
    entries += [Quadric(d) for d in range(1, 7)]
    entries += [TORIC_P2, TORIC_P1XP1, TORIC_F1]
    entries += [ModuliM0(n) for n in (3, 4, 5)]
    entries += [Fano3fold(b, True) for b in range(4)]
    return entries


def _opaque_free_catalog():
    return _catalog_with_collections() + [
        Grassmannian(k, n) for n in range(2, 7) for k in range(1, n)
    ]


def test_criterion_1_catalog_regression():
    for n in range(7):
        gm = motive_of(Projective(n))
        assert gm.tate == TateMotive({i: 1 for i in range(n + 1)})
        assert gm.opaque == ()
    for d in range(1, 7):
        expected = {i: 1 for i in range(d + 1)}
        if d % 2 == 0:
            expected[d // 2] += 1
        assert motive_of(Quadric(d)).tate == TateMotive(expected)
    for n in range(2, 7):
        for k in range(1, n):
            assert motive_of(Grassmannian(k, n)).tate == TateMotive(
                grassmannian_oracle(k, n)
            )
    assert motive_of(TORIC_P2).tate == TateMotive({0: 1, 1: 1, 2: 1})
    assert motive_of(TORIC_P1XP1).tate == TateMotive({0: 1, 1: 2, 2: 1})
    assert motive_of(TORIC_F1).tate == TateMotive({0: 1, 1: 2, 2: 1})
    assert motive_of(ModuliM0(3)).tate == TateMotive({0: 1})
    assert motive_of(ModuliM0(4)).tate == TateMotive({0: 1, 1: 1})
    assert motive_of(ModuliM0(5)).tate == TateMotive({0: 1, 1: 5, 2: 1})
    for b in range(4):
        for flag in (True, False):
            gm = motive_of(Fano3fold(b, flag))
            assert gm.tate == TateMotive({0: 1, 1: b, 2: b, 3: 1})
            assert (len(gm.opaque) == 0) == flag
    # rank equals collection length wherever a collection is defined
    for e in _catalog_with_collections():
        assert len(exceptional_collection_of(e)) == motive_of(e).tate.rank
    print("PASS criterion 1: catalog motives exact, ranks match collection lengths")


def test_criterion_2_counterexample_discrimination():
    two_points = DisjointUnion(Point(), Point())
    line = Projective(1)
    assert motive_of(two_points).tate != motive_of(line).tate
    assert motive_of(two_points).tate == TateMotive({0: 2})
    assert motive_of(line).tate == TateMotive({0: 1, 1: 1})
    assert len(exceptional_collection_of(two_points)) == 2
    assert len(exceptional_collection_of(line)) == 2
    print("PASS criterion 2: distinct motives share collection length 2")


def test_criterion_3_orbit_algebra():
    rng = random.Random(2024)

    def motive(max_rank=5):
        while True:
            m = rand_motive(rng, min_exp=0, max_exp=5, max_distinct=3, max_mult=2)
            if m.rank <= max_rank:
                return m

    trials = 0
    while trials < 1000:
        x, y, z, w = motive(), motive(), motive(), motive()
        f = rand_morphism(rng, x, y)
        g = rand_morphism(rng, y, z)
        h = rand_morphism(rng, z, w)
        assert all(-5 <= r <= 5 for mor in (f, g, h) for r in mor.support)
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)
        assert compose(f, identity_morphism(x)) == f
        assert compose(identity_morphism(y), f) == f
        trials += 1
    for l in range(11):
        u, v = canonical_unit_iso(l)
        assert compose(v, u) == identity_morphism(TateMotive({0: 1}))
        assert compose(u, v) == identity_morphism(lefschetz(l))
    print("PASS criterion 3: 1000 composition triples and unit isos up to l=10")


def test_criterion_4_lift_round_trip():
    rng = random.Random(4)
    all_multisets = multisets_up_to(range(6), 6)
    assert len(all_multisets) == 924
    for multiset in all_multisets:
        m = TateMotive([(l, 1) for l in multiset])
        assert m.exponent_multiset() == multiset
        f, g = block_unit_iso(m)
        assert decompose_via_orbit(m, f, g, 5) == multiset
        assert trace_multiset(m, f, g) == multiset
        f2, g2 = conjugated_unit_iso(m, rng)
        assert decompose_via_orbit(m, f2, g2, 5) == multiset
        assert trace_multiset(m, f2, g2) == multiset
    print("PASS criterion 4: 924 multisets recovered, plain and conjugated")


def test_criterion_5_clifford_rank_arithmetic():
    for d in range(1, 8):
        if d % 2 == 0 and d > 6:
            continue
        total = motive_of(Quadric(d)).tate
        col = exceptional_collection_of(Quadric(d), quadric_variant="kuznetsov")
        solved = solve_nc_ranks(col, total)
        clifford = solved.pieces[0]
        assert clifford.label == "Cl0(Q_%d)" % d
        assert clifford.nc_rank == (1 if d % 2 else 2)
        assert sum(p.nc_rank for p in solved.pieces) == total.rank
    # solved all-exceptional collections also add up
    for e in _catalog_with_collections():
        solved = solve_nc_ranks(exceptional_collection_of(e), motive_of(e).tate)
        assert sum(p.nc_rank for p in solved.pieces) == motive_of(e).tate.rank
    print("PASS criterion 5: Clifford rank 1 (odd d), 2 (even d), totals consistent")


def test_criterion_6_fec_obstructions():
    for e in _catalog_with_collections():
        length = len(exceptional_collection_of(e))
        verdict = fec_obstruction(poincare(motive_of(e).tate), length)
        assert verdict.status == FEC_OK
        assert verdict.min_length <= length
    for b in range(4):
        assert fec_verdict(Fano3fold(b, False)).status == FEC_FAILS_ODD
    print("PASS criterion 6: ok with min length within bounds; odd parts fail")


def test_criterion_7_measures():
    for e in _opaque_free_catalog():
        cls = k0_class(e)
        assert chi_gs(cls) == motive_of(e).tate
        assert hodge_tate(chi_hd(cls))
    rng = random.Random(77)

    def rand_class(effective):
        lo = 0 if effective else -3
        return K0Class(
            {
                rng.randint(-2, 5): rng.randint(lo, 4)
                for _ in range(rng.randint(0, 4))
            }
        )

    for _ in range(1000):
        a, b = rand_class(True), rand_class(True)
        assert chi_gs(a + b) == chi_gs(a) + chi_gs(b)
        assert chi_gs(a * b) == chi_gs(a) * chi_gs(b)
        va, vb = rand_class(False), rand_class(False)
        assert chi_hd(va + vb) == chi_hd(va) + chi_hd(vb)
        assert chi_hd(va * vb) == chi_hd(va) * chi_hd(vb)
    print("PASS criterion 7: measures commute with the catalog and are ring maps")


def test_criterion_8_cross_checks():
    from lefschetz.varieties import Blowup

    assert (
        motive_of(Toric((1, 4, 4))).tate
        == motive_of(Blowup(Projective(2), Point(), 2)).tate
    )
    for n in range(1, 6):
        assert motive_of(Grassmannian(1, n + 1)).tate == motive_of(Projective(n)).tate
    rng = random.Random(8)
    pool = _opaque_free_catalog()
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        assert poincare(motive_of(Product(a, b)).tate) == poincare(
            motive_of(a).tate
        ) * poincare(motive_of(b).tate)
    print("PASS criterion 8: blowup/toric and Grassmannian/projective identities hold")


def test_criterion_9_cli_golden(capsys, tmp_path):
    schema = json.loads(
        resources.files("lefschetz").joinpath("schemas/cli_output.json").read_text()
    )
    validator = Draft202012Validator(schema)

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    # byte-exact table mode with the stated exit statuses
    assert run("motive", "P(3)") == (0, "1 + L + L^2 + L^3\n")
    assert run("orbit-demo", "P(1)") == (0, "{0, 1}\n")
    assert run("check-fec", "fano(1; odd_trivial=false)") == (
        1,
        "fails-odd-vanishing\n",
    )

    # JSON mode is schema-valid for every verb
    collection = tmp_path / "kuznetsov_q3.json"
    collection.write_text(
        json.dumps(
            {
                "pieces": [
                    {"label": "Cl0(Q_3)", "kind": "opaque"},
                    {"label": "O(-2)", "kind": "exceptional"},
                    {"label": "O(-1)", "kind": "exceptional"},
                    {"label": "O", "kind": "exceptional"},
                ]
            }
        )
    )
    json_invocations = [
        (0, ["motive", "fano(1; odd_trivial=false)", "--json"]),
        (0, ["poincare", "Gr(2,4)", "--json"]),
        (0, ["hodge", "Q(2)", "--json"]),
        (0, ["k0", "P(2)", "--json"]),
        (0, ["check-fec", "Q(4)", "--json"]),
        (1, ["check-fec", "fano(1; odd_trivial=false)", "--json"]),
        (0, ["sod-solve", "Q(3)", "--collection", str(collection), "--json"]),
        (0, ["orbit-demo", "Q(2)", "--json"]),
    ]
    for expected_code, argv in json_invocations:
        code, out = run(*argv)
        assert code == expected_code, argv
        validator.validate(json.loads(out))

    # input errors take exit status 2
    assert run("motive", "P(")[0] == 2
    assert run("motive", "Q(0)")[0] == 2

    # the module is runnable as a script, same golden output
    proc = subprocess.run(
        [sys.executable, "-m", "lefschetz.cli", "orbit-demo", "P(1)"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "{0, 1}\n")
    print("PASS criterion 9: CLI goldens byte-exact, JSON schema-valid, exit codes ok")

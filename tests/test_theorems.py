"""The paper's two theorems as properties of generated catalog trees.

PAPER.md proves two statements that every catalog answer must respect:

* FEC implies Tate: if the derived category has a full exceptional
  collection, the motive is a direct sum of powers of the Lefschetz motive;
* Tate plus SOD implies sums of units: if the motive is such a sum and the
  derived category has a semi-orthogonal decomposition, the noncommutative
  motive of each piece is a direct sum of units.

Each test checks one of them on the trees of ``catalog_trees``, a strategy
built from ``varieties._KINDS`` and each class's ``_fields``, so a new node
class is generated with no edit here.  On the same trees, the paper's
application holds in the simplified form of Dubrovin's conjecture (a
collection makes the Hodge-Deligne measure diagonal, with as many objects
as Hodge numbers, and the measure into Tate motives gives the motive back),
the orbit lift recovers the exponents and refuses a perturbed inverse, the
converse of the first theorem refuses every tree with an odd opaque part,
and every verb of the CLI prints the same answer in text and in ``--json``
mode.  The profile in ``conftest.py``
derandomizes every run, so a failure is found again on the next one; a
counterexample is a catalog bug, not a reason to narrow the strategy.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from importlib import resources

import pytest
from hypothesis import example, given, reject, settings, target
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from helpers import collection_length_verdict, outcome, random_tree
from lefschetz.cli import main
from lefschetz.exprlang import parse_expr, render_expr
from lefschetz.measures import chi_gs, chi_hd, hodge_numbers, hodge_tate, k0_class
from lefschetz.orbit import NotAnIsomorphismError, OrbitMorphism, block_unit_iso, decompose_via_orbit
from lefschetz.sod import FEC_FAILS_ODD, OPAQUE, Collection, SODPiece, UnderdeterminedError, solve_nc_ranks
from lefschetz.varieties import (
    CollectionUnavailableError,
    DisjointUnion,
    Fano3fold,
    InvalidParameterError,
    OpaqueMotiveError,
    Product,
    Quadric,
    VarietyExpr,
    _KINDS,
    _fold,
    dimension_of,
    exceptional_collection_of,
    fec_verdict,
    motive_of,
)

# small values for each field type, so that every tree evaluates quickly
_VALUES = {
    int: st.integers(0, 5),
    bool: st.booleans(),
    tuple: st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
}

# enough for a leaf with one valid parameter in five to build nearly always
_TRIES = 10


@st.composite
def _nodes(draw, cls, children):
    """A node of class ``cls``, each child drawn from ``children``.

    The children are drawn first and the other fields up to ``_TRIES``
    times, until the constructor takes them.  If it never does, an inner
    node gives way to its first child, and a leaf rejects the example.
    """
    kids = {name: draw(children) for name, typ in cls._fields if typ is VarietyExpr}
    for _ in range(_TRIES):
        args = [kids[name] if name in kids else draw(_VALUES[typ]) for name, typ in cls._fields]
        try:
            return cls(*args)
        except InvalidParameterError:
            pass
    if kids:
        return kids[cls._children[0]]
    reject()


catalog_trees = st.recursive(
    st.one_of([_nodes(cls, None) for cls in _KINDS.values() if not cls._children]),
    lambda children: st.one_of([_nodes(cls, children) for cls in _KINDS.values() if cls._children]),
    max_leaves=6,
)

# sums of one to three trees: a collection is the join of its summands'
# collections, and a sum can hold more than one quadric
catalog_sums = st.lists(catalog_trees, min_size=1, max_size=3).map(lambda trees: reduce(DisjointUnion, trees))


def _split_collection(e):
    """The catalog's collection of ``e``, or None where it has none.

    A toric variety whose cone counts give a negative Betti number raises
    InvalidParameterError, as ``motive_of`` does.
    """
    try:
        return exceptional_collection_of(e)
    except (CollectionUnavailableError, InvalidParameterError):
        return None


def test_the_default_profile_is_derandomized():
    assert settings.default.derandomize


# every catalog entry with a collection, so that each is checked on every run
EVERY_COLLECTION = parse_expr("point + P(2) + Q(3) + Q(4) + toric[1,4,4] + M0(3) + M0(4) + M0(5) + fano(2; true)")


@given(catalog_trees)
@example(EVERY_COLLECTION)
def test_fec_implies_tate(e):
    collection = _split_collection(e)
    if collection is None:
        return
    m = motive_of(e)
    assert m.is_tate
    assert len(collection) == m.tate.rank
    assert fec_verdict(e).ok


@given(catalog_sums)
@example(parse_expr("Q(2)"))
@example(parse_expr("P(1) + Q(3)"))
@example(EVERY_COLLECTION)
def test_tate_plus_sod_implies_sums_of_units(e):
    split = _split_collection(e)
    if split is None:
        return
    total = motive_of(e).tate
    # one opaque piece of unknown rank in place of each contiguous block
    pieces = split.pieces
    for start in range(len(pieces)):
        for stop in range(start + 1, len(pieces) + 1):
            unknown = (SODPiece("A", OPAQUE),)
            solved = solve_nc_ranks(Collection(pieces[:start] + unknown + pieces[stop:]), total)
            assert solved.pieces[start].nc_rank == stop - start
            assert solved.pieces[:start] + solved.pieces[start + 1:] == pieces[:start] + pieces[stop:]
    # the Kuznetsov collection has one piece of unknown rank per quadric summand
    quadrics = [s for s in _fold(e, lambda node, *parts: node._summands(*parts)) if type(s) is Quadric]
    # steer the search towards sums with more quadrics, where the solve must refuse
    target(float(len(quadrics)), label="quadric summands")
    kuznetsov = exceptional_collection_of(e, quadric_variant="kuznetsov")
    if not quadrics:
        assert kuznetsov == split
    elif len(quadrics) == 1:
        d = quadrics[0].d
        [clifford] = [p for p in solve_nc_ranks(kuznetsov, total).pieces if p.kind == OPAQUE]
        assert clifford.label == "Cl0(Q_%d)" % d
        assert clifford.nc_rank == (1 if d % 2 else 2)
    else:
        with pytest.raises(UnderdeterminedError):
            solve_nc_ranks(kuznetsov, total)


# Dubrovin's conjecture, simplified: the paper's application
@given(catalog_trees)
@example(EVERY_COLLECTION)
def test_a_collection_makes_the_measures_tate(e):
    collection = _split_collection(e)
    if collection is None:
        return
    c = k0_class(e)
    assert hodge_tate(chi_hd(c))
    assert chi_gs(c) == motive_of(e).tate
    # as many objects in the collection as Hodge numbers, all on the diagonal
    table = hodge_numbers(motive_of(e).tate)
    assert all(p == q for p, q in table) and sum(table.values()) == len(collection)


def _tate_or_none(e):
    """The Tate motive of ``e``, or None where it has opaque parts or no motive."""
    try:
        m = motive_of(e)
    except (OpaqueMotiveError, InvalidParameterError):
        # two opaque factors, or a fan with a negative Betti number
        return None
    return None if m.opaque else m.tate


@given(catalog_trees, st.integers(0, 2**16))
@example(EVERY_COLLECTION, 0)
@example(parse_expr("Gr(2,5) * P(2)"), 29)
def test_orbit_lift_recovers_the_exponents(e, entry):
    m = _tate_or_none(e)
    if m is None:
        return
    dim = dimension_of(e)
    f, g = block_unit_iso(m)
    assert decompose_via_orbit(m, f, g, dim) == m.exponent_multiset()
    # g's source is units, so every entry sits on the delta pattern, at the
    # grade of its row's exponent, inside the window [0..dim]
    i, j = divmod(entry % (m.rank * m.rank), m.rank)
    rows = [list(row) for row in g.rows]
    rows[i][j] += g.den
    # den 1 and integer rows: the moved rows are still canonical
    moved = OrbitMorphism._trusted(g.source, g.target, g.den, tuple(map(tuple, rows)))
    with pytest.raises(NotAnIsomorphismError):
        decompose_via_orbit(m, f, moved, dim)


# trees with an odd opaque part: a catalog tree beside or times a Fano
# threefold whose odd part is not asserted trivial
opaque_trees = st.builds(
    lambda tree, b, join: join(tree, Fano3fold(b, False)),
    catalog_trees,
    st.integers(0, 5),
    st.sampled_from([DisjointUnion, Product, lambda tree, fano: DisjointUnion(fano, tree)]),
)


# the converse of the first theorem (criterion 2)
@given(st.one_of(catalog_trees, opaque_trees))
@example(parse_expr("fano(1; false)"))
@example(parse_expr("P(2) + fano(0; false) * Gr(2,4)"))
@example(parse_expr("projbundle(fano(2; false); 2)"))
def test_an_odd_opaque_part_has_no_collection(e):
    try:
        m = motive_of(e)
    except (OpaqueMotiveError, InvalidParameterError):
        return
    if not m.opaque:
        return
    assert all(part.odd for part in m.opaque)
    with pytest.raises(CollectionUnavailableError):
        exceptional_collection_of(e)
    verdict = fec_verdict(e)
    assert not verdict.ok and verdict.status == FEC_FAILS_ODD


def _assert_verdict_as_the_oracle(e):
    # the verdict runs first, so the oracle's collection memo cannot help it
    assert outcome(fec_verdict, e) == outcome(collection_length_verdict, e)


# unions that mix summands with and without a collection, opaque Fano
# threefolds, and toric varieties with a negative Betti number
@given(catalog_sums)
@example(EVERY_COLLECTION)
@example(parse_expr("P(1) + Gr(2,4) + Q(4)"))
@example(parse_expr("fano(1; false)"))
@example(parse_expr("P(1) + fano(1; false) * fano(2; false)"))
@example(parse_expr("P(2) + fano(0; false) + Q(3)"))
@example(parse_expr("fano(2; true) + blowup(P(3); point; 3)"))
@example(parse_expr("toric[1,1,3]"))
@example(parse_expr("P(1) + toric[1,1,3] + Gr(2,4)"))
def test_verdict_reads_the_bound_the_collection_gives(e):
    _assert_verdict_as_the_oracle(e)


@pytest.mark.parametrize("seed", range(4))
def test_verdict_on_random_trees_as_the_collection_gives(seed):
    rng = random.Random(3400 + seed)
    for _ in range(60):
        _assert_verdict_as_the_oracle(random_tree(rng))


VALIDATOR = Draft202012Validator(
    json.loads(resources.files("lefschetz").joinpath("schemas/cli_output.json").read_text())
)


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(list(argv))
    return status, out.getvalue(), err.getvalue()


def _text_of_json(verb, doc):
    """The text that ``verb`` prints, read off its JSON document."""
    if verb == "hodge":
        table = doc["hodge_numbers"]
        return "\n".join("h^{%s,%s} = %d" % (*pq.split(","), c) for pq, c in table.items())
    if verb == "check-fec":
        return "ok (min length %d)" % doc["min_length"] if doc["verdict"] == "ok" else doc["verdict"]
    if verb == "orbit-demo":
        return "{%s}" % ", ".join(map(str, doc["exponents"]))
    return doc["text"]


# each verb builds only the form it prints, on its own branch: both must
# give one answer, one exit status and one diagnostic
@given(catalog_trees)
@example(parse_expr("fano(1; false) * P(1)"))
@example(parse_expr("toric[1,1,3]"))
@example(EVERY_COLLECTION)
def test_text_and_json_forms_agree(e):
    expr = render_expr(e)
    for verb in ("motive", "poincare", "hodge", "k0", "check-fec", "orbit-demo"):
        status, text, err = _cli(verb, expr)
        json_status, doc, json_err = _cli(verb, expr, "--json")
        assert (status, err) == (json_status, json_err), verb
        if not doc:
            assert text == "" and status in (1, 2) and err.startswith("error: "), verb
            continue
        doc = json.loads(doc)
        VALIDATOR.validate(doc)
        assert (doc["verb"], doc["expr"]) == (verb, expr)
        assert text == _text_of_json(verb, doc) + "\n", verb

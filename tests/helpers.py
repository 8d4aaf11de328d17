"""Shared exact-arithmetic helpers and independent oracles for the tests.

Everything here is deliberately written from scratch (straight Gaussian
elimination, brute-force partition counting, naive triple-loop products) so
the expected values do not flow through the code paths under test.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import comb, gcd
from operator import mul
from pathlib import Path
from typing import Optional

from lefschetz import sod, varieties
from lefschetz.exprlang import _PUNCT, _TOKEN, ParseError, SemanticError, _tokenize
from lefschetz.orbit import (
    NotAnIsomorphismError,
    OrbitMorphism,
    SupportViolationError,
    block_unit_iso,
    compose,
    identity_morphism,
)
from lefschetz.sod import EXCEPTIONAL, FEC_OK, OPAQUE, _is_count
from lefschetz.tate import INT_TOO_LONG, MAX_INT_DIGITS, TateMotive, direct_sum, lefschetz, poincare, tensor
from lefschetz.varieties import (
    Blowup,
    CollectionUnavailableError,
    DisjointUnion,
    Fano3fold,
    Grassmannian,
    InvalidParameterError,
    ModuliM0,
    OpaqueMotiveError,
    Point,
    Product,
    ProjBundle,
    Projective,
    Quadric,
    Toric,
    VarietyExpr,
    _KINDS,
    _fold,
    exceptional_collection_of,
    motive_of,
)

# The exact linear algebra has one copy: the benchmark's independent oracle,
# which imports nothing from ``lefschetz``.  ``perfbench`` is no package, so
# the file is loaded by path.
_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
)
_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracle)
invert, matmul = _oracle.invert, _oracle.matmul


def fraction_matmul(a, b, ncols):
    """a @ b over Fractions for a b with ncols columns; b may have no rows.

    The dense product ``orbit.compose`` used before morphisms were stored
    as integer rows over one denominator.
    """
    cols = tuple(zip(*b)) if b else ((),) * ncols
    zero = Fraction(0)
    return tuple(tuple(sum(map(mul, row, col), zero) for col in cols) for row in a)


def graded_compose(g, f):
    """``g after f`` as grade -> matrix, by graded convolution.

    The grade-l matrix is the sum over r of g_{l-r} @ f_r, built from
    per-grade products of ``.components``; all-zero grades are dropped.
    """
    acc = {}
    for r, fr in f.components.items():
        for s, gs in g.components.items():
            prod = matmul(gs, fr)
            l = r + s
            if l in acc:
                acc[l] = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(acc[l], prod)]
            else:
                acc[l] = prod
    return {
        l: tuple(map(tuple, mat))
        for l, mat in sorted(acc.items())
        if any(x for row in mat for x in row)
    }


def rand_invertible(rng, n):
    """A random invertible matrix over Q together with its exact inverse."""
    while True:
        mat = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        inv = invert(mat)
        if inv is not None:
            return mat, inv


def integer_inverse(mat):
    """``(adj, d)`` with mat^-1 = adj / d for an integer matrix, None when singular.

    Fraction-free Gauss-Jordan elimination (Bareiss): every division by the
    previous pivot is exact, and at the end the left block is d times the
    identity, d = +-det(mat).
    """
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p, pivot_row = aug[col][col], aug[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(aug[r], pivot_row)]
        prev = p
    return [row[n:] for row in aug], prev


def rand_entry(rng):
    if rng.random() < 0.5:
        return Fraction(0)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def rand_motive(rng, min_exp=0, max_exp=5, max_distinct=3, max_mult=2):
    terms = {}
    for _ in range(rng.randint(0, max_distinct)):
        terms[rng.randint(min_exp, max_exp)] = rng.randint(1, max_mult)
    return TateMotive(terms)


def rand_morphism(rng, source, target):
    """Random morphism: every delta-allowed slot gets a random entry."""
    src = source.exponent_multiset()
    tgt = target.exponent_multiset()
    grades = {te - se for se in src for te in tgt}
    comps = {}
    for r in grades:
        comps[r] = [[rand_entry(rng) if te - r == se else 0 for se in src] for te in tgt]
    return OrbitMorphism(source, target, comps)


def _int_matmul(a, b):
    """a @ b for integer matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def canonical_morphism(source, target, den, rows):
    """The morphism ``rows / den``, brought to lowest terms over den > 0."""
    common = gcd(den, *(x for row in rows for x in row))
    if den < 0:
        common = -common
    rows = tuple(tuple(x // common for x in row) for row in rows)
    return OrbitMorphism._trusted(source, target, den // common, rows)


def conjugated_unit_iso(m, rng):
    """block_unit_iso twisted by a random basis change on the unit side.

    The same morphisms, from the same ``rng`` draws, as
    ``fraction_conjugated_unit_iso``, built as integer rows: the basis
    change a is an integer matrix and its inverse an integer matrix over
    one denominator, so the products need no Fraction.
    """
    f, g = block_unit_iso(m)
    n = m.rank
    while True:
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        inv = integer_inverse(a)
        if inv is not None:
            break
    adj, d = inv
    # f2 = a f and g2 = g a^-1; a acts on the unit side, all of whose
    # exponents are 0, so every product keeps the delta pattern
    f2 = canonical_morphism(m, f.target, f.den, _int_matmul(a, f.rows))
    g2 = canonical_morphism(g.source, m, g.den * d, _int_matmul(g.rows, adj))
    return f2, g2


def fraction_conjugated_unit_iso(m, rng):
    """``conjugated_unit_iso`` as it was: per-grade dense Fraction products."""
    f, g = block_unit_iso(m)
    n = m.rank
    a, a_inv = rand_invertible(rng, n)
    f2 = OrbitMorphism(
        m, f.target, {r: matmul(a, mat) for r, mat in f.components.items()}
    )
    g2 = OrbitMorphism(
        g.source, m, {s: matmul(mat, a_inv) for s, mat in g.components.items()}
    )
    return f2, g2


def trace_multiset(m, f, g):
    """The exponents of m read off as traces, as the paper reads the lift.

    The multiplicity of L^l is the trace of the idempotent block
    f_{-l} @ g_l: the sum over the summands k of m with exponent l of
    (G F)[k][k], with F = f.matrix and G = g.matrix.
    """
    a, b = f.matrix, g.matrix
    traces = {}
    for k, l in enumerate(m.exponent_multiset()):
        traces[l] = traces.get(l, 0) + sum(a[i][k] * b[k][i] for i in range(len(a)))
    return tuple(l for l, tr in traces.items() for _ in range(int(tr)))


def scan_and_compose_lift(m, f, g, dim):
    """``decompose_via_orbit`` after its endpoint, unit and rank checks, as it was.

    The window is checked by scanning every entry of f and of g for its
    grade, and the inverse by comparing the canonical composite ``g after
    f`` with the identity morphism of m.  Call it only on input that passes
    the checks before those two: f: m -> U and g: U -> m for a sum U of
    rank(m) unit objects, and an integer dim >= 0.
    """
    bad_f = [r for r in f.support if not -dim <= r <= 0]
    bad_g = [s for s in g.support if not 0 <= s <= dim]
    if bad_f or bad_g:
        raise SupportViolationError(
            "support outside the dimension window [-%d..0]/[0..%d]: f at %r, g at %r"
            % (dim, dim, bad_f, bad_g)
        )
    if compose(g, f) != identity_morphism(m):
        raise NotAnIsomorphismError("g after f is not the identity of m")
    return m.exponent_multiset()


def row_product_is_inverse(g, f):
    """``orbit._is_inverse`` as it was: rows(g) rows(f) = den(g) den(f) I, row by row.

    Each row of the integer product is built as ``compose`` builds it,
    skipping the zero entries of g, and compared with den(g) den(f) e_i as
    soon as it is done; the first row that differs returns False.
    """
    scale = g.den * f.den
    width = f.source.rank
    f_rows = f.rows
    for i, g_row in enumerate(g.rows):
        acc = [0] * width
        for g_ik, f_row in zip(g_row, f_rows):
            if g_ik:
                acc = [a + g_ik * b for a, b in zip(acc, f_row)]
        acc[i] -= scale
        if any(acc):
            return False
    return True


def unimodular_conjugated_unit_iso(m, rng, size, steps):
    """block_unit_iso twisted by an integer basis change a with det 1.

    a is a product of ``steps`` elementary matrices I + t e_ij, t drawn
    from +-[size, 2 size), so a^-1 is an integer matrix too, kept alongside
    by one inverse column operation per step, and the pair stays over den 1.
    """
    f, g = block_unit_iso(m)
    n = m.rank
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    a_inv = [row[:] for row in a]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-1, 1)) * rng.randrange(size, 2 * size)
        # a <- (I + t e_ij) a adds t times row j to row i; a^-1 <- a^-1 (I - t e_ij)
        a[i] = [x + t * y for x, y in zip(a[i], a[j])]
        for row in a_inv:
            row[j] -= t * row[i]
    f2 = OrbitMorphism._trusted(m, f.target, 1, tuple(map(tuple, _int_matmul(a, f.rows))))
    g2 = OrbitMorphism._trusted(g.source, m, 1, tuple(map(tuple, _int_matmul(g.rows, a_inv))))
    return f2, g2


@lru_cache(maxsize=None)
def _partitions(total, parts, largest):
    """Partitions of ``total`` into at most ``parts`` parts, each <= ``largest``."""
    if total == 0:
        return 1
    if parts == 0 or largest == 0:
        return 0
    return sum(
        _partitions(total - first, parts - 1, first)
        for first in range(1, min(largest, total) + 1)
    )


def gaussian_binomial_pascal(n, k):
    """Coefficients of [n choose k]_q as exponent -> coefficient, by q-Pascal.

    The rule ``varieties._gaussian_binomial`` used before it took the
    product formula.
    """
    # row[j] holds [i choose j]_q while i runs from 0 to n
    row = [{0: 1}] + [{} for _ in range(k)]
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            # [i j]_q = [i-1 j-1]_q + q^j [i-1 j]_q
            acc = dict(row[j - 1])
            for e, c in row[j].items():
                acc[e + j] = acc.get(e + j, 0) + c
            row[j] = acc
    return row[k]


def grassmannian_oracle(k, n):
    """Coefficient of L^j counts partitions of j inside a k x (n-k) box."""
    box = n - k
    out = {}
    for j in range(k * box + 1):
        c = _partitions(j, k, box)
        if c:
            out[j] = c
    return out


def multisets_up_to(universe, max_size):
    """All non-decreasing tuples over ``universe`` of size 0..max_size."""
    universe = sorted(universe)
    out = [()]

    def extend(prefix, start):
        if len(prefix) == max_size:
            return
        for i in range(start, len(universe)):
            longer = prefix + (universe[i],)
            out.append(longer)
            extend(longer, i)

    extend((), 0)
    return out


def fresh_dimension(e):
    """``dimension_of`` as it was before it kept its answer on the node.

    Folds the whole tree on every call and stores nothing.  The library ran
    this fold, with a memo on the node, until each node came to store its
    dimension as ``dim`` when it is built, which replaced both; the fold
    stays as the oracle that ``dim`` is checked against.
    """
    return _fold(e, lambda node, *dims: node._dimension(*dims))


def fresh_motive(e):
    """``motive_of`` as it was before it kept its answer on the node."""
    return _fold(e, lambda node, *parts: node._motive(*parts))


def _summand_pieces(node, variant):
    """One summand's pieces for ``variant``, by the catalog's per-class table.

    The library once asked each catalog class for a whole collection per
    variant, and every class but ``Quadric`` ignored the variant; each
    summand now lists its split pieces once and only a quadric rewrites
    them for the Kuznetsov form.  The old table, restated here through the
    checking constructors, is the oracle.
    """

    def bundles(first):
        return [sod.SODPiece("O" if k == 0 else "O(%d)" % k, EXCEPTIONAL, 1) for k in range(first, 1)]

    def generic(count):
        return [sod.SODPiece("E%d" % i, EXCEPTIONAL, 1) for i in range(1, count + 1)]

    cls = type(node)
    if cls is varieties.Point:
        return [sod.SODPiece("O", EXCEPTIONAL, 1)]
    if cls is varieties.Projective:
        return bundles(-node.n)
    if cls is varieties.Quadric:
        d = node.d
        if variant == "kuznetsov":
            head = [sod.SODPiece("Cl0(Q_%d)" % d, OPAQUE, None)]
        elif d % 2 == 1:
            head = [sod.SODPiece("Sigma(%d)" % -d, EXCEPTIONAL, 1)]
        else:
            head = [sod.SODPiece("Sigma+(%d)" % -d, EXCEPTIONAL, 1), sod.SODPiece("Sigma-(%d)" % -d, EXCEPTIONAL, 1)]
        return head + bundles(1 - d)
    if cls is varieties.Toric:
        # a negative Betti number raises InvalidParameterError here
        return generic(fresh_motive(node).tate.rank)
    if cls is varieties.ModuliM0:
        return bundles(3 - node.n) if node.n <= 4 else generic(7)
    if cls is varieties.Fano3fold:
        if not node.odd_trivial:
            raise varieties.CollectionUnavailableError(
                "odd-weight summands were not asserted trivial, so no full "
                "exceptional collection is available"
            )
        return generic(2 + 2 * node.b)
    raise varieties.CollectionUnavailableError("no collection in the catalog for %s" % cls.__name__)


def fresh_collection(e, variant):
    """``exceptional_collection_of(e, quadric_variant=variant)`` from its own walk.

    The library once walked the summands once per variant and asked every
    summand for that variant's pieces; it now fills both variants from one
    walk.  This per-variant fold over the per-class table of
    ``_summand_pieces``, which keeps nothing, is the oracle.
    """
    pieces = []
    for summand in _fold(e, lambda node, *parts: node._summands(*parts)):
        pieces += _summand_pieces(summand, variant)
    return sod.Collection(tuple(pieces))


def _random_toric(rng):
    """Cone counts from random Betti numbers, or now and then a negative one."""
    if rng.random() < 0.1:
        return Toric((1, 1, rng.randint(1, 3)))
    n = rng.randint(1, 3)
    betti = [rng.randint(0, 3) for _ in range(n)] + [1]
    return Toric(
        tuple(sum(b * comb(j, n - k) for j, b in enumerate(betti)) for k in range(n + 1))
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


def collection_length_verdict(e):
    """``varieties.fec_verdict`` as it was while it built the collection.

    The bound was the length of the catalog's split collection, and None
    where ``exceptional_collection_of`` refused; the verdict now reads the
    same bound off the Tate rank, by the paper's first theorem, and builds
    no collection.
    """
    gm = motive_of(e)
    if gm.opaque:
        return sod.FecVerdict(sod.FEC_FAILS_ODD)
    betti = poincare(gm.tate)
    try:
        bound = len(exceptional_collection_of(e))
    except CollectionUnavailableError:
        bound = None
    return sod.fec_obstruction(betti, bound)


def pairwise_tensor(a, b):
    """``a * b`` for two ``TateMotive``, as the library once built every one.

    Each pair of terms adds its product to the sum of the two exponents, in
    a Python loop over all pairs; the library now packs dense factors into
    one integer product each.
    """
    acc = {}
    for k, c in a.terms.items():
        for l, d in b.terms.items():
            acc[k + l] = acc.get(k + l, 0) + c * d
    return TateMotive(acc)


def expanding_mul(a, b):
    """``a * b`` for two ``varieties.GeneralizedMotive``, as the library once built it.

    Each opaque part is twisted once per summand of the other factor, its
    exponent multiset written out, and every twist is a new part; the
    library now twists each part object once per distinct exponent and
    repeats the result.
    """
    if a.opaque and b.opaque:
        raise OpaqueMotiveError("cannot multiply two motives that both have opaque summands")
    parts = [
        varieties.OpaquePart(p.name, p.odd, p.twist + l)
        for p in a.opaque
        for l in b.tate.exponent_multiset()
    ]
    parts += [
        varieties.OpaquePart(p.name, p.odd, p.twist + l)
        for p in b.opaque
        for l in a.tate.exponent_multiset()
    ]
    return varieties.GeneralizedMotive(pairwise_tensor(a.tate, b.tate), tuple(parts))


def expanding_motive(e):
    """``motive_of(e)`` with every product of motives through ``expanding_mul``.

    That is each product node, each ``center * L^i`` of a blowup and each
    ``base * L^i`` of a bundle, with the catalog's formulas written out
    again here, added one twist at a time; every other node gives its own
    ``_motive``.  The library builds each blowup and bundle once, as
    ``varieties._twist_sum``: one product of the Tate part with
    ``L^lo + ... + L^(hi-1)`` and one list of twisted parts.
    """

    def step(node, *children):
        if isinstance(node, Product):
            return expanding_mul(*children)
        if isinstance(node, Blowup):
            out, center = children
            for i in range(1, node.codim):
                out = out + expanding_mul(center, varieties.GeneralizedMotive(lefschetz(i)))
            return out
        if isinstance(node, ProjBundle):
            base = out = children[0]
            for i in range(1, node.fiber_rank):
                out = out + expanding_mul(base, varieties.GeneralizedMotive(lefschetz(i)))
            return out
        return node._motive(*children)

    return _fold(e, step)


def span_memo_twisted_parts(parts, tate):
    """``parts`` times ``tate``, as ``varieties._twisted_parts`` once built it.

    Each part in turn, its exponents ascending, each repeated by its
    multiplicity.  ``spans`` keeps where each part object's run of twists
    lies in ``out``, keyed on the object's identity, so a part object that
    ``parts`` repeats copies its run instead of being twisted again.  The
    library now reads every run from one table built before the list.
    """
    if not parts:
        return ()
    terms = tate.terms.items()
    spans = {}
    out = []
    for p in parts:
        span = spans.get(id(p))
        if span is None:
            start = len(out)
            for l, c in terms:
                out += repeat(p.twisted(l), c)
            spans[id(p)] = slice(start, len(out))
        else:
            out += out[span]
    return tuple(out)


def strided_twist_sum(m, lo, hi):
    """m L^lo + ... + m L^(hi-1), as ``varieties._twist_sum`` once built it.

    The parts come part-major from ``span_memo_twisted_parts``, and every
    (hi - lo)-th entry from offset t is read back as the parts twisted by
    lo + t, so the result lists them exponent-major.  That held the parts
    three times at its peak; the library now reads entry t of each part's
    run from its table.
    """
    k = hi - lo
    if k == 1 and not lo:
        return m
    run = TateMotive(dict.fromkeys(range(lo, hi), 1))
    parts = span_memo_twisted_parts(m.opaque, run)
    parts = tuple(chain.from_iterable([parts[t::k] for t in range(k)]))
    tate = m.tate.twisted(lo) if k == 1 else tensor(m.tate, run)
    return varieties.GeneralizedMotive(tate, parts)


def span_memo_motive(e):
    """``motive_of(e)`` with products, blowups and bundles built as they once were.

    Products list their parts through ``span_memo_twisted_parts``, and
    blowups and bundles through ``strided_twist_sum``; every other node
    gives its own ``_motive``.
    """

    def step(node, *children):
        if isinstance(node, Product):
            a, b = children
            if a.opaque and b.opaque:
                raise OpaqueMotiveError("cannot multiply two motives that both have opaque summands")
            if b.opaque:
                parts = span_memo_twisted_parts(b.opaque, a.tate)
            else:
                parts = span_memo_twisted_parts(a.opaque, b.tate)
            return varieties.GeneralizedMotive(tensor(a.tate, b.tate), parts)
        if isinstance(node, Blowup):
            base, center = children
            return base + strided_twist_sum(center, 1, node.codim)
        if isinstance(node, ProjBundle):
            return strided_twist_sum(children[0], 0, node.fiber_rank)
        return node._motive(*children)

    return _fold(e, step)


def identity_pattern(parts):
    """Each part's index of the first entry that is the same object."""
    first = {}
    return [first.setdefault(id(p), i) for i, p in enumerate(parts)]


def rebuilt_collection(collection):
    """``collection`` rebuilt piece by piece through the checking constructors."""
    return sod.Collection(
        tuple(sod.SODPiece(p.label, p.kind, p.nc_rank) for p in collection.pieces)
    )


def checked_rebuild(poly):
    """``poly`` rebuilt through its class's checking constructor.

    The constructor checks every item, merges equal keys, drops zero
    entries and sorts; a result that a conversion or a catalog formula
    built with the trusted ``Record._trusted`` must equal its rebuild item
    for item, in order.
    """
    return type(poly)(poly.terms)


# The front end as it was before one ``re`` pattern read the tokens and
# one positional store built the nodes: a loop per character that keeps the
# byte offset of every token, and a builder that calls each label's class.

_DIGITS = set("0123456789")


def char_loop_tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, byte offset)`` per token, ending with an ``eof`` token."""
    toks = []
    i = 0
    n = len(text)
    at = 0  # UTF-8 byte offset of text[i]
    while i < n:
        ch = text[i]
        j = i + 1
        if ch in _DIGITS:
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > MAX_INT_DIGITS:
                raise ParseError(INT_TOO_LONG, at)
            toks.append(("num", text[i:j], at))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], at))
        elif ch in _PUNCT:
            toks.append((ch, ch, at))
        elif not ch.isspace():
            raise ParseError("unexpected character %r" % ch, at)
        at += len(text[i:j].encode("utf-8"))
        i = j
    toks.append(("eof", "", at))
    return toks


def constructor_from_labels(labels) -> VarietyExpr:
    """``varieties._from_labels`` as it was: ``cls(*args)`` per label.

    An InvalidParameterError from a constructor gets ``path``, the node path
    of that node, worked out from the labels after it.
    """
    built = []
    labels = iter(labels)
    for cls, *items in labels:
        # the children are the last nodes built, the rightmost on top
        args = [built.pop() if typ is VarietyExpr else value for _, typ, value in reversed(items)]
        args.reverse()
        try:
            built.append(cls(*args))
        except InvalidParameterError as exc:
            if hasattr(labels, "throw"):
                # a generator names the path of the node whose label it yielded
                labels.throw(exc)
            # each later label takes its children off the stack and goes on
            # it; ``above`` counts the nodes above this node's subtree, and
            # the first label that takes more than those takes the subtree
            names, above = [], 0
            for later, *_ in labels:
                if len(later._children) > above:
                    names.append(later._children[-1 - above])
                above = max(above + 1 - len(later._children), 0)
            exc.path = ".".join(["$", *reversed(names)])
            raise
    return built[0]


def spelled_tokens(text: str) -> list[tuple[str, str, int]]:
    """``exprlang._tokenize`` of ``text`` in the form of ``char_loop_tokenize``:
    each token's kind, read off its first character, its text and the UTF-8
    byte offset of the start that ``_TOKEN`` finds for it, the end's being
    the text's length."""
    *toks, end = _tokenize(text)
    assert end == text and toks[-1] == ""
    starts = [match.start(1) for match in _TOKEN.finditer(text)] + [len(text)]
    kinds = [
        "num" if tok[:1] in _DIGITS else "name" if tok[:1].isalpha() or tok[:1] == "_" else tok or "eof"
        for tok in toks
    ]
    return [(kind, tok, len(text[:at].encode("utf-8"))) for kind, tok, at in zip(kinds, toks, starts, strict=True)]


def token_outcome(tokenize, text: str) -> tuple:
    """``("tokens", tokenize(text))``, or the message and offset of its ParseError."""
    try:
        return "tokens", tokenize(text)
    except ParseError as exc:
        return "error", str(exc), exc.offset


# Where a code point is put to compare the two tokenizers on it: alone, as
# an integer, inside and after a name, after an integer, as a token of its
# own, and before an integer.
CODE_POINT_CONTEXTS = ("%s", "P(%s)", "a%s b", "1%s", "x %s", "%s1")


# The expression front end as it was before one loop on explicit stacks
# turned text into post-order labels for ``varieties._from_labels``: a
# recursive descent into the JSON form, whose depth the interpreter's
# recursion limit bounds, and a builder that types that JSON on a stack of
# frames, one per node whose fields are being read.


def _frame(data, name: str) -> list:
    """``[class, JSON, field name, arguments so far]`` for one JSON node."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("expression JSON needs a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError("unknown expression kind %r" % (kind,))
    return [_KINDS[kind], data, name, []]


def frame_expr_from_json(data: dict) -> VarietyExpr:
    """The tree of the JSON form ``data``, built on an explicit stack of frames.

    Fields are read in order and a child is built before the next field is
    read, so the first problem met is the one reported.  An
    InvalidParameterError from a constructor gets ``path``, the node path
    of that node (the root is ``$``, a child adds ``.`` and its field name).
    """
    frames = [_frame(data, "$")]
    while True:
        cls, data, _, args = frames[-1]
        if len(args) < len(cls._fields):
            name, typ = cls._fields[len(args)]
            if name not in data:
                raise ValueError("%s expression JSON needs a field %r" % (cls.kind, name))
            if typ is VarietyExpr:
                frames.append(_frame(data[name], name))
                continue
            if typ is tuple and not isinstance(data[name], list):
                raise ValueError("%s expression JSON needs %r as a list" % (cls.kind, name))
            args.append(data[name])
            continue
        try:
            node = cls(*args)
        except InvalidParameterError as exc:
            exc.path = ".".join(frame[2] for frame in frames)
            raise
        frames.pop()
        if not frames:
            return node
        frames[-1][3].append(node)


# Constructor head -> (node class, its template after the head with each
# field slot written '%' and no spaces), read off each class's ``syntax``.
_CONSTRUCTORS = {
    head: (cls, template[len(head):].replace("%s", "%").replace(" ", ""))
    for cls in _KINDS.values()
    for head, template, binding in [cls.syntax]
    if binding is None
}
# Operator head -> node class, for the classes whose ``syntax`` has a binding.
_OPERATORS = {cls.syntax[0]: cls for cls in _KINDS.values() if cls.syntax[2] is not None}


class RecursiveParser:
    """Recursive descent into the JSON form; ``frame_expr_from_json`` types it."""

    def __init__(self, toks: list[tuple[str, str, int]]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def expect(self, kind: str, what: str = "") -> tuple[str, str, int]:
        # a punctuation token names itself in the error message
        tok = self.toks[self.pos]
        if tok[0] != kind:
            got = repr(tok[1]) if tok[0] != "eof" else "end of input"
            raise ParseError("expected %s, got %s" % (what or "'%s'" % kind, got), tok[2])
        self.pos += 1
        return tok

    def integer(self) -> int:
        return int(self.expect("num", "an integer")[1])

    def expr(self, floor: int = 1) -> dict:
        """Atoms joined by operators that bind at least ``floor``."""
        out = self.atom()
        while True:
            cls = _OPERATORS.get(self.peek())
            if cls is None or cls.syntax[2] < floor:
                return out
            self.pos += 1
            # a right operand binds tighter, so both operators are left-associative
            right = self.expr(cls.syntax[2] + 1)
            out = {"kind": cls.kind, **dict(zip(cls._children, (out, right)))}

    def atom(self) -> dict:
        if self.peek() == "(":
            self.pos += 1
            inner = self.expr()
            self.expect(")")
            return inner
        _, text, offset = self.expect("name", "an expression")
        entry = _CONSTRUCTORS.get(text)
        if entry is None:
            raise ParseError("unknown constructor %r" % text, offset)
        cls, pattern = entry
        out = {"kind": cls.kind}
        fields = iter(cls._fields)
        for ch in pattern:
            if ch != "%":
                self.expect(ch)
                continue
            name, typ = next(fields)
            if typ is VarietyExpr:
                out[name] = self.expr()
            elif typ is int:
                out[name] = self.integer()
            elif typ is tuple:
                counts = [self.integer()]
                while self.peek() == ",":
                    self.pos += 1
                    counts.append(self.integer())
                out[name] = counts
            else:
                out[name] = self.flag(name)
        return out

    def flag(self, name: str) -> bool:
        """``(name '=')? ('true' | 'false')``"""
        _, text, offset = self.expect("name", "%r or a boolean" % name)
        if text == name:
            self.expect("=")
            _, text, offset = self.expect("name", "'true' or 'false'")
        if text not in ("true", "false"):
            raise ParseError("expected 'true' or 'false', got %r" % text, offset)
        return text == "true"


def recursive_parse_expr(text, parser=RecursiveParser):
    """``parse_expr`` as it was: the text through ``parser`` into JSON, then typed.

    Nesting past the interpreter's recursion limit is the ParseError
    ``expression nested too deeply``.
    """
    parser = parser(char_loop_tokenize(text))
    try:
        data = parser.expr()
    except RecursionError:
        # the parser recurses once per parenthesis
        raise ParseError("expression nested too deeply", parser.toks[parser.pos][2]) from None
    kind, trailing, offset = parser.toks[parser.pos]
    if kind != "eof":
        raise ParseError("unexpected trailing input %r" % trailing, offset)
    try:
        return frame_expr_from_json(data)
    except InvalidParameterError as exc:
        raise SemanticError(str(exc), exc.path) from exc


class TwoLevelParser(RecursiveParser):
    """The expression parser as it was before one precedence loop read the
    operators off the node classes: one method per binding level, each
    operator and its field names written out."""

    def expr(self):
        out = self.term()
        while self.peek() == "+":
            self.pos += 1
            out = {"kind": DisjointUnion.kind, "left": out, "right": self.term()}
        return out

    def term(self):
        out = self.atom()
        while self.peek() == "*":
            self.pos += 1
            out = {"kind": Product.kind, "left": out, "right": self.atom()}
        return out


def two_level_parse_expr(text):
    """``parse_expr`` through ``TwoLevelParser``: the tree, or its ParseError."""
    return recursive_parse_expr(text, TwoLevelParser)


# ``render_expr`` and ``repr`` as they were before ``varieties._expand``
# wrote text top down: each a fold step that builds a node's text from its
# children's, so every parent copies its children's text and the time is
# quadratic in the depth.


def _fold_render_step(e, *children):
    """Fold step: the text of ``e`` and how tightly it binds."""
    syntax = type(e).syntax
    if syntax is None:
        raise TypeError("unknown expression node %r" % type(e).__name__)
    _, template, strength = syntax
    args = []
    for name, typ, value in e._items(children):
        if typ is VarietyExpr:
            value, inner = value
            # both operators are left-associative, so a right operand must
            # bind more tightly than its operator; a constructor's own
            # delimiters need no parentheses
            if strength is not None and inner is not None and inner < strength + len(args):
                value = "(%s)" % value
        elif typ is bool:
            value = "%s=%s" % (name, "true" if value else "false")
        elif typ is tuple:
            value = ",".join(str(c) for c in value)
        else:
            value = "%d" % value
        args.append(value)
    return template % tuple(args), strength


def fold_render_expr(e):
    """Canonical text for an expression, child texts first."""
    return _fold(e, _fold_render_step)[0]


def _fold_repr_step(e, *children):
    # one join, so a long chain copies each child's text only once
    parts = [type(e).__qualname__, "("]
    for i, (name, typ, value) in enumerate(e._items(children)):
        text = value if typ is VarietyExpr else repr(value)
        parts += (", " if i else "", name, "=", text)
    parts.append(")")
    return "".join(parts)


def fold_repr(e):
    """``repr(e)``, child texts first."""
    return _fold(e, _fold_repr_step)


# The five frozen dataclasses that ``tate.Record`` replaced, as they were in
# ``sod`` and ``varieties``: the oracle for the records' ``repr``, ``==``,
# ``hash``, copies, pickles and validation errors.


@dataclass(frozen=True)
class SODPiece:
    """One piece of a decomposition.

    Exceptional pieces always have rank 1; opaque pieces carry a name in
    ``label`` and ``nc_rank`` None until solved.
    """

    label: str
    kind: str = EXCEPTIONAL
    nc_rank: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("piece label must be a non-empty string")
        if self.kind not in (EXCEPTIONAL, OPAQUE):
            raise ValueError("piece kind must be %r or %r" % (EXCEPTIONAL, OPAQUE))
        if self.kind == EXCEPTIONAL:
            if self.nc_rank not in (None, 1):
                raise ValueError("an exceptional piece has rank 1")
            object.__setattr__(self, "nc_rank", 1)
        elif self.nc_rank is not None and not _is_count(self.nc_rank):
            raise ValueError("nc_rank must be a non-negative integer or None")

    def to_json(self) -> dict:
        out: dict = {"label": self.label, "kind": self.kind}
        if self.nc_rank is not None:
            out["nc_rank"] = self.nc_rank
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SODPiece":
        if not isinstance(data, dict) or "label" not in data or "kind" not in data:
            raise ValueError("piece JSON needs 'label' and 'kind'")
        return cls(data["label"], data["kind"], data.get("nc_rank"))


@dataclass(frozen=True)
class Collection:
    """A non-empty ordered tuple of pieces."""

    pieces: tuple[SODPiece, ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise ValueError("a collection has at least one piece")
        for p in self.pieces:
            if not isinstance(p, SODPiece):
                raise TypeError("collection pieces must be SODPiece")

    def __len__(self) -> int:
        return len(self.pieces)

    def __iter__(self):
        return iter(self.pieces)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.pieces)

    def to_json(self) -> dict:
        return {"pieces": [p.to_json() for p in self.pieces]}

    @classmethod
    def from_json(cls, data: dict) -> "Collection":
        if not isinstance(data, dict) or not isinstance(data.get("pieces"), list):
            raise ValueError("collection JSON needs a 'pieces' list")
        return cls(tuple(SODPiece.from_json(p) for p in data["pieces"]))


@dataclass(frozen=True)
class FecVerdict:
    """Outcome of the full-exceptional-collection obstruction check."""

    status: str
    min_length: Optional[int] = None
    bound: Optional[int] = None
    odd_degrees: tuple[int, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return self.status == FEC_OK


@dataclass(frozen=True)
class OpaquePart:
    """A named summand with no Tate decomposition, e.g. the odd part of a Fano.

    ``twist`` counts extra Lefschetz factors applied on top of the named
    motive; ``odd`` records that the summand has odd weight, which is what
    the obstruction checks care about.
    """

    name: str
    odd: bool
    twist: int = 0

    def twisted(self, r: int) -> "OpaquePart":
        return OpaquePart(self.name, self.odd, self.twist + r)

    def text(self) -> str:
        if self.twist == 0:
            return "[%s]" % self.name
        if self.twist == 1:
            return "[%s*L]" % self.name
        return "[%s*L^%d]" % (self.name, self.twist)

    def to_json(self) -> dict:
        return {"name": self.name, "odd": self.odd, "twist": self.twist}


@dataclass(frozen=True)
class GeneralizedMotive:
    """A Tate motive plus an ordered tuple of opaque summands."""

    tate: TateMotive
    opaque: tuple[OpaquePart, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "opaque", tuple(self.opaque))

    @property
    def is_tate(self) -> bool:
        return not self.opaque

    def __add__(self, other: "GeneralizedMotive") -> "GeneralizedMotive":
        return GeneralizedMotive(
            direct_sum(self.tate, other.tate), self.opaque + other.opaque
        )

    def __mul__(self, other: "GeneralizedMotive") -> "GeneralizedMotive":
        if self.opaque and other.opaque:
            raise OpaqueMotiveError(
                "cannot multiply two motives that both have opaque summands"
            )
        parts = [
            p.twisted(l) for p in self.opaque for l in other.tate.exponent_multiset()
        ]
        parts += [
            p.twisted(l) for p in other.opaque for l in self.tate.exponent_multiset()
        ]
        return GeneralizedMotive(tensor(self.tate, other.tate), tuple(parts))

    def text(self) -> str:
        parts = [] if self.tate.is_zero else [self.tate.text()]
        parts += [p.text() for p in self.opaque]
        return " + ".join(parts) if parts else "0"

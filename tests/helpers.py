"""Shared exact-arithmetic helpers and independent oracles for the tests.

Everything here is deliberately written from scratch (straight Gaussian
elimination, brute-force partition counting, naive triple-loop products) so
the expected values do not flow through the code paths under test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from lefschetz.orbit import OrbitMorphism, block_unit_iso, term_enumeration
from lefschetz.tate import TateMotive
from lefschetz.varieties import _fold


def matmul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for i in range(rows)
    ]


def fraction_matmul(a, b, ncols):
    """a @ b over Fractions for a b with ncols columns; b may have no rows.

    The dense product ``orbit.compose`` used before morphisms were stored
    as integer rows over one denominator.
    """
    cols = tuple(zip(*b)) if b else ((),) * ncols
    zero = Fraction(0)
    return tuple(tuple(sum(map(mul, row, col), zero) for col in cols) for row in a)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def invert(mat):
    """Exact inverse by Gaussian elimination, None when singular."""
    n = len(mat)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(mat)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


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
    src = term_enumeration(source)
    tgt = term_enumeration(target)
    grades = {te - se for se, _ in src for te, _ in tgt}
    comps = {}
    for r in grades:
        comps[r] = [
            [rand_entry(rng) if te - r == se else 0 for se, _ in src]
            for te, _ in tgt
        ]
    return OrbitMorphism(source, target, comps)


def conjugated_unit_iso(m, rng):
    """block_unit_iso twisted by a random basis change on the unit side."""
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

    Folds the whole tree on every call and stores nothing.
    """
    return _fold(e, lambda node, *dims: node._dimension(*dims))


def fresh_motive(e):
    """``motive_of`` as it was before it kept its answer on the node."""
    return _fold(e, lambda node, *parts: node._motive(*parts))

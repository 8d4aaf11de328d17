"""The ``orbit_lift`` workload: in-process lifts through ``decompose_via_orbit``.

Inputs live in the space of acceptance criterion 4: a motive with ranks 1 to
``MAX_RANK`` and exponents inside a window ``dim`` from 2 to 6, given with
its canonical unit isomorphism conjugated by a random invertible rational
matrix A (f_{-l} = A D_l, g_l = D_l A^{-1}, where D_l selects the summands
L^l).  Generation inverts A with the oracle's own Gauss-Jordan elimination,
between operations and outside their times.  One operation builds the
``OrbitMorphism`` pair and runs ``decompose_via_orbit``; the exponent
multiset to recover is known by construction.

The cost of a lift grows as (number of grades)^2 x rank^3, so each item has
``min(rank, GRADES)`` distinct exponents and the seed picks the window, the
exponent values and the matrices.  Every block of ``BLOCK`` operations then
has the same cost mix for every seed: ``PER_RANK`` items of each rank, twice
that for ranks 5 and 8 (so the median and the 90th percentile fall in the
middle of a rank group rather than on the jump between two), and two rank-4
negative cases: a window one too small (``SupportViolationError``) and a g
scaled by 2, so the pair is not inverse (``NotAnIsomorphismError``).

Ranks stay at 8 or below: rank 35 (``Gr(3,7)``) takes about a minute per
lift at this commit, and every check runs each workload many times.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

import oracle

MAX_RANK = 8
MAX_DIM = 6
GRADES = 4
PER_RANK = 4
COPIES = {5: 2, 8: 2}
RANKS = [r for r in range(1, MAX_RANK + 1) for _ in range(PER_RANK * COPIES.get(r, 1))]
BLOCK = len(RANKS) + 2
SUBPROCESS = False  # operations run in this process


def _entry(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


def _invertible(rng, n):
    while True:
        a = [[_entry(rng) for _ in range(n)] for _ in range(n)]
        inv = oracle.invert(a)
        if inv is not None:
            return a, inv


def make_item(rng, rank, negative=None):
    """(terms, f components, g components, dim argument, expected outcome)."""
    distinct = min(rank, GRADES)
    dim = rng.randint(max(2, distinct - 1), MAX_DIM)
    values = rng.sample(range(dim + 1), distinct)
    if negative == "support" and max(values) == 0:
        values[0] = dim
    exps = sorted(values + [rng.choice(values) for _ in range(rank - distinct)])
    a, a_inv = _invertible(rng, rank)
    # selector columns/rows: summand j (ascending exponent) has exponent exps[j]
    f_comps, g_comps = {}, {}
    for l in sorted(set(exps)):
        sel = [j for j in range(rank) if exps[j] == l]
        f_comps[-l] = [[a[i][j] if j in sel else Fraction(0) for j in range(rank)] for i in range(rank)]
        g_comps[l] = [a_inv[j] if j in sel else [Fraction(0)] * rank for j in range(rank)]
    if oracle.matmul(a, a_inv) != oracle.identity(rank):
        raise RuntimeError("oracle inverse is wrong")
    terms = {}
    for l in exps:
        terms[l] = terms.get(l, 0) + 1
    if negative == "support":
        return terms, f_comps, g_comps, exps[-1] - 1, "SupportViolationError"
    if negative == "inverse":
        g_comps = {l: [[2 * x for x in row] for row in mat] for l, mat in g_comps.items()}
        return terms, f_comps, g_comps, dim, "NotAnIsomorphismError"
    return terms, f_comps, g_comps, dim, tuple(exps)


def schedule(seed: int | str):
    """The endless operation stream, generated one block at a time as it is read."""
    rng = random.Random(seed)
    while True:
        shapes = [(r, None) for r in RANKS] + [(4, "support"), (4, "inverse")]
        rng.shuffle(shapes)
        for shape in shapes:
            yield make_item(rng, *shape)


def warmup():
    """The first positive item of each rank (the rank sets the cost) of a fixed stream.

    The warm-up is the same for every seed, so set-up time does not depend on it.
    """
    picked = {}
    for item in islice(schedule("warm-up"), BLOCK):
        if not isinstance(item[4], str):
            picked.setdefault(sum(item[0].values()), item)
    return [picked[r] for r in sorted(picked)]


def run_op(lx, item):
    terms, f_comps, g_comps, dim, _ = item
    m = lx.TateMotive(terms)
    units = lx.TateMotive({0: m.rank})
    f = lx.OrbitMorphism(m, units, f_comps)
    g = lx.OrbitMorphism(units, m, g_comps)
    return lx.decompose_via_orbit(m, f, g, dim)


run_traced = run_op


def error_kind(item):
    """Name of the exception the operation must raise, or None."""
    return item[4] if isinstance(item[4], str) else None


def corrupt(item):
    """A deliberately wrong expectation, for the benchmark's self-check."""
    want = item[4]
    return item[:4] + ("NoSuchError" if isinstance(want, str) else want + (99,),)


def check(item, out, exc) -> bool:
    want = item[4]
    if isinstance(want, str):
        return exc is not None and type(exc).__name__ == want
    return exc is None and tuple(out) == want

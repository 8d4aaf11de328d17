"""The ``catalog`` workload: a warm, in-process library batch.

One operation is the pipeline a library user (or any non-orbit CLI verb)
runs on one expression: parse, render, motive, dimension, Poincare
polynomial, Hodge numbers, K0 class and both measures, the FEC verdict, and
the collection with its rank solve (split and Kuznetsov forms) where the
catalog has a collection.

Inputs are drawn in blocks of 40 with fixed quotas per category, so every
seed gets the same mix: 8 repeats from a fixed hot set, 2 invalid inputs
(syntax errors, out-of-range parameters), and 30 fresh seeded expressions
covering every constructor, nested up to ``MAX_DEPTH`` levels.

Known defects the generator stays clear of:

* ``GeneralizedMotive.__mul__`` expands opaque summands once per summand
  copy, so products with ``fano(b; false)`` grow as 3 x rank; a deep product
  with large Grassmannians runs out of memory.  Each input is capped at
  ``OPAQUE_BUDGET`` opaque parts (the hot set's ``fano(1; false)*Gr(5,10)``
  has 756, of which 78 are distinct); a cap of 20000 let a handful of inputs
  take a sixth of the run and made throughput depend on the seed.
* Chains of about 1000 summands hit ``RecursionError`` in the recursive
  parser and evaluator.  Trees here are at most ``MAX_DEPTH`` levels deep,
  so at most 2^(MAX_DEPTH - 1) summands.  Input robustness is left to a
  fuzz test, not to this benchmark.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import islice
from math import comb

import oracle

GEN_DEPTH = 4
MAX_DEPTH = 6
OPAQUE_BUDGET = 3000
SUBPROCESS = False  # operations run in this process

# Fixed across seeds, spelled as a user would type them.
HOT = {
    "P(3)": ("P", 3),
    "Q(3)": ("Q", 3),
    "Q(4)": ("Q", 4),
    "Gr(2,4)": ("Gr", 2, 4),
    "Gr(10,20)": ("Gr", 10, 20),
    "point": ("point",),
    "fano(1; odd_trivial=false)": ("fano", 1, False),
    "fano(2; true)": ("fano", 2, True),
    "fano(1; false)*Gr(5,10)": ("*", ("fano", 1, False), ("Gr", 5, 10)),
    "toric[1,4,4]": ("toric", (1, 4, 4)),
    "M0(5)": ("M0", 5),
    "P(2) + Q(3)": ("+", ("P", 2), ("Q", 3)),
    "Q(3) + Q(5)": ("+", ("Q", 3), ("Q", 5)),
    "blowup(P(3); P(1); 2)": ("blowup", ("P", 3), ("P", 1), 2),
    "projbundle(Gr(2,5); 3)": ("projbundle", ("Gr", 2, 5), 3),
    "(P(1) + point) * Q(2)": ("*", ("+", ("P", 1), ("point",)), ("Q", 2)),
}

QUOTAS = (
    ("hot", 8),
    ("leaf", 10),
    ("union", 6),
    ("product", 4),
    ("opaque_product", 2),
    ("blowup", 3),
    ("projbundle", 3),
    ("nested", 2),
    ("syntax", 1),
    ("semantic", 1),
)
BLOCK = sum(n for _, n in QUOTAS)


def _toric(rng, n):
    """Cone counts of a smooth complete fan with random Betti numbers.

    With b_n = 1 and b_j >= 0, d_k = sum_j b_j C(j, n-k) are positive and
    d_0 = 1, so the cone counts are in range.
    """
    betti = [rng.randint(0, 4) for _ in range(n)] + [1]
    return ("toric", tuple(sum(b * comb(j, n - k) for j, b in enumerate(betti)) for k in range(n + 1)))


def leaf(rng, opaque_ok=True):
    kind = rng.choice(("P", "P", "Q", "Q", "Gr", "Gr", "toric", "M0", "fano", "point"))
    if kind == "P":
        return ("P", rng.randint(0, 40))
    if kind == "Q":
        return ("Q", rng.randint(1, 40))
    if kind == "Gr":
        n = rng.randint(2, 20)
        return ("Gr", rng.randint(1, n - 1), n)
    if kind == "toric":
        return _toric(rng, rng.randint(1, 5))
    if kind == "M0":
        return ("M0", rng.randint(3, 5))
    if kind == "fano":
        return ("fano", rng.randint(0, 6), not opaque_ok or rng.random() < 0.5)
    return ("point",)


def of_dim(rng, d):
    """A small expression of dimension exactly d (a blowup centre)."""
    options = [("P", d), ("point",) if d == 0 else ("Q", d)]
    if d == 3:
        options.append(("fano", rng.randint(0, 3), rng.random() < 0.7))
    if d >= 2:
        a = rng.randint(1, d - 1)
        options.append(("*", ("P", a), ("P", d - a)))
    pick = rng.choice(options)
    if rng.random() < 0.3:
        pick = ("+", pick, ("point",) if d else ("P", 0))
    return pick


def union(rng, depth):
    parts = [expr(rng, depth + 1) for _ in range(rng.randint(2, 4))]
    out = parts[0]
    for p in parts[1:]:
        out = ("+", out, p) if rng.random() < 0.8 else ("+", p, out)
    return out


def expr(rng, depth=1):
    """A random valid expression, at most MAX_DEPTH levels deep."""
    if depth >= GEN_DEPTH or rng.random() < 0.45:
        return leaf(rng)
    kind = rng.choice(("+", "*", "blowup", "projbundle"))
    if kind == "+":
        return ("+", expr(rng, depth + 1), expr(rng, depth + 1))
    if kind == "*":
        return ("*", expr(rng, depth + 1), expr(rng, depth + 1))
    return constructed(rng, kind, depth)


def constructed(rng, kind, depth):
    if kind == "projbundle":
        return ("projbundle", expr(rng, depth + 1), rng.randint(1, 4))
    base = expr(rng, depth + 1)
    dim = oracle.dimension(base)
    if dim < 2:
        base = ("P", rng.randint(2, 6))
        dim = base[1]
    codim = rng.randint(2, min(dim, 4))
    return ("blowup", base, of_dim(rng, dim - codim), codim)


def fresh(rng, category):
    if category == "leaf":
        return leaf(rng)
    if category == "union":
        return union(rng, 2)
    if category == "product":
        return ("*", leaf(rng, opaque_ok=False), expr(rng, 3))
    if category == "opaque_product":
        fano = ("fano", rng.randint(0, 5), False)
        other = ("fano", rng.randint(0, 5), False) if rng.random() < 0.125 else leaf(rng)
        return ("*", fano, other) if rng.random() < 0.5 else ("*", other, fano)
    if category in ("blowup", "projbundle"):
        return constructed(rng, category, 2)
    inner = constructed(rng, rng.choice(("blowup", "projbundle")), 3)
    return ("+", ("*", inner, leaf(rng, opaque_ok=False)), union(rng, 3))


def depth(node) -> int:
    subtrees = [x for x in node[1:] if isinstance(x, tuple) and x and isinstance(x[0], str)]
    return 1 + max(map(depth, subtrees), default=0)


def expected(node):
    """The outcome record the library must reproduce for a valid tree."""
    try:
        count, parts = oracle.motive(node)
    except oracle.OracleError as exc:
        return {"error": (exc.kind, None)}
    terms = oracle.digits(count)
    rank = sum(terms.values())
    quadrics = oracle.collection(node)
    if parts:
        fec = ("fails-odd-vanishing", None, None, ())
    else:
        bound = rank if quadrics is not None else None
        fec = ("ok", max(terms.values(), default=0), bound, ())
    return {
        "render": oracle.render(node),
        "dim": oracle.dimension(node),
        "terms": terms,
        "rank": rank,
        "opaque": parts,
        "fec": fec,
        "quadrics": quadrics,
    }


def _syntax_error(rng):
    text = oracle.noisy(expr(rng, 2), rng)
    how = rng.randrange(3)
    if how == 0:
        return text + ")", ("ParseError", len(text))
    if how == 1:
        i = rng.randrange(len(text) + 1)
        return text[:i] + "$" + text[i:], ("ParseError", i)
    return text[:-1], ("ParseError", None)


_BAD_LEAVES = (
    ("Q", 0),
    ("Gr", 3, 3),
    ("Gr", 5, 2),
    ("Gr", 0, 4),
    ("M0", 6),
    ("M0", 2),
    ("toric", (2, 3, 1)),
    ("toric", (1, 0, 1)),
)


def _semantic_error(rng):
    """An out-of-range parameter somewhere in a small valid tree."""
    how = rng.randrange(4)
    if how == 0:
        # in range for the parser, but with a negative Betti number
        bad = ("toric", (1, 1, rng.randint(1, 3)))
        node = bad if rng.random() < 0.5 else ("+", leaf(rng, False), bad)
        return oracle.noisy(node, rng), expected(node)["error"]
    if how == 1:
        bad = ("projbundle", leaf(rng), 0)
    elif how == 2:
        base = ("P", rng.randint(3, 6))
        bad = ("blowup", base, ("P", 0), base[1] - 1)
    else:
        bad = rng.choice(_BAD_LEAVES)
    node = bad
    for _ in range(rng.randint(0, 2)):
        other = leaf(rng)
        node = rng.choice((("+", node, other), ("+", other, node), ("*", other, node)))
    return oracle.noisy(node, rng), ("SemanticError", oracle.invalid_path(node))


def _fits(node, exp):
    if depth(node) > MAX_DEPTH:
        return False
    if "error" in exp:
        return exp["error"][0] == "OpaqueMotiveError"
    return sum(exp["opaque"].values()) <= OPAQUE_BUDGET


def schedule(seed: int | str):
    """The endless operation stream: (input text, expected record) pairs.

    Inputs are generated as the stream is read, so no input is replayed
    however long a run lasts and the schedule is never held in memory.
    """
    rng = random.Random(seed)
    hot = [(text, expected(node)) for text, node in HOT.items()]
    while True:
        block = [c for c, n in QUOTAS for _ in range(n)]
        rng.shuffle(block)
        for category in block:
            if category == "hot":
                yield rng.choice(hot)
            elif category == "syntax":
                text, err = _syntax_error(rng)
                yield text, {"error": err}
            elif category == "semantic":
                text, err = _semantic_error(rng)
                yield text, {"error": err}
            else:
                while True:
                    node = fresh(rng, category)
                    exp = expected(node)
                    if _fits(node, exp):
                        break
                yield oracle.noisy(node, rng), exp


def warmup():
    """Two blocks of a fixed stream and the hot set, the same for every seed.

    A seeded warm-up would make set-up time and peak memory depend on the seed.
    """
    return list(islice(schedule("warm-up"), 2 * BLOCK)) + [(text, expected(node)) for text, node in HOT.items()]


def run_op(lx, item):
    """One pipeline run on ``item[0]``; ``lx`` is the ``lefschetz`` package.

    Functions are looked up on the package at call time, so the traced run's
    patched bindings are the ones called.
    """
    e = lx.parse_expr(item[0])
    canon = lx.render_expr(e)
    gm = lx.motive_of(e)
    dim = lx.dimension_of(e)
    if gm.opaque:
        try:
            lx.k0_class(e)
            pure = "k0_class accepted opaque summands"
        except lx.OpaqueMotiveError:
            pure = None
    else:
        tate = gm.tate
        c = lx.k0_class(e)
        pure = (lx.poincare(tate), lx.hodge_numbers(tate), c, lx.chi_gs(c), lx.chi_hd(c))
    verdict = lx.fec_verdict(e)
    try:
        col = lx.solve_nc_ranks(lx.exceptional_collection_of(e), gm.tate)
    except lx.CollectionUnavailableError:
        col = kz = None
    else:
        try:
            kz = lx.solve_nc_ranks(
                lx.exceptional_collection_of(e, quadric_variant="kuznetsov"), gm.tate
            )
        except lx.UnderdeterminedError:
            kz = "underdetermined"
    return canon, gm, dim, pure, verdict, col, kz


run_traced = run_op


def error_kind(item):
    """Name of the exception the oracle expects the operation to raise, or None."""
    return item[1]["error"][0] if "error" in item[1] else None


def corrupt(item):
    """A deliberately wrong expectation, for the benchmark's self-check."""
    text, exp = item
    if "error" in exp:
        return text, {"error": ("NoSuchError", None)}
    terms = dict(exp["terms"])
    terms[0] = terms.get(0, 0) + 1
    return text, dict(exp, terms=terms)


def check(item, out, exc) -> bool:
    """Whether one operation's outcome matches the oracle's record."""
    exp = item[1]
    if "error" in exp:
        kind, detail = exp["error"]
        if exc is None or type(exc).__name__ != kind:
            return False
        got = getattr(exc, "offset", None) if kind == "ParseError" else getattr(exc, "path", None)
        return detail is None or got == detail
    if exc is not None:
        return False
    canon, gm, dim, pure, verdict, col, kz = out
    terms = exp["terms"]
    parts = Counter()
    for p in gm.opaque:
        if not p.odd:
            return False
        parts[(p.name, p.twist)] += 1
    if (canon, dim, gm.tate.terms, parts) != (exp["render"], exp["dim"], terms, exp["opaque"]):
        return False
    if exp["opaque"]:
        if pure is not None:
            return False
    else:
        poin, hodge, k0, gs, hd = pure
        diag = {(l, l): c for l, c in terms.items()}
        if (
            poin.coefficients != {2 * l: c for l, c in terms.items()}
            or hodge != diag
            or k0.terms != terms
            or gs.terms != terms
            or hd.terms != diag
        ):
            return False
    got = (verdict.status, verdict.min_length, verdict.bound, tuple(verdict.odd_degrees))
    if got != exp["fec"]:
        return False
    quadrics = exp["quadrics"]
    if quadrics is None:
        return col is None and kz is None
    rank = exp["rank"]
    if col is None or len(col.pieces) != rank or any(p.nc_rank != 1 for p in col.pieces):
        return False
    if len(quadrics) > 1:
        return kz == "underdetermined"
    if kz is None or kz == "underdetermined" or sum(p.nc_rank for p in kz.pieces) != rank:
        return False
    opaque = [p for p in kz.pieces if p.kind == "opaque"]
    if not quadrics:
        return not opaque
    d = quadrics[0]
    return [(p.label, p.nc_rank) for p in opaque] == [("Cl0(Q_%d)" % d, 1 if d % 2 else 2)]

"""Independent oracles for the benchmark; nothing here imports ``lefschetz``.

Catalog expressions are plain tuple trees (see ``catalog.py``).  Their motives
are computed from point counts over F_q: every catalog variety is
Tate-type, so its point count is a polynomial in q whose coefficients are the
multiplicities of the powers of L.  ``Q`` is a power of two far larger than
any coefficient the generators produce, so the motive is read back as the
(balanced) base-Q digits of a single big integer.  The formulas used:

* P(n):        (q^{n+1} - 1) / (q - 1)
* Q(d):        (q^{d+1} - 1) / (q - 1), plus q^{d/2} when d is even
* Gr(k, n):    prod_{i<k} (q^{n-i} - 1) / (q^{i+1} - 1)   (Gaussian binomial)
* toric:       sum_k d_k (q - 1)^{n-k}, one torus orbit per cone
* blowup:      #X + #Z (q + ... + q^{c-1})
* projbundle:  #X (1 + q + ... + q^{r-1})
* M0(3), M0(4), M0(5): a point, the line, P^2 blown up in four points

Opaque summands never have point counts here; they are tracked as a
multiset of (name, twist) next to the count.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

QBITS = 64
Q = 1 << QBITS
_HALF = Q >> 1

FANO_PARTS = (("M^1(X)", 0), ("M^1(J)", 1), ("M^5(X)", 0))


class OracleError(Exception):
    """The oracle's prediction that the library raises ``kind``."""

    def __init__(self, kind: str, detail=None):
        super().__init__(kind, detail)
        self.kind = kind
        self.detail = detail


def geometric(lo: int, hi: int) -> int:
    """q^lo + q^(lo+1) + ... + q^hi at q = Q (0 when hi < lo)."""
    if hi < lo:
        return 0
    return ((Q ** (hi - lo + 1) - 1) // (Q - 1)) << (QBITS * lo)


def digits(count: int) -> dict[int, int]:
    """Balanced base-Q digits: exponent -> coefficient, zeros omitted."""
    out = {}
    e = 0
    while count:
        r = count & (Q - 1)
        if r >= _HALF:
            r -= Q
        if r:
            out[e] = r
        count = (count - r) >> QBITS
        e += 1
    return out


def dimension(node) -> int:
    head = node[0]
    if head == "point":
        return 0
    if head in ("P", "Q"):
        return node[1]
    if head == "Gr":
        return node[1] * (node[2] - node[1])
    if head == "toric":
        return len(node[1]) - 1
    if head == "M0":
        return node[1] - 3
    if head == "fano":
        return 3
    if head == "+":
        return max(dimension(node[1]), dimension(node[2]))
    if head == "*":
        return dimension(node[1]) + dimension(node[2])
    if head == "blowup":
        return dimension(node[1])
    if head == "projbundle":
        return dimension(node[1]) + node[2] - 1
    raise KeyError(head)


def invalid_path(node, path: str = "$"):
    """Node path of the first out-of-range node in build order, or None.

    The parser builds children before their parent, left to right, so the
    first failing node in that order is the one reported.
    """
    head = node[0]
    children = {
        "+": ((".left", 1), (".right", 2)),
        "*": ((".left", 1), (".right", 2)),
        "blowup": ((".base", 1), (".center", 2)),
        "projbundle": ((".base", 1),),
    }.get(head, ())
    for suffix, i in children:
        bad = invalid_path(node[i], path + suffix)
        if bad is not None:
            return bad
    ok = True
    if head == "Q":
        ok = node[1] >= 1
    elif head == "Gr":
        ok = 0 < node[1] < node[2]
    elif head == "toric":
        ok = all(c >= 1 for c in node[1]) and node[1][0] == 1
    elif head == "M0":
        ok = 3 <= node[1] <= 5
    elif head == "blowup":
        ok = node[3] >= 2 and dimension(node[1]) - dimension(node[2]) == node[3]
    elif head == "projbundle":
        ok = node[2] >= 1
    return None if ok else path


def _twisted(parts: Counter, count: int) -> Counter:
    """Opaque parts times a Tate motive given by its point count."""
    out: Counter = Counter()
    if not parts:
        return out
    for l, c in digits(count).items():
        for (name, t), k in parts.items():
            out[(name, t + l)] += k * c
    return out


def motive(node) -> tuple[int, Counter]:
    """(point count of the Tate part at q = Q, opaque parts as a Counter).

    Raises OracleError("OpaqueMotiveError") for a product of two motives
    that both carry opaque parts, and OracleError("InvalidParameterError")
    for cone counts with a negative Betti number.
    """
    head = node[0]
    if head == "point":
        return 1, Counter()
    if head == "P":
        return geometric(0, node[1]), Counter()
    if head == "Q":
        d = node[1]
        extra = Q ** (d // 2) if d % 2 == 0 else 0
        return geometric(0, d) + extra, Counter()
    if head == "Gr":
        k, n = node[1], node[2]
        num = den = 1
        for i in range(k):
            num *= Q ** (n - i) - 1
            den *= Q ** (i + 1) - 1
        return num // den, Counter()
    if head == "toric":
        counts = node[1]
        n = len(counts) - 1
        total = sum(d * (Q - 1) ** (n - k) for k, d in enumerate(counts))
        if any(c < 0 for c in digits(total).values()):
            raise OracleError("InvalidParameterError")
        return total, Counter()
    if head == "M0":
        return {3: 1, 4: 1 + Q, 5: 1 + 5 * Q + Q * Q}[node[1]], Counter()
    if head == "fano":
        b = node[1]
        tate = 1 + b * Q + b * Q * Q + Q**3
        return tate, (Counter() if node[2] else Counter(dict.fromkeys(FANO_PARTS, 1)))
    if head == "+":
        a, pa = motive(node[1])
        b, pb = motive(node[2])
        return a + b, pa + pb
    if head == "*":
        a, pa = motive(node[1])
        b, pb = motive(node[2])
        if pa and pb:
            raise OracleError("OpaqueMotiveError")
        return a * b, _twisted(pa, b) + _twisted(pb, a)
    if head == "blowup":
        a, pa = motive(node[1])
        z, pz = motive(node[2])
        line = geometric(1, node[3] - 1)
        return a + z * line, pa + _twisted(pz, line)
    if head == "projbundle":
        a, pa = motive(node[1])
        fiber = geometric(0, node[2] - 1)
        return a * fiber, _twisted(pa, fiber)
    raise KeyError(head)


def collection(node):
    """Quadric dimensions of a known collection, or None when none is known.

    The catalog knows full exceptional collections (or the Clifford form for
    quadrics) for points, projective spaces, quadrics, toric varieties, M0(n),
    Fano threefolds with trivial odd part, and disjoint unions of those.  The
    length of such a collection is the rank of the motive.
    """
    head = node[0]
    if head in ("point", "P", "toric", "M0"):
        return []
    if head == "Q":
        return [node[1]]
    if head == "fano":
        return [] if node[2] else None
    if head == "+":
        left = collection(node[1])
        right = collection(node[2])
        if left is None or right is None:
            return None
        return left + right
    return None


def render(node) -> str:
    """Canonical text of an expression (the grammar's normal form)."""
    head = node[0]
    if head == "point":
        return "point"
    if head in ("P", "Q", "M0"):
        return "%s(%d)" % (head, node[1])
    if head == "Gr":
        return "Gr(%d,%d)" % (node[1], node[2])
    if head == "toric":
        return "toric[%s]" % ",".join(map(str, node[1]))
    if head == "fano":
        return "fano(%d; odd_trivial=%s)" % (node[1], "true" if node[2] else "false")
    if head == "blowup":
        return "blowup(%s; %s; %d)" % (render(node[1]), render(node[2]), node[3])
    if head == "projbundle":
        return "projbundle(%s; %d)" % (render(node[1]), node[2])
    left, right = render(node[1]), render(node[2])
    if head == "*":
        if node[1][0] == "+":
            left = "(%s)" % left
        if node[2][0] in ("+", "*"):
            right = "(%s)" % right
        return "%s * %s" % (left, right)
    if node[2][0] == "+":
        right = "(%s)" % right
    return "%s + %s" % (left, right)


def noisy(node, rng) -> str:
    """A non-canonical spelling of the same expression: the parser's input.

    Whitespace varies, atoms are sometimes wrapped in redundant parentheses,
    and the Fano flag is sometimes written without ``odd_trivial=``.
    """

    def sp():
        return rng.choice(("", "", " ", "  "))

    head = node[0]
    if head in ("+", "*"):
        left, right = noisy(node[1], rng), noisy(node[2], rng)
        if head == "*" and node[1][0] == "+":
            left = "(%s)" % left
        if node[2][0] == "+" or (head == "*" and node[2][0] == "*"):
            right = "(%s)" % right
        return left + sp() + head + sp() + right
    if head == "fano":
        flag = "true" if node[2] else "false"
        if rng.random() < 0.5:
            flag = "odd_trivial" + sp() + "=" + sp() + flag
        text = "fano" + sp() + "(" + sp() + str(node[1]) + ";" + sp() + flag + sp() + ")"
    elif head == "blowup":
        text = "blowup(%s;%s%s;%s%d)" % (
            noisy(node[1], rng), sp(), noisy(node[2], rng), sp(), node[3])
    elif head == "projbundle":
        text = "projbundle(%s;%s%d)" % (noisy(node[1], rng), sp(), node[2])
    elif head == "toric":
        text = "toric[" + ("," + sp()).join(map(str, node[1])) + "]"
    elif head == "Gr":
        text = "Gr(%s%d,%s%d%s)" % (sp(), node[1], sp(), node[2], sp())
    else:
        text = render(node)
    if rng.random() < 0.1:
        text = "(" + sp() + text + sp() + ")"
    return text


def term_text(terms: dict[int, int], symbol: str, scale: int = 1) -> str:
    """Text of a non-negative polynomial, e.g. ``1 + L + 2*L^2``; zero is ``0``."""
    parts = []
    for e in sorted(terms):
        c = terms[e]
        d = e * scale
        if d == 0:
            parts.append(str(c))
            continue
        sym = symbol if d == 1 else "%s^%d" % (symbol, d)
        parts.append(sym if c == 1 else "%d*%s" % (c, sym))
    return " + ".join(parts) if parts else "0"


def opaque_text(name: str, twist: int) -> str:
    if twist == 0:
        return "[%s]" % name
    if twist == 1:
        return "[%s*L]" % name
    return "[%s*L^%d]" % (name, twist)


# Exact linear algebra for the orbit workload: plain Gauss-Jordan elimination
# over Fraction, written here so no expected value flows through lefschetz.

def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def invert(mat):
    """Exact inverse by Gauss-Jordan elimination, None when singular."""
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

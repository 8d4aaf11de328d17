"""A catalog of varieties with known Tate-type motivic decompositions.

Expressions are immutable AST nodes; ``motive_of`` evaluates them to a
generalized motive (a Tate part plus possibly some named opaque summands),
``dimension_of`` gives the dimension, and ``exceptional_collection_of``
returns the known full exceptional collection or the Clifford-algebra
decomposition for quadrics, where defined.

Catalog formulas:

* projective space P^n:          1 + L + ... + L^n
* smooth quadric of dimension d: 1 + L + ... + L^d, one extra L^{d/2} when d
  is even (so rank d+1 for odd d, d+2 for even d)
* Grassmannian Gr(k, n):         Gaussian binomial [n choose k]_q with q = L;
  the coefficient of L^j counts partitions of j inside a k x (n-k) box
* smooth complete toric variety: even Betti numbers from the cone counts,
  b_{2k} = sum_{i=k}^{n} (-1)^{i-k} C(i, k) d_{n-i}; smoothness and
  completeness are the caller's assertion
* blowup along a smooth center of codimension c:
  M(X~) = M(X) + M(Z) L + ... + M(Z) L^{c-1}
* projectivized rank-r bundle:   M(P(E)) = M(X) (1 + L + ... + L^{r-1})
* genus-zero moduli M0(n), n <= 5: a point, the line, and the plane blown up
  in four points
* Fano threefold with Betti-number input b = b_2 = b_4: even part
  1 + b L + b L^2 + L^3 plus three opaque odd-weight summands unless they are
  asserted trivial

Opaque summands are never converted into Betti numbers; operations that need
complete cohomological data reject motives that still carry them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .sod import Collection, SODPiece, exceptional, opaque
from .tate import TateMotive, direct_sum, lefschetz, poincare, tensor
from . import sod


class InvalidParameterError(ValueError):
    """A catalog constructor was given out-of-range or ill-typed parameters."""


class CollectionUnavailableError(ValueError):
    """No full exceptional collection is known (or possible) for the input."""


class OpaqueMotiveError(ValueError):
    """The operation needs a pure Tate motive but opaque summands remain."""


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


class VarietyExpr:
    """Base class for catalog expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Point(VarietyExpr):
    pass


@dataclass(frozen=True)
class Projective(VarietyExpr):
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise InvalidParameterError("projective space needs n >= 0")


@dataclass(frozen=True)
class Quadric(VarietyExpr):
    d: int

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise InvalidParameterError("quadric needs dimension d >= 1")


@dataclass(frozen=True)
class Grassmannian(VarietyExpr):
    k: int
    n: int

    def __post_init__(self):
        if (
            not isinstance(self.k, int)
            or not isinstance(self.n, int)
            or not 0 < self.k < self.n
        ):
            raise InvalidParameterError("Grassmannian needs 0 < k < n")


@dataclass(frozen=True)
class Toric(VarietyExpr):
    """Cone counts by dimension: cone_counts[i] cones of dimension i."""

    cone_counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cone_counts", tuple(self.cone_counts))
        counts = self.cone_counts
        if not counts or any(not isinstance(c, int) or c < 1 for c in counts):
            raise InvalidParameterError("cone counts must be positive integers")
        if counts[0] != 1:
            raise InvalidParameterError("a fan has exactly one zero-dimensional cone")


@dataclass(frozen=True)
class Product(VarietyExpr):
    left: VarietyExpr
    right: VarietyExpr

    def __post_init__(self):
        _check_expr(self.left)
        _check_expr(self.right)


@dataclass(frozen=True)
class DisjointUnion(VarietyExpr):
    left: VarietyExpr
    right: VarietyExpr

    def __post_init__(self):
        _check_expr(self.left)
        _check_expr(self.right)


@dataclass(frozen=True)
class Blowup(VarietyExpr):
    """Blowup of ``base`` along a smooth ``center`` of codimension ``codim``.

    The codimension must be >= 2 and must equal the dimension gap, otherwise
    the motive formula does not describe a blowup.
    """

    base: VarietyExpr
    center: VarietyExpr
    codim: int

    def __post_init__(self):
        _check_expr(self.base)
        _check_expr(self.center)
        if not isinstance(self.codim, int) or self.codim < 2:
            raise InvalidParameterError("blowup center must have codimension >= 2")
        gap = dimension_of(self.base) - dimension_of(self.center)
        if gap != self.codim:
            raise InvalidParameterError(
                "stated codimension %d does not match the dimension gap %d"
                % (self.codim, gap)
            )


@dataclass(frozen=True)
class ProjBundle(VarietyExpr):
    """Projectivization of a rank ``fiber_rank`` vector bundle on ``base``."""

    base: VarietyExpr
    fiber_rank: int

    def __post_init__(self):
        _check_expr(self.base)
        if not isinstance(self.fiber_rank, int) or self.fiber_rank < 1:
            raise InvalidParameterError("bundle rank must be >= 1")


@dataclass(frozen=True)
class ModuliM0(VarietyExpr):
    """Moduli of genus-zero stable curves with n marked points, n <= 5."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or not 3 <= self.n <= 5:
            raise InvalidParameterError("marked points n must be 3, 4 or 5")


@dataclass(frozen=True)
class Fano3fold(VarietyExpr):
    """A Fano threefold recorded by b = b_2 = b_4 and an odd-vanishing flag."""

    b: int
    odd_trivial: bool

    def __post_init__(self):
        if not isinstance(self.b, int) or self.b < 0:
            raise InvalidParameterError("Betti input b must be >= 0")
        if not isinstance(self.odd_trivial, bool):
            raise InvalidParameterError("odd_trivial must be a boolean")


def _check_expr(e) -> None:
    if not isinstance(e, VarietyExpr):
        raise InvalidParameterError("expected a variety expression, got %r" % (e,))


def dimension_of(e: VarietyExpr) -> int:
    """Dimension of the underlying variety; unions take the maximum."""
    if isinstance(e, Point):
        return 0
    if isinstance(e, Projective):
        return e.n
    if isinstance(e, Quadric):
        return e.d
    if isinstance(e, Grassmannian):
        return e.k * (e.n - e.k)
    if isinstance(e, Toric):
        return len(e.cone_counts) - 1
    if isinstance(e, Product):
        return dimension_of(e.left) + dimension_of(e.right)
    if isinstance(e, DisjointUnion):
        return max(dimension_of(e.left), dimension_of(e.right))
    if isinstance(e, Blowup):
        return dimension_of(e.base)
    if isinstance(e, ProjBundle):
        return dimension_of(e.base) + e.fiber_rank - 1
    if isinstance(e, ModuliM0):
        return e.n - 3
    if isinstance(e, Fano3fold):
        return 3
    raise TypeError("unknown expression node %r" % type(e).__name__)


def _gaussian_binomial(n: int, k: int) -> dict[int, int]:
    """Coefficients of the q-binomial [n choose k]_q via the q-Pascal rule."""
    # row[j] holds [i choose j]_q while i runs from 0 to n
    row: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(k)]
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            # [i j]_q = [i-1 j-1]_q + q^j [i-1 j]_q
            acc = dict(row[j - 1])
            for e, c in row[j].items():
                acc[e + j] = acc.get(e + j, 0) + c
            row[j] = acc
    return row[k]


def _toric_betti(cone_counts: tuple[int, ...]) -> list[int]:
    """Even Betti numbers from cone counts, b[k] = dim H^{2k}."""
    n = len(cone_counts) - 1
    betti = []
    for k in range(n + 1):
        b = sum(
            (-1) ** (i - k) * comb(i, k) * cone_counts[n - i] for i in range(k, n + 1)
        )
        betti.append(b)
    return betti


def _m0_space(n: int) -> VarietyExpr:
    if n == 3:
        return Point()
    if n == 4:
        return Projective(1)
    four_points = DisjointUnion(
        DisjointUnion(Point(), Point()), DisjointUnion(Point(), Point())
    )
    return Blowup(Projective(2), four_points, 2)


def motive_of(e: VarietyExpr) -> GeneralizedMotive:
    """Evaluate an expression to its generalized motive."""
    if isinstance(e, Point):
        return GeneralizedMotive(TateMotive({0: 1}))
    if isinstance(e, Projective):
        return GeneralizedMotive(TateMotive({i: 1 for i in range(e.n + 1)}))
    if isinstance(e, Quadric):
        terms = {i: 1 for i in range(e.d + 1)}
        if e.d % 2 == 0:
            terms[e.d // 2] += 1
        return GeneralizedMotive(TateMotive(terms))
    if isinstance(e, Grassmannian):
        return GeneralizedMotive(TateMotive(_gaussian_binomial(e.n, e.k)))
    if isinstance(e, Toric):
        betti = _toric_betti(e.cone_counts)
        if any(b < 0 for b in betti):
            raise InvalidParameterError(
                "cone counts %r give a negative Betti number" % (e.cone_counts,)
            )
        return GeneralizedMotive(TateMotive(dict(enumerate(betti))))
    if isinstance(e, Product):
        return motive_of(e.left) * motive_of(e.right)
    if isinstance(e, DisjointUnion):
        return motive_of(e.left) + motive_of(e.right)
    if isinstance(e, Blowup):
        out = motive_of(e.base)
        center = motive_of(e.center)
        for i in range(1, e.codim):
            out = out + center * GeneralizedMotive(lefschetz(i))
        return out
    if isinstance(e, ProjBundle):
        base = motive_of(e.base)
        out = base
        for i in range(1, e.fiber_rank):
            out = out + base * GeneralizedMotive(lefschetz(i))
        return out
    if isinstance(e, ModuliM0):
        return motive_of(_m0_space(e.n))
    if isinstance(e, Fano3fold):
        tate = TateMotive({0: 1, 1: e.b, 2: e.b, 3: 1})
        if e.odd_trivial:
            return GeneralizedMotive(tate)
        parts = (
            OpaquePart("M^1(X)", odd=True),
            OpaquePart("M^1(J)", odd=True, twist=1),
            OpaquePart("M^5(X)", odd=True),
        )
        return GeneralizedMotive(tate, parts)
    raise TypeError("unknown expression node %r" % type(e).__name__)


def _line_bundles(first: int) -> list[SODPiece]:
    """O(first), O(first+1), ..., O(-1), O with first <= 0."""
    return [
        exceptional("O" if k == 0 else "O(%d)" % k) for k in range(first, 1)
    ]


def _generic_labels(count: int) -> Collection:
    return Collection(tuple(exceptional("E%d" % (i + 1)) for i in range(count)))


def exceptional_collection_of(
    e: VarietyExpr, *, quadric_variant: str = "split"
) -> Collection:
    """The known decomposition of the derived category, where the catalog has one.

    ``quadric_variant`` selects between the split form of the quadric
    collection (spinor bundles plus line bundles, a full exceptional
    collection) and the Kuznetsov form (an opaque even Clifford algebra piece
    of initially unknown rank plus line bundles).  Expressions with no known
    collection raise CollectionUnavailableError.
    """
    if quadric_variant not in ("split", "kuznetsov"):
        raise ValueError("quadric_variant must be 'split' or 'kuznetsov'")
    if isinstance(e, Point):
        return Collection((exceptional("O"),))
    if isinstance(e, Projective):
        return Collection(tuple(_line_bundles(-e.n)))
    if isinstance(e, Quadric):
        tail = _line_bundles(-e.d + 1)
        if quadric_variant == "kuznetsov":
            head = [opaque("Cl0(Q_%d)" % e.d)]
        elif e.d % 2 == 1:
            head = [exceptional("Sigma(%d)" % -e.d)]
        else:
            head = [
                exceptional("Sigma+(%d)" % -e.d),
                exceptional("Sigma-(%d)" % -e.d),
            ]
        return Collection(tuple(head + tail))
    if isinstance(e, Toric):
        return _generic_labels(motive_of(e).tate.rank)
    if isinstance(e, DisjointUnion):
        left = exceptional_collection_of(e.left, quadric_variant=quadric_variant)
        right = exceptional_collection_of(e.right, quadric_variant=quadric_variant)
        return Collection(left.pieces + right.pieces)
    if isinstance(e, ModuliM0):
        if e.n <= 4:
            return exceptional_collection_of(
                _m0_space(e.n), quadric_variant=quadric_variant
            )
        return _generic_labels(motive_of(e).tate.rank)
    if isinstance(e, Fano3fold):
        if not e.odd_trivial:
            raise CollectionUnavailableError(
                "odd-weight summands were not asserted trivial, so no full "
                "exceptional collection is available"
            )
        return _generic_labels(2 + 2 * e.b)
    raise CollectionUnavailableError(
        "no collection in the catalog for %s" % type(e).__name__
    )


def fec_verdict(e: VarietyExpr) -> sod.FecVerdict:
    """Run the full-exceptional-collection obstruction check on an expression.

    An odd opaque summand fails immediately; otherwise the Betti data of the
    Tate part is checked, against the catalog collection length when one
    exists and unconditionally when none does.
    """
    gm = motive_of(e)
    if any(p.odd for p in gm.opaque):
        return sod.FecVerdict(sod.FEC_FAILS_ODD)
    if gm.opaque:
        raise OpaqueMotiveError(
            "motive still has opaque summands; Betti data is incomplete"
        )
    betti = poincare(gm.tate)
    try:
        bound = len(exceptional_collection_of(e))
    except CollectionUnavailableError:
        bound = None
    return sod.fec_obstruction(betti, bound)


_KINDS: dict[str, type] = {
    "point": Point,
    "projective": Projective,
    "quadric": Quadric,
    "grassmannian": Grassmannian,
    "toric": Toric,
    "product": Product,
    "disjoint_union": DisjointUnion,
    "blowup": Blowup,
    "proj_bundle": ProjBundle,
    "moduli_m0": ModuliM0,
    "fano3fold": Fano3fold,
}


def expr_to_json(e: VarietyExpr) -> dict:
    """Structural JSON mirror of the AST."""
    if isinstance(e, Point):
        return {"kind": "point"}
    if isinstance(e, Projective):
        return {"kind": "projective", "n": e.n}
    if isinstance(e, Quadric):
        return {"kind": "quadric", "d": e.d}
    if isinstance(e, Grassmannian):
        return {"kind": "grassmannian", "k": e.k, "n": e.n}
    if isinstance(e, Toric):
        return {"kind": "toric", "cone_counts": list(e.cone_counts)}
    if isinstance(e, Product):
        return {
            "kind": "product",
            "left": expr_to_json(e.left),
            "right": expr_to_json(e.right),
        }
    if isinstance(e, DisjointUnion):
        return {
            "kind": "disjoint_union",
            "left": expr_to_json(e.left),
            "right": expr_to_json(e.right),
        }
    if isinstance(e, Blowup):
        return {
            "kind": "blowup",
            "base": expr_to_json(e.base),
            "center": expr_to_json(e.center),
            "codim": e.codim,
        }
    if isinstance(e, ProjBundle):
        return {
            "kind": "proj_bundle",
            "base": expr_to_json(e.base),
            "fiber_rank": e.fiber_rank,
        }
    if isinstance(e, ModuliM0):
        return {"kind": "moduli_m0", "n": e.n}
    if isinstance(e, Fano3fold):
        return {"kind": "fano3fold", "b": e.b, "odd_trivial": e.odd_trivial}
    raise TypeError("unknown expression node %r" % type(e).__name__)


def expr_from_json(data: dict) -> VarietyExpr:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("expression JSON needs a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError("unknown expression kind %r" % (kind,))

    def field(name: str):
        if name not in data:
            raise ValueError("%s expression JSON needs a field %r" % (kind, name))
        return data[name]

    if kind == "point":
        return Point()
    if kind == "projective":
        return Projective(field("n"))
    if kind == "quadric":
        return Quadric(field("d"))
    if kind == "grassmannian":
        return Grassmannian(field("k"), field("n"))
    if kind == "toric":
        counts = field("cone_counts")
        if not isinstance(counts, list):
            raise ValueError("toric expression JSON needs 'cone_counts' as a list")
        return Toric(tuple(counts))
    if kind == "product":
        return Product(expr_from_json(field("left")), expr_from_json(field("right")))
    if kind == "disjoint_union":
        return DisjointUnion(
            expr_from_json(field("left")), expr_from_json(field("right"))
        )
    if kind == "blowup":
        return Blowup(
            expr_from_json(field("base")),
            expr_from_json(field("center")),
            field("codim"),
        )
    if kind == "proj_bundle":
        return ProjBundle(expr_from_json(field("base")), field("fiber_rank"))
    if kind == "moduli_m0":
        return ModuliM0(field("n"))
    return Fano3fold(field("b"), field("odd_trivial"))

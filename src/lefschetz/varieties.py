"""A catalog of varieties with known Tate-type motivic decompositions.

Expressions are immutable AST nodes; ``motive_of`` evaluates them to a
generalized motive (a Tate part plus possibly some named opaque summands),
``dimension_of`` gives the dimension, and ``exceptional_collection_of``
returns the known full exceptional collection or the Clifford-algebra
decomposition for quadrics, where defined.

Each node class holds its own catalog entry: its JSON ``kind`` and the
methods ``_dimension``, ``_motive`` and ``_collection(variant)``, which call
the same methods of the children directly.  The public functions are entry
points into those methods.  The JSON form is generic over the dataclass
fields: a field holding an expression nests, a tuple field is a JSON list.

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

from dataclasses import dataclass, fields
from math import comb
from typing import get_origin, get_type_hints

from .sod import Collection, SODPiece, exceptional, opaque
from .tate import (
    DomainError,
    TateMotive,
    direct_sum,
    is_int,
    lefschetz,
    poincare,
    tensor,
)
from . import sod


class InvalidParameterError(ValueError):
    """A catalog constructor was given out-of-range or ill-typed parameters."""


class CollectionUnavailableError(DomainError):
    """No full exceptional collection is known (or possible) for the input."""


class OpaqueMotiveError(DomainError):
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


def _line_bundles(first: int) -> list[SODPiece]:
    """O(first), O(first+1), ..., O(-1), O with first <= 0."""
    return [
        exceptional("O" if k == 0 else "O(%d)" % k) for k in range(first, 1)
    ]


def _generic_labels(count: int) -> Collection:
    return Collection(tuple(exceptional("E%d" % (i + 1)) for i in range(count)))


class VarietyExpr:
    """Base class for catalog expressions.

    Each node class is a frozen dataclass that carries its JSON ``kind`` and
    its catalog entry as three methods: ``_dimension``, ``_motive`` and
    ``_collection(variant)``.  A node calls its children's methods directly.
    The base methods reject a node outside the catalog; a node with no known
    collection keeps the base ``_collection``.  ``_fields`` is filled in for
    every node class once all are defined (see ``_register``).
    """

    __slots__ = ()
    kind = None
    _fields: tuple = ()

    def __post_init__(self):
        """Check that each expression-typed field holds an expression."""
        for name, typ in self._fields:
            if typ is VarietyExpr:
                _check_expr(getattr(self, name))

    def _dimension(self) -> int:
        raise TypeError("unknown expression node %r" % type(self).__name__)

    def _motive(self) -> GeneralizedMotive:
        raise TypeError("unknown expression node %r" % type(self).__name__)

    def _collection(self, variant: str) -> Collection:
        raise CollectionUnavailableError(
            "no collection in the catalog for %s" % type(self).__name__
        )


@dataclass(frozen=True)
class Point(VarietyExpr):
    kind = "point"

    def _dimension(self) -> int:
        return 0

    def _motive(self) -> GeneralizedMotive:
        return GeneralizedMotive(TateMotive({0: 1}))

    def _collection(self, variant: str) -> Collection:
        return Collection((exceptional("O"),))


@dataclass(frozen=True)
class Projective(VarietyExpr):
    n: int
    kind = "projective"

    def __post_init__(self):
        if not is_int(self.n) or self.n < 0:
            raise InvalidParameterError("projective space needs n >= 0")

    def _dimension(self) -> int:
        return self.n

    def _motive(self) -> GeneralizedMotive:
        return GeneralizedMotive(TateMotive({i: 1 for i in range(self.n + 1)}))

    def _collection(self, variant: str) -> Collection:
        return Collection(tuple(_line_bundles(-self.n)))


@dataclass(frozen=True)
class Quadric(VarietyExpr):
    d: int
    kind = "quadric"

    def __post_init__(self):
        if not is_int(self.d) or self.d < 1:
            raise InvalidParameterError("quadric needs dimension d >= 1")

    def _dimension(self) -> int:
        return self.d

    def _motive(self) -> GeneralizedMotive:
        terms = {i: 1 for i in range(self.d + 1)}
        if self.d % 2 == 0:
            terms[self.d // 2] += 1
        return GeneralizedMotive(TateMotive(terms))

    def _collection(self, variant: str) -> Collection:
        tail = _line_bundles(-self.d + 1)
        if variant == "kuznetsov":
            head = [opaque("Cl0(Q_%d)" % self.d)]
        elif self.d % 2 == 1:
            head = [exceptional("Sigma(%d)" % -self.d)]
        else:
            head = [
                exceptional("Sigma+(%d)" % -self.d),
                exceptional("Sigma-(%d)" % -self.d),
            ]
        return Collection(tuple(head + tail))


@dataclass(frozen=True)
class Grassmannian(VarietyExpr):
    k: int
    n: int
    kind = "grassmannian"

    def __post_init__(self):
        if (
            not is_int(self.k)
            or not is_int(self.n)
            or not 0 < self.k < self.n
        ):
            raise InvalidParameterError("Grassmannian needs 0 < k < n")

    def _dimension(self) -> int:
        return self.k * (self.n - self.k)

    def _motive(self) -> GeneralizedMotive:
        return GeneralizedMotive(TateMotive(_gaussian_binomial(self.n, self.k)))


@dataclass(frozen=True)
class Toric(VarietyExpr):
    """Cone counts by dimension: cone_counts[i] cones of dimension i."""

    cone_counts: tuple[int, ...]
    kind = "toric"

    def __post_init__(self):
        object.__setattr__(self, "cone_counts", tuple(self.cone_counts))
        counts = self.cone_counts
        if not counts or any(not is_int(c) or c < 1 for c in counts):
            raise InvalidParameterError("cone counts must be positive integers")
        if counts[0] != 1:
            raise InvalidParameterError("a fan has exactly one zero-dimensional cone")

    def _dimension(self) -> int:
        return len(self.cone_counts) - 1

    def _motive(self) -> GeneralizedMotive:
        betti = _toric_betti(self.cone_counts)
        if any(b < 0 for b in betti):
            raise InvalidParameterError(
                "cone counts %r give a negative Betti number" % (self.cone_counts,)
            )
        return GeneralizedMotive(TateMotive(dict(enumerate(betti))))

    def _collection(self, variant: str) -> Collection:
        return _generic_labels(self._motive().tate.rank)


@dataclass(frozen=True)
class Product(VarietyExpr):
    left: VarietyExpr
    right: VarietyExpr
    kind = "product"

    def _dimension(self) -> int:
        return self.left._dimension() + self.right._dimension()

    def _motive(self) -> GeneralizedMotive:
        return self.left._motive() * self.right._motive()


@dataclass(frozen=True)
class DisjointUnion(VarietyExpr):
    left: VarietyExpr
    right: VarietyExpr
    kind = "disjoint_union"

    def _dimension(self) -> int:
        return max(self.left._dimension(), self.right._dimension())

    def _motive(self) -> GeneralizedMotive:
        return self.left._motive() + self.right._motive()

    def _collection(self, variant: str) -> Collection:
        left = self.left._collection(variant)
        right = self.right._collection(variant)
        return Collection(left.pieces + right.pieces)


@dataclass(frozen=True)
class Blowup(VarietyExpr):
    """Blowup of ``base`` along a smooth ``center`` of codimension ``codim``.

    The codimension must be >= 2 and must equal the dimension gap, otherwise
    the motive formula does not describe a blowup.
    """

    base: VarietyExpr
    center: VarietyExpr
    codim: int
    kind = "blowup"

    def __post_init__(self):
        super().__post_init__()
        if not is_int(self.codim) or self.codim < 2:
            raise InvalidParameterError("blowup center must have codimension >= 2")
        gap = self.base._dimension() - self.center._dimension()
        if gap != self.codim:
            raise InvalidParameterError(
                "stated codimension %d does not match the dimension gap %d"
                % (self.codim, gap)
            )

    def _dimension(self) -> int:
        return self.base._dimension()

    def _motive(self) -> GeneralizedMotive:
        out = self.base._motive()
        center = self.center._motive()
        for i in range(1, self.codim):
            out = out + center * GeneralizedMotive(lefschetz(i))
        return out


@dataclass(frozen=True)
class ProjBundle(VarietyExpr):
    """Projectivization of a rank ``fiber_rank`` vector bundle on ``base``."""

    base: VarietyExpr
    fiber_rank: int
    kind = "proj_bundle"

    def __post_init__(self):
        super().__post_init__()
        if not is_int(self.fiber_rank) or self.fiber_rank < 1:
            raise InvalidParameterError("bundle rank must be >= 1")

    def _dimension(self) -> int:
        return self.base._dimension() + self.fiber_rank - 1

    def _motive(self) -> GeneralizedMotive:
        base = self.base._motive()
        out = base
        for i in range(1, self.fiber_rank):
            out = out + base * GeneralizedMotive(lefschetz(i))
        return out


@dataclass(frozen=True)
class ModuliM0(VarietyExpr):
    """Moduli of genus-zero stable curves with n marked points, n <= 5."""

    n: int
    kind = "moduli_m0"

    def __post_init__(self):
        if not is_int(self.n) or not 3 <= self.n <= 5:
            raise InvalidParameterError("marked points n must be 3, 4 or 5")

    def _space(self) -> VarietyExpr:
        """A point, the line, and the plane blown up in four points."""
        if self.n == 3:
            return Point()
        if self.n == 4:
            return Projective(1)
        four_points = DisjointUnion(
            DisjointUnion(Point(), Point()), DisjointUnion(Point(), Point())
        )
        return Blowup(Projective(2), four_points, 2)

    def _dimension(self) -> int:
        return self.n - 3

    def _motive(self) -> GeneralizedMotive:
        return self._space()._motive()

    def _collection(self, variant: str) -> Collection:
        if self.n <= 4:
            return self._space()._collection(variant)
        return _generic_labels(self._motive().tate.rank)


@dataclass(frozen=True)
class Fano3fold(VarietyExpr):
    """A Fano threefold recorded by b = b_2 = b_4 and an odd-vanishing flag."""

    b: int
    odd_trivial: bool
    kind = "fano3fold"

    def __post_init__(self):
        if not is_int(self.b) or self.b < 0:
            raise InvalidParameterError("Betti input b must be >= 0")
        if not isinstance(self.odd_trivial, bool):
            raise InvalidParameterError("odd_trivial must be a boolean")

    def _dimension(self) -> int:
        return 3

    def _motive(self) -> GeneralizedMotive:
        tate = TateMotive({0: 1, 1: self.b, 2: self.b, 3: 1})
        if self.odd_trivial:
            return GeneralizedMotive(tate)
        parts = (
            OpaquePart("M^1(X)", odd=True),
            OpaquePart("M^1(J)", odd=True, twist=1),
            OpaquePart("M^5(X)", odd=True),
        )
        return GeneralizedMotive(tate, parts)

    def _collection(self, variant: str) -> Collection:
        if not self.odd_trivial:
            raise CollectionUnavailableError(
                "odd-weight summands were not asserted trivial, so no full "
                "exceptional collection is available"
            )
        return _generic_labels(2 + 2 * self.b)


def _check_expr(e) -> None:
    if not isinstance(e, VarietyExpr):
        raise InvalidParameterError("expected a variety expression, got %r" % (e,))


def _node_class(e) -> type:
    """The class whose methods evaluate ``e``.

    Anything that is not an expression gets the base class, whose methods
    raise the errors for an unknown node.
    """
    cls = type(e)
    return cls if issubclass(cls, VarietyExpr) else VarietyExpr


def dimension_of(e: VarietyExpr) -> int:
    """Dimension of the underlying variety; unions take the maximum."""
    return _node_class(e)._dimension(e)


def motive_of(e: VarietyExpr) -> GeneralizedMotive:
    """Evaluate an expression to its generalized motive."""
    return _node_class(e)._motive(e)


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
    return _node_class(e)._collection(e, quadric_variant)


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


def _register() -> dict[str, type]:
    """Give each node class its ``_fields`` and map each JSON kind to its class.

    ``_fields`` holds ``(name, type)`` per dataclass field, in order, with
    ``tuple[int, ...]`` recorded as ``tuple``.  The JSON form and the
    expression language both walk a node through it.
    """
    kinds = {}
    for cls in VarietyExpr.__subclasses__():
        hints = get_type_hints(cls)
        cls._fields = tuple(
            (f.name, get_origin(hints[f.name]) or hints[f.name]) for f in fields(cls)
        )
        kinds[cls.kind] = cls
    return kinds


_KINDS: dict[str, type] = _register()


def _to_json(e) -> dict:
    kind = getattr(e, "kind", None)
    if kind is None:
        raise TypeError("unknown expression node %r" % type(e).__name__)
    out = {"kind": kind}
    for name, typ in e._fields:
        value = getattr(e, name)
        if typ is VarietyExpr:
            value = _to_json(value)
        elif typ is tuple:
            value = list(value)
        out[name] = value
    return out


def _from_json(data) -> VarietyExpr:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("expression JSON needs a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError("unknown expression kind %r" % (kind,))
    cls = _KINDS[kind]
    args = []
    for name, typ in cls._fields:
        if name not in data:
            raise ValueError("%s expression JSON needs a field %r" % (kind, name))
        value = data[name]
        if typ is VarietyExpr:
            value = _from_json(value)
        elif typ is tuple and not isinstance(value, list):
            raise ValueError("%s expression JSON needs %r as a list" % (kind, name))
        args.append(value)
    return cls(*args)


def expr_to_json(e: VarietyExpr) -> dict:
    """Structural JSON mirror of the AST: the kind, then each field in order."""
    return _to_json(e)


def expr_from_json(data: dict) -> VarietyExpr:
    return _from_json(data)

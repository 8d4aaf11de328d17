"""A catalog of varieties with known Tate-type motivic decompositions.

Expressions are immutable AST nodes; ``motive_of`` evaluates them to a
generalized motive (a Tate part plus possibly some named opaque summands),
``dimension_of`` gives the dimension, and ``exceptional_collection_of``
returns the known full exceptional collection or the Clifford-algebra
decomposition for quadrics, where defined.

Each node class lists its fields in ``_fields`` and holds its own catalog
entry: its JSON ``kind``, its text ``syntax`` (the head and canonical
template that ``exprlang`` parses and renders), its parameter checks in
``_check`` and the methods ``_dimension``, ``_motive`` and
``_collection(variant)``.  A method
never visits a child: ``_dimension`` and ``_motive`` take the results of
the node's children.  One function, ``_fold``, walks a tree, children
first and on an explicit stack, and ``dimension_of``, ``motive_of``,
``expr_to_json``, ``exprlang.render_expr`` and ``==``, ``hash`` and
``repr`` all go through it, so no depth of tree exhausts the Python stack.
``exceptional_collection_of`` folds a tree to the summands of its top-level
disjoint union and asks each summand for its collection.  The JSON form is
generic over the fields: a field holding an expression nests, a tuple field
is a JSON list; ``expr_from_json`` builds a tree from it on an explicit
stack, and the text parser emits that form too.

``dimension_of``, ``motive_of`` and ``exceptional_collection_of`` (once per
quadric variant) each answer once per tree: the first result is kept on the
node the call was given, in an attribute outside ``_fields``, and returned
by every later call.  There is no global cache; the memo lives and dies
with the tree.  ``==``, ``hash``, ``repr``, copies and pickles read only the
fields, so they do not see it.  Nodes, motives and collections are
immutable, so the first answer stays right.  A call that raises keeps
nothing, so it raises again the next time.

Catalog formulas:

* projective space P^n:          1 + L + ... + L^n
* smooth quadric of dimension d: 1 + L + ... + L^d, one extra L^{d/2} when d
  is even (so rank d+1 for odd d, d+2 for even d)
* Grassmannian Gr(k, n):         Gaussian binomial [n choose k]_q with q = L;
  the coefficient of L^j counts partitions of j inside a k x (n-k) box,
  computed by the product formula prod_{i=1..k} (1 - q^{n-k+i}) / (1 - q^i)
* smooth complete toric variety: even Betti numbers from the cone counts,
  b_{2k} = sum_{i=k}^{n} (-1)^{i-k} C(i, k) d_{n-i}; smoothness and
  completeness are the caller's assertion
* blowup along a smooth center of codimension c:
  M(X~) = M(X) + M(Z) L + ... + M(Z) L^{c-1}
* projectivized rank-r bundle:   M(P(E)) = M(X) (1 + L + ... + L^{r-1})
* genus-zero moduli M0(n), n <= 5: a point, the line, and the plane blown up
  in four points, read from a table of their three motives
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
    """A catalog constructor was given out-of-range or ill-typed parameters.

    Raised from ``expr_from_json``, it carries ``path``, the node path of the
    node whose constructor refused (the root is ``$``).
    """


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
    """Coefficients of the q-binomial [n choose k]_q by the product formula.

    [n k]_q = prod_{i=1..k} (1 - q^{n-k+i}) / (1 - q^i), on one list of
    coefficients: a running difference multiplies by 1 - q^{n-k+i}, and a
    running sum divides by 1 - q^i exactly.
    """
    # [n k]_q = [n n-k]_q, and the smaller k takes fewer passes
    k, r = sorted((k, n - k))
    c = [1] + [0] * (k * (r + 1))
    for i in range(1, k + 1):
        # the product up to factor i - 1 has degree (i - 1) r, so times
        # 1 - q^m it has degree top ...
        m, top = r + i, i * (r + 1)
        for j in range(top, m - 1, -1):
            c[j] -= c[j - m]
        # ... and dividing by 1 - q^i leaves its top i coefficients zero
        for j in range(i, top + 1):
            c[j] += c[j - i]
    return dict(enumerate(c[: k * r + 1]))


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

    Each node class lists its fields in ``_fields`` as ``(name, type)``
    pairs, in order; the type is ``VarietyExpr`` for a child expression,
    else ``int``, ``tuple`` (of ints) or ``bool``.  The base class builds a
    node from them: it checks that each child is an expression, stores a
    tuple field as a tuple, runs the class's ``_check`` and then refuses
    assignment.  ``==``, ``hash`` and ``repr`` follow the fields.

    A node class also carries its JSON ``kind``, its text ``syntax`` and its
    catalog entry: the methods ``_dimension`` and ``_motive``, which take
    the results of the node's children in field order, and
    ``_collection(variant)`` where the catalog knows a collection.  No
    method visits a child: ``_fold`` does, children first.  The base methods
    reject a node outside the catalog.

    ``syntax`` is ``(head, template, binding)``: the name or operator that
    ``exprlang`` reads, the canonical text with one ``%s`` per field, in
    field order, and how tightly an operator binds ('+' looser than '*';
    None for a constructor).  A bool field is written ``name=true`` or
    ``name=false``.
    """

    kind = None
    syntax = None
    _fields: tuple = ()
    _children: tuple = ()

    def __init_subclass__(cls):
        cls._children = tuple(name for name, typ in cls._fields if typ is VarietyExpr)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            names = [name for name, _ in self._fields]
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
            if kwargs or len(args) != len(names):
                raise TypeError("%s takes the fields %s" % (type(self).__name__, names))
        for (name, typ), value in zip(self._fields, args):
            if typ is VarietyExpr and not isinstance(value, VarietyExpr):
                raise InvalidParameterError(
                    "expected a variety expression, got %r" % (value,)
                )
            object.__setattr__(self, name, tuple(value) if typ is tuple else value)
        self._check()

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _labels(self) == _labels(other)

    def __hash__(self):
        return hash(tuple(_labels(self)))

    def __repr__(self):
        return _fold(self, VarietyExpr._repr)

    # Nodes are immutable, so a copy is the node itself, and a pickle holds
    # the flat ``_labels`` list, so no depth of tree recurses in either.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return _from_labels, (_labels(self),)

    def _check(self) -> None:
        """Raise InvalidParameterError for out-of-range fields."""

    def _items(self, children) -> list:
        """``(name, type, value)`` per field, a child's value taken from ``children``."""
        children = iter(children)
        return [
            (name, typ, next(children) if typ is VarietyExpr else getattr(self, name))
            for name, typ in self._fields
        ]

    def _repr(self, *children: str) -> str:
        # one join, so a long chain copies each child's text only once
        parts = [type(self).__qualname__, "("]
        for i, (name, typ, value) in enumerate(self._items(children)):
            text = value if typ is VarietyExpr else repr(value)
            parts += (", " if i else "", name, "=", text)
        parts.append(")")
        return "".join(parts)

    def _json(self, *children: dict) -> dict:
        if self.kind is None:
            raise TypeError("unknown expression node %r" % type(self).__name__)
        out = {"kind": self.kind}
        for name, typ, value in self._items(children):
            out[name] = list(value) if typ is tuple else value
        return out

    def _summands(self, *children: list) -> list:
        """The summands of this node as a disjoint union, left to right."""
        return [self]

    def _dimension(self, *children: int) -> int:
        raise TypeError("unknown expression node %r" % type(self).__name__)

    def _motive(self, *children: GeneralizedMotive) -> GeneralizedMotive:
        raise TypeError("unknown expression node %r" % type(self).__name__)

    def _collection(self, variant: str) -> Collection:
        raise CollectionUnavailableError(
            "no collection in the catalog for %s" % type(self).__name__
        )


def _fold(e: VarietyExpr, step):
    """``step(node, *results of its children)`` at every node; the root's result.

    The one walk over an expression tree.  It lists the nodes on an explicit
    stack, root first and each right child before its left sibling, so the
    reversed list has every node after its children, left to right, and a
    node's children's results are the last ones on ``results`` when its turn
    comes.  Nothing recurses, so the depth of the tree does not matter.
    """
    if not isinstance(e, VarietyExpr):
        raise TypeError("unknown expression node %r" % type(e).__name__)
    nodes = []
    todo = [e]
    while todo:
        node = todo.pop()
        nodes.append(node)
        for name in node._children:
            todo.append(getattr(node, name))
    results = []
    for node in reversed(nodes):
        at = len(results) - len(node._children)
        results[at:] = [step(node, *results[at:])]
    return results[0]


def _labels(e: VarietyExpr) -> list:
    """Each node's class and fields, children first, with ``None`` for a child.

    The number of children is fixed per class, so equal lists mean equal
    trees.
    """
    labels = []
    _fold(e, lambda node, *children: labels.append((type(node), *node._items(children))))
    return labels


def _from_labels(labels: list) -> VarietyExpr:
    """The tree whose ``_labels`` are ``labels``, built on an explicit stack."""
    built = []
    for cls, *items in labels:
        at = len(built) - len(cls._children)
        children = iter(built[at:])
        args = [next(children) if typ is VarietyExpr else value for _, typ, value in items]
        built[at:] = [cls(*args)]
    return built[0]


class Point(VarietyExpr):
    kind = "point"
    syntax = ("point", "point", None)

    def _dimension(self) -> int:
        return 0

    def _motive(self) -> GeneralizedMotive:
        return GeneralizedMotive(TateMotive({0: 1}))

    def _collection(self, variant: str) -> Collection:
        return Collection((exceptional("O"),))


class Projective(VarietyExpr):
    kind = "projective"
    syntax = ("P", "P(%s)", None)
    _fields = (("n", int),)

    def _check(self):
        if not is_int(self.n) or self.n < 0:
            raise InvalidParameterError("projective space needs n >= 0")

    def _dimension(self) -> int:
        return self.n

    def _motive(self) -> GeneralizedMotive:
        return GeneralizedMotive(TateMotive({i: 1 for i in range(self.n + 1)}))

    def _collection(self, variant: str) -> Collection:
        return Collection(tuple(_line_bundles(-self.n)))


class Quadric(VarietyExpr):
    kind = "quadric"
    syntax = ("Q", "Q(%s)", None)
    _fields = (("d", int),)

    def _check(self):
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


class Grassmannian(VarietyExpr):
    kind = "grassmannian"
    syntax = ("Gr", "Gr(%s,%s)", None)
    _fields = (("k", int), ("n", int))

    def _check(self):
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


class Toric(VarietyExpr):
    """Cone counts by dimension: cone_counts[i] cones of dimension i."""

    kind = "toric"
    syntax = ("toric", "toric[%s]", None)
    _fields = (("cone_counts", tuple),)

    def _check(self):
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


class Product(VarietyExpr):
    kind = "product"
    syntax = ("*", "%s * %s", 2)
    _fields = (("left", VarietyExpr), ("right", VarietyExpr))

    def _dimension(self, left: int, right: int) -> int:
        return left + right

    def _motive(self, left, right) -> GeneralizedMotive:
        return left * right


class DisjointUnion(VarietyExpr):
    kind = "disjoint_union"
    syntax = ("+", "%s + %s", 1)
    _fields = (("left", VarietyExpr), ("right", VarietyExpr))

    def _summands(self, left: list, right: list) -> list:
        left += right
        return left

    def _dimension(self, left: int, right: int) -> int:
        return max(left, right)

    def _motive(self, left, right) -> GeneralizedMotive:
        return left + right


class Blowup(VarietyExpr):
    """Blowup of ``base`` along a smooth ``center`` of codimension ``codim``.

    The codimension must be >= 2 and must equal the dimension gap, otherwise
    the motive formula does not describe a blowup.
    """

    kind = "blowup"
    syntax = ("blowup", "blowup(%s; %s; %s)", None)
    _fields = (("base", VarietyExpr), ("center", VarietyExpr), ("codim", int))

    def _check(self):
        if not is_int(self.codim) or self.codim < 2:
            raise InvalidParameterError("blowup center must have codimension >= 2")
        gap = dimension_of(self.base) - dimension_of(self.center)
        if gap != self.codim:
            raise InvalidParameterError(
                "stated codimension %d does not match the dimension gap %d"
                % (self.codim, gap)
            )

    def _dimension(self, base: int, center: int) -> int:
        return base

    def _motive(self, base, center) -> GeneralizedMotive:
        out = base
        for i in range(1, self.codim):
            out = out + center * GeneralizedMotive(lefschetz(i))
        return out


class ProjBundle(VarietyExpr):
    """Projectivization of a rank ``fiber_rank`` vector bundle on ``base``."""

    kind = "proj_bundle"
    syntax = ("projbundle", "projbundle(%s; %s)", None)
    _fields = (("base", VarietyExpr), ("fiber_rank", int))

    def _check(self):
        if not is_int(self.fiber_rank) or self.fiber_rank < 1:
            raise InvalidParameterError("bundle rank must be >= 1")

    def _dimension(self, base: int) -> int:
        return base + self.fiber_rank - 1

    def _motive(self, base) -> GeneralizedMotive:
        out = base
        for i in range(1, self.fiber_rank):
            out = out + base * GeneralizedMotive(lefschetz(i))
        return out


class ModuliM0(VarietyExpr):
    """Moduli of genus-zero stable curves with n marked points, n <= 5."""

    kind = "moduli_m0"
    syntax = ("M0", "M0(%s)", None)
    _fields = (("n", int),)

    def _check(self):
        if not is_int(self.n) or not 3 <= self.n <= 5:
            raise InvalidParameterError("marked points n must be 3, 4 or 5")

    # M0(3) is a point and M0(4) the line; M0(5) is the plane blown up in
    # four points, so its motive is 1 + L + L^2 plus one L per point, of
    # rank 7.
    _TERMS = {3: {0: 1}, 4: {0: 1, 1: 1}, 5: {0: 1, 1: 5, 2: 1}}

    def _dimension(self) -> int:
        return self.n - 3

    def _motive(self) -> GeneralizedMotive:
        return GeneralizedMotive(TateMotive(self._TERMS[self.n]))

    def _collection(self, variant: str) -> Collection:
        if self.n <= 4:
            return Collection(tuple(_line_bundles(3 - self.n)))
        return _generic_labels(7)


class Fano3fold(VarietyExpr):
    """A Fano threefold recorded by b = b_2 = b_4 and an odd-vanishing flag."""

    kind = "fano3fold"
    syntax = ("fano", "fano(%s; %s)", None)
    _fields = (("b", int), ("odd_trivial", bool))

    def _check(self):
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


_KINDS = {cls.kind: cls for cls in VarietyExpr.__subclasses__()}


def _memoized(e: VarietyExpr, name: str, compute):
    """``compute(e)``, kept on ``e`` under ``name`` once it has returned.

    A call that raises keeps nothing, so the next one raises again.
    """
    if not isinstance(e, VarietyExpr):
        return compute(e)  # raises the TypeError of a node outside the catalog
    memo = e.__dict__
    if name not in memo:
        object.__setattr__(e, name, compute(e))
    return memo[name]


def _fold_dimension(e: VarietyExpr) -> int:
    return _fold(e, lambda node, *dims: node._dimension(*dims))


def _fold_motive(e: VarietyExpr) -> GeneralizedMotive:
    return _fold(e, lambda node, *parts: node._motive(*parts))


def dimension_of(e: VarietyExpr) -> int:
    """Dimension of the underlying variety; unions take the maximum."""
    return _memoized(e, "_dimension_memo", _fold_dimension)


def motive_of(e: VarietyExpr) -> GeneralizedMotive:
    """Evaluate an expression to its generalized motive."""
    return _memoized(e, "_motive_memo", _fold_motive)


# the attribute that keeps each quadric variant's collection
_COLLECTION_MEMO = {"split": "_split_memo", "kuznetsov": "_kuznetsov_memo"}


def _fold_collection(e: VarietyExpr, variant: str) -> Collection:
    if not isinstance(e, VarietyExpr):
        # the base class raises, as it does for a node outside the catalog
        return VarietyExpr._collection(e, variant)
    pieces = []
    for summand in _fold(e, lambda node, *parts: node._summands(*parts)):
        pieces += summand._collection(variant).pieces
    return Collection(tuple(pieces))


def exceptional_collection_of(
    e: VarietyExpr, *, quadric_variant: str = "split"
) -> Collection:
    """The known decomposition of the derived category, where the catalog has one.

    ``quadric_variant`` selects between the split form of the quadric
    collection (spinor bundles plus line bundles, a full exceptional
    collection) and the Kuznetsov form (an opaque even Clifford algebra piece
    of initially unknown rank plus line bundles).  Expressions with no known
    collection raise CollectionUnavailableError.  The collection of a
    disjoint union joins those of its summands, left to right; the first
    summand without one raises, whatever its children.
    """
    if quadric_variant not in ("split", "kuznetsov"):
        raise ValueError("quadric_variant must be 'split' or 'kuznetsov'")
    return _memoized(
        e,
        _COLLECTION_MEMO[quadric_variant],
        lambda e: _fold_collection(e, quadric_variant),
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


def expr_to_json(e: VarietyExpr) -> dict:
    """Structural JSON mirror of the AST: the kind, then each field in order."""
    return _fold(e, lambda node, *children: node._json(*children))


def _frame(data, name: str) -> list:
    """``[class, JSON, field name, arguments so far]`` for one JSON node."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("expression JSON needs a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError("unknown expression kind %r" % (kind,))
    return [_KINDS[kind], data, name, []]


def expr_from_json(data: dict) -> VarietyExpr:
    """Build an expression from its JSON form, on an explicit stack.

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

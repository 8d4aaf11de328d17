"""A catalog of varieties with known Tate-type motivic decompositions.

Expressions are immutable AST nodes; ``motive_of`` evaluates them to a
generalized motive (a Tate part plus possibly some named opaque summands),
``dimension_of`` gives the dimension, and ``exceptional_collection_of``
returns the known full exceptional collection or the Clifford-algebra
decomposition for quadrics, where defined.

Each node class lists its fields in ``_fields`` and holds its own catalog
entry: its ``kind``, which marks it as an entry and keys ``_KINDS``, its
text ``syntax`` (the head and canonical template that ``exprlang`` parses
and renders), its parameter checks in ``_check`` and the methods
``_dimension``, ``_motive``, ``_pieces`` and ``_kuznetsov``.  A method
never visits a child: ``_dimension`` and ``_motive`` take the results of
the node's children.  ``_dimension`` runs once per node, when the node is
built: the constructor applies it to the children's ``dim`` and stores the
result as the node's own ``dim`` (a synthesized attribute), so a tree of
any depth gets its dimensions in one pass, bottom up, and ``dimension_of``
reads the root's.  The catalog is closed: a class without a ``kind``, the
base class included, refuses to build, so every node that exists is a
catalog entry and its ``dim`` an integer.  One function, ``_fold``, walks a
tree, children first and on an explicit stack, and ``motive_of``,
``exceptional_collection_of``, ``==`` and ``hash`` go through it.  Text is
written top down instead, by ``_expand`` on one explicit stack and joined once, so
``repr`` and ``exprlang.render_expr`` copy each piece of text once.  No
depth of tree exhausts the Python stack.
``exceptional_collection_of`` folds a tree to the summands of its top-level
disjoint union, ``_summands_of``, and asks each summand for its split
``_pieces`` and their ``_kuznetsov`` form.  A class that knows no
collection has ``_pieces`` None, so whether a tree has one is read off its
summands' classes: ``fec_verdict`` reads it so, takes the Tate rank as the
collection's length, and builds no collection.  One function,
``_from_labels``, builds every tree that does not come from the
constructors directly, on an explicit stack, from the flat post-order
labels that ``_labels`` lists: a pickle holds them, and the text parser
emits them.  Every node, from a constructor or a
label, is filled by one positional store, ``VarietyExpr._store``.

``motive_of`` and ``exceptional_collection_of`` each answer once per tree:
the first result is kept on the node the call was given, in an attribute
outside ``_fields``, and returned by every later call.  The collection's
first call keeps both quadric variants in one attribute, from one walk
over the summands that asks each summand the same two questions once.
There is no global cache; the memo lives and dies with the tree.
``==``, ``hash``, ``repr``, copies and pickles read only the fields, so
they see neither the memos nor ``dim``; a copy is the node itself, and a
pickle rebuilds the tree through the constructors, which set ``dim`` again.
Nodes, motives and collections are immutable, so the first answer stays
right.  A call that raises keeps nothing, so it raises again the next time.

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

A blowup and a bundle are sums of twists, built once by ``_twist_sum``:
``Blowup`` adds ``center L^i`` for i = 1 .. codim - 1 to its base, and
``ProjBundle`` is ``base L^i`` for i = 0 .. r - 1.  The Tate part is one
product with ``L^lo + ... + L^(hi-1)``, which packs (a sum of one twist
shifts its Tate part instead), and each opaque part object is twisted
once per exponent; the values, and the order of the opaque parts, are
those of adding the products with ``L^i`` one at a time, so the cost is
linear in the size of the sum, and the list of parts is built once.

The formulas of ``Projective``, ``Quadric`` and ``Grassmannian`` give
ascending exponents with positive multiplicities by construction, so they
build their Tate motives with the trusted ``TateMotive._trusted``.
``Toric`` and ``Fano3fold`` keep the checking constructor, since a Betti
number or ``b`` may be 0, and so does ``ModuliM0``, whose constructor
copies the class-level table, so no motive shares it.

The collections of the catalog are built with ``SODPiece._trusted`` and
``Collection._trusted``, the trusted constructor that every record has
from ``tate.Record``: their labels are non-empty strings, their ranks
right and each summand's piece tuple non-empty by construction, so
neither the pieces nor their joins go through the checks of ``sod``.

Opaque summands are never converted into Betti numbers; operations that need
complete cohomological data reject motives that still carry them.  A
product twists each opaque part object once per distinct exponent of the
other factor and repeats the twisted part by the exponent's multiplicity.
A factor that is itself a product repeats its part objects, so a product
and a sum of twists both read one table, ``_runs``, which maps each
distinct part object, by identity, to its run of twists.  A product lists
each part's run in turn (part-major), and a sum of twists takes entry t of
every part's run for each twist t in turn (exponent-major); neither builds
a list of parts it does not return.  Equal entries of
``GeneralizedMotive.opaque`` may therefore be one shared object: parts are
immutable, and ``==``, ``hash``, text, JSON, copies and pickles see only
their values.  The tuple still holds one reference per summand.

``OpaquePart`` and ``GeneralizedMotive`` are records (``tate.Record``):
their ``__init__`` ends with ``Record._store``, sums, products and twists,
whose fields are valid by construction, build through ``Record._trusted``,
and ``repr``, ``==``, ``hash``, copies and pickles follow their
``__slots__``.  Nodes are no records.  They keep their fields, ``dim`` and
the memos in ``__dict__``, where their own ``_store`` and the two memo
writers store straight, and they define those four through ``_fold`` and
``_expand``.  From ``Record`` they take only ``__setattr__``, the guard
that refuses assignment and deletion.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import comb
from operator import itemgetter

from .sod import EXCEPTIONAL, OPAQUE, Collection, SODPiece
from .tate import (
    DomainError,
    InputError,
    Record,
    TateMotive,
    direct_sum,
    elided,
    is_int,
    poincare,
    tensor,
)
from . import sod


class InvalidParameterError(InputError):
    """A catalog constructor was given out-of-range or ill-typed parameters.

    Raised through ``_from_labels``, so from ``exprlang.parse_expr`` and
    unpickling, it carries ``path``, the node path of the node whose
    constructor refused (the root is ``$``).
    """


class CollectionUnavailableError(DomainError):
    """No full exceptional collection is known (or possible) for the input."""


class OpaqueMotiveError(DomainError):
    """The operation needs a pure Tate motive but opaque summands remain."""


class OpaquePart(Record):
    """A named summand with no Tate decomposition, e.g. the odd part of a Fano.

    ``twist`` counts extra Lefschetz factors applied on top of the named
    motive; ``odd`` records that the summand has odd weight, which is what
    the obstruction checks care about.
    """

    __slots__ = ("name", "odd", "twist")

    def __init__(self, name: str, odd: bool, twist: int = 0):
        self._store(name, odd, twist)

    def twisted(self, r: int) -> "OpaquePart":
        """The part times L^r: for r = 0 the part itself, which is immutable."""
        # the sum comes first, so a twist that is no number raises for r = 0 too
        twist = self.twist + r
        return OpaquePart._trusted(self.name, self.odd, twist) if r else self

    def text(self) -> str:
        if self.twist == 0:
            return "[%s]" % self.name
        if self.twist == 1:
            return "[%s*L]" % self.name
        return "[%s*L^%d]" % (self.name, self.twist)

    def to_json(self) -> dict:
        return {"name": self.name, "odd": self.odd, "twist": self.twist}


class GeneralizedMotive(Record):
    """A Tate motive plus an ordered tuple of opaque summands."""

    __slots__ = ("tate", "opaque")

    def __init__(self, tate: TateMotive, opaque: tuple[OpaquePart, ...] = ()):
        self._store(tate, tuple(opaque))

    @property
    def is_tate(self) -> bool:
        return not self.opaque

    def __add__(self, other: "GeneralizedMotive") -> "GeneralizedMotive":
        return GeneralizedMotive._trusted(
            direct_sum(self.tate, other.tate), self.opaque + other.opaque
        )

    def __mul__(self, other: "GeneralizedMotive") -> "GeneralizedMotive":
        if self.opaque and other.opaque:
            raise OpaqueMotiveError(
                "cannot multiply two motives that both have opaque summands"
            )
        if other.opaque:
            parts = _twisted_parts(other.opaque, self.tate)
        else:
            parts = _twisted_parts(self.opaque, other.tate)
        return GeneralizedMotive._trusted(tensor(self.tate, other.tate), parts)

    def text(self) -> str:
        parts = [] if self.tate.is_zero else [self.tate.text()]
        parts += [p.text() for p in self.opaque]
        return " + ".join(parts) if parts else "0"


def _runs(parts: tuple, tate: TateMotive) -> dict:
    """Each distinct part object of ``parts``, by ``id``, to its run by ``tate``.

    A run is the part twisted by each exponent of ``tate``, ascending, each
    repeated by its multiplicity.  A part object is twisted once per
    distinct exponent, however often ``parts`` repeats it, as a product's
    parts repeat, so equal entries of a run, and the runs of one object,
    share the twisted part.  The dict of keys keeps each keyed object
    alive while the table is built, so no identity is reused meanwhile.
    """
    terms = tate._terms.items()
    # a list per run: a tuple grown from a chain of repeats, resized as it
    # grows, raised the catalog workload's peak RSS by about 1 MB
    return {
        key: [q for l, c in terms for q in repeat(p.twisted(l), c)]
        for key, p in dict(zip(map(id, parts), parts)).items()
    }


def _twisted_parts(parts: tuple, tate: TateMotive) -> tuple:
    """``parts`` times ``tate``: each part's run of twists, part after part."""
    if not parts:
        return ()
    runs = _runs(parts, tate)
    return tuple(chain.from_iterable(map(runs.__getitem__, map(id, parts))))


def _twist_sum(m: GeneralizedMotive, lo: int, hi: int) -> GeneralizedMotive:
    """m L^lo + m L^(lo+1) + ... + m L^(hi-1), for lo < hi, built once.

    The Tate part is one product with L^lo + ... + L^(hi-1), which packs
    when m's Tate part is dense; for one twist it is a shift of the
    exponents, cheaper than any product.  The opaque parts come
    exponent-major, as adding the twists one at a time lists them: all of
    m's parts twisted by lo, then by lo + 1, and so on.  They are read
    from the same table of runs as a product's, entry t of each part's
    run for each twist t in turn, straight into the tuple that is returned.
    """
    k = hi - lo
    if k == 1 and not lo:
        # values are immutable, so m L^0 is m itself
        return m
    run = TateMotive._trusted(dict.fromkeys(range(lo, hi), 1))
    parts = ()
    if m.opaque:
        runs = _runs(m.opaque, run)
        cols = list(map(runs.__getitem__, map(id, m.opaque)))
        parts = tuple(chain.from_iterable(map(itemgetter(t), cols) for t in range(k)))
    tate = m.tate.twisted(lo) if k == 1 else m.tate * run
    return GeneralizedMotive._trusted(tate, parts)


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


def _line_bundles(first: int) -> tuple:
    """O(first), O(first+1), ..., O(-1), O with first <= 0."""
    piece = SODPiece._trusted
    return tuple([piece("O" if k == 0 else "O(%d)" % k, EXCEPTIONAL, 1) for k in range(first, 1)])


def _generic_labels(count: int) -> tuple:
    """E1, ..., E<count> for count >= 1."""
    piece = SODPiece._trusted
    return tuple([piece("E%d" % i, EXCEPTIONAL, 1) for i in range(1, count + 1)])


class VarietyExpr:
    """Base class for catalog expressions.

    Each node class lists its fields in ``_fields`` as ``(name, type)``
    pairs, in order; the type is ``VarietyExpr`` for a child expression,
    else ``int``, ``tuple`` (of ints) or ``bool``.  The base class builds a
    node from them: ``__init__`` takes them by position only, one per
    field, and checks that each child is an expression, then ends in the
    one positional store, ``_store``, which ``_from_labels`` calls on each
    new node too.  The store refuses a class without a ``kind`` with
    TypeError, stores a tuple field as a tuple, runs the class's ``_check``
    and then stores ``dim``, the class's ``_dimension`` of its children's
    ``dim``, writing straight into the node's ``__dict__``.  A node is no
    ``tate.Record``: it keeps its fields, ``dim`` and the memos in
    ``__dict__``, and takes from ``Record`` only the guard that refuses
    assignment and deletion.  ``==``, ``hash`` and ``repr`` follow the
    fields, not ``dim``, and a node builds through ``__init__`` or
    ``_from_labels`` only.

    A node class also carries its ``kind``, the key of ``_KINDS``, its text
    ``syntax`` and its catalog entry: the methods ``_dimension`` and ``_motive``, which take
    the results of the node's children in field order, and ``_pieces()``,
    the tuple of split pieces, where the catalog knows a collection (the
    base class's ``_pieces`` is None: it knows none).
    ``_kuznetsov(pieces)`` gives the Kuznetsov form of those pieces; the
    base class returns them unchanged, and only ``Quadric`` differs.  No
    method visits a child: the constructor hands ``_dimension`` the
    children's ``dim``, and ``_fold`` does the rest, children first.  The
    base class is no catalog entry: its ``kind`` is None and it has no
    ``syntax``, ``_dimension`` or ``_motive``, so neither it nor a subclass
    that sets no ``kind`` builds a node.

    ``syntax`` is ``(head, template, binding)``: the name or operator that
    ``exprlang`` reads, the canonical text with one ``%s`` per field, in
    field order, and how tightly an operator binds ('+' looser than '*';
    None for a constructor).  A bool field is written ``name=true`` or
    ``name=false``.
    """

    kind = None
    _fields: tuple = ()
    _children: tuple = ()

    __setattr__ = __delattr__ = Record.__setattr__

    def __init_subclass__(cls):
        cls._children = tuple(name for name, typ in cls._fields if typ is VarietyExpr)

    def __init__(self, *args):
        if len(args) != len(self._fields):
            raise TypeError("%s takes the fields %s" % (type(self).__name__, [name for name, _ in self._fields]))
        for (name, typ), value in zip(self._fields, args):
            if typ is VarietyExpr and not isinstance(value, VarietyExpr):
                raise InvalidParameterError("expected a variety expression, got %r" % (value,))
        self._store(*args)

    def _store(self, *values) -> "VarietyExpr":
        """Fill this node from ``values``, one per field in order, and return it.

        The one positional store, which ``__init__`` ends with and
        ``_from_labels`` calls on each new node, so a child is a node by the
        time it gets here: it refuses a class without a ``kind``, stores a
        tuple field as a tuple, runs ``_check`` and then sets ``dim``,
        writing straight into the node's ``__dict__``.
        """
        if self.kind is None:
            raise TypeError("unknown expression node %r" % type(self).__name__)
        fields, dims, i = self.__dict__, [], 0
        for name, typ in self._fields:
            fields[name] = value = tuple(values[i]) if typ is tuple else values[i]
            i += 1
            if typ is VarietyExpr:
                dims.append(value.dim)
        self._check()
        fields["dim"] = self._dimension(*dims)
        return self

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _labels(self) == _labels(other)

    def __hash__(self):
        return hash(tuple(_labels(self)))

    def __repr__(self):
        return _expand(self, VarietyExpr._repr)

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

    def _repr(self, need) -> list:
        """Expansion step: ``Cls(field=value, ...)``, with a child as ``(child, 0)``."""
        out = [type(self).__qualname__ + "("]
        for i, (name, typ) in enumerate(self._fields):
            value = getattr(self, name)
            out += (", " if i else "", name + "=", (value, 0) if typ is VarietyExpr else repr(value))
        return out + [")"]

    def _summands(self, *children: list) -> list:
        """The summands of this node as a disjoint union, left to right."""
        return [self]

    # a class whose catalog entry knows a collection defines ``_pieces()``,
    # the tuple of that collection's split pieces
    _pieces = None

    def _kuznetsov(self, pieces: tuple) -> tuple:
        """The Kuznetsov form of this node's split ``pieces``: the same but for a quadric."""
        return pieces


def _node(e) -> VarietyExpr:
    """``e``, which must be a node: anything else raises TypeError naming its type."""
    if not isinstance(e, VarietyExpr):
        raise TypeError("unknown expression node %r" % type(e).__name__)
    return e


def _fold(e: VarietyExpr, step):
    """``step(node, *results of its children)`` at every node; the root's result.

    The one walk over an expression tree.  It lists the nodes on an explicit
    stack, root first and each right child before its left sibling, so the
    reversed list has every node after its children, left to right, and a
    node's children's results are the last ones on ``results`` when its turn
    comes.  Nothing recurses, so the depth of the tree does not matter.
    """
    nodes = []
    todo = [_node(e)]
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


def _expand(e: VarietyExpr, pieces) -> str:
    """The text of ``e``, written top down and joined once.

    ``pieces(node, need)`` lists a node's text in order: strings, and a
    ``(child, need)`` pair where a child's text goes, ``need`` being what
    the node asks of the child (for ``exprlang.render_expr``, the least
    binding that needs no parentheses; the root is asked for 0).  The
    pieces wait on one explicit stack, the next one on top, so nothing
    recurses, and each string is copied once, into the final join: the
    time is linear in the length of the text, whatever the depth.
    """
    out = []
    todo = [(e, 0)]
    while todo:
        piece = todo.pop()
        if piece.__class__ is str:
            out.append(piece)
        else:
            todo += reversed(pieces(*piece))
    return "".join(out)


def _labels(e: VarietyExpr) -> list:
    """Each node's class and fields, children first, with ``None`` for a child.

    The number of children is fixed per class, so equal lists mean equal
    trees.
    """
    labels = []
    _fold(e, lambda node, *children: labels.append((type(node), *node._items(children))))
    return labels


def _from_labels(labels) -> VarietyExpr:
    """The tree whose ``_labels`` are ``labels``, built on an explicit stack.

    The one builder: ``exprlang.parse_expr`` hands it the labels of the
    whole text, and a pickle the labels it holds.
    Each label's node is filled by ``VarietyExpr._store``, each field's type
    taken from the class's ``_fields``: a child comes off the stack, so it
    is a node by construction.  An InvalidParameterError from ``_check``
    gets ``path``, the node path of that node (the root is ``$``, a child
    adds ``.`` and its field name), worked out only when a build fails.
    """
    built = []
    labels = iter(labels)
    for label in labels:
        cls, values, i = label[0], [], 0
        # the children are the last nodes built, the leftmost lowest, and any
        # other field's value is the label's
        at = len(built) - len(cls._children)
        for _, typ in cls._fields:
            i += 1
            values.append(built.pop(at) if typ is VarietyExpr else label[i][2])
        try:
            built.append(object.__new__(cls)._store(*values))
        except InvalidParameterError as exc:
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


class Point(VarietyExpr):
    kind = "point"
    syntax = ("point", "point", None)

    def _dimension(self) -> int:
        return 0

    def _motive(self) -> GeneralizedMotive:
        return GeneralizedMotive(TateMotive({0: 1}))

    def _pieces(self) -> tuple:
        return _line_bundles(0)


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
        return GeneralizedMotive(TateMotive._trusted({i: 1 for i in range(self.n + 1)}))

    def _pieces(self) -> tuple:
        return _line_bundles(-self.n)


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
        return GeneralizedMotive(TateMotive._trusted(terms))

    def _pieces(self) -> tuple:
        if self.d % 2 == 1:
            head = (SODPiece._trusted("Sigma(%d)" % -self.d, EXCEPTIONAL, 1),)
        else:
            head = (
                SODPiece._trusted("Sigma+(%d)" % -self.d, EXCEPTIONAL, 1),
                SODPiece._trusted("Sigma-(%d)" % -self.d, EXCEPTIONAL, 1),
            )
        return head + _line_bundles(-self.d + 1)

    def _kuznetsov(self, pieces: tuple) -> tuple:
        # the even Clifford algebra takes the place of the one or two spinor
        # bundles, ahead of the d line bundles
        return (SODPiece._trusted("Cl0(Q_%d)" % self.d, OPAQUE, None),) + pieces[-self.d:]


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
        # every coefficient counts at least one partition, so none is zero
        return GeneralizedMotive(TateMotive._trusted(_gaussian_binomial(self.n, self.k)))


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
                "cone counts %s give a negative Betti number" % elided(repr(self.cone_counts))
            )
        return GeneralizedMotive(TateMotive(dict(enumerate(betti))))

    def _pieces(self) -> tuple:
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
        gap = self.base.dim - self.center.dim
        if gap != self.codim:
            raise InvalidParameterError(
                "stated codimension %d does not match the dimension gap %d"
                % (self.codim, gap)
            )

    def _dimension(self, base: int, center: int) -> int:
        return base

    def _motive(self, base, center) -> GeneralizedMotive:
        return base + _twist_sum(center, 1, self.codim)


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
        return _twist_sum(base, 0, self.fiber_rank)


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

    def _pieces(self) -> tuple:
        return _line_bundles(3 - self.n) if self.n <= 4 else _generic_labels(7)


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

    def _pieces(self) -> tuple:
        if not self.odd_trivial:
            raise CollectionUnavailableError(
                "odd-weight summands were not asserted trivial, so no full "
                "exceptional collection is available"
            )
        return _generic_labels(2 + 2 * self.b)


_KINDS = {cls.kind: cls for cls in VarietyExpr.__subclasses__()}


def dimension_of(e: VarietyExpr) -> int:
    """Dimension of the underlying variety; unions take the maximum.

    It is the node's ``dim``, set when the node was built; every node has
    one, since only catalog classes build.  Anything but a node raises
    TypeError, naming its type.
    """
    return _node(e).dim


def motive_of(e: VarietyExpr) -> GeneralizedMotive:
    """Evaluate an expression to its generalized motive."""
    if not isinstance(e, VarietyExpr) or "_motive_memo" not in e.__dict__:
        # ``_fold`` rejects a non-node, and a call that raises keeps nothing
        e.__dict__["_motive_memo"] = _fold(e, lambda node, *parts: node._motive(*parts))
    return e.__dict__["_motive_memo"]


# the quadric variants, in the order ``_fold_collections`` returns them
_VARIANTS = ("split", "kuznetsov")


def _summands_of(e: VarietyExpr) -> list:
    """The summands of ``e``'s top-level disjoint union, left to right."""
    return _fold(e, lambda node, *parts: node._summands(*parts))


def _fold_collections(e: VarietyExpr) -> tuple[Collection, Collection]:
    """The split and the Kuznetsov collection of ``e``, from one walk.

    Every summand is asked the same two questions: its split ``_pieces``,
    and then their ``_kuznetsov`` form, which differs only for a quadric.
    A summand whose class has no ``_pieces`` fails without being asked,
    and a ``Fano3fold`` whose odd part is not asserted trivial fails when
    asked.
    """
    split, kuznetsov = [], []
    for summand in _summands_of(e):
        if summand._pieces is None:
            raise CollectionUnavailableError("no collection in the catalog for %s" % type(summand).__name__)
        pieces = summand._pieces()
        split += pieces
        kuznetsov += summand._kuznetsov(pieces)
    # every summand's pieces are trusted and at least one, so the joins are too
    return Collection._trusted(tuple(split)), Collection._trusted(tuple(kuznetsov))


def exceptional_collection_of(
    e: VarietyExpr, *, quadric_variant: str = "split"
) -> Collection:
    """The known decomposition of the derived category, where the catalog has one.

    ``quadric_variant`` selects between the split form of the quadric
    collection (spinor bundles plus line bundles, a full exceptional
    collection) and the Kuznetsov form (an opaque even Clifford algebra piece
    of initially unknown rank plus line bundles); any other value, of any
    type, raises ValueError.  Expressions with no known collection raise CollectionUnavailableError, and an argument that is not
    a node raises TypeError, as in ``motive_of``.  The collection of a
    disjoint union joins those of its summands, left to right; the first
    summand without one raises, whatever its children.  The first call
    builds and keeps both variants, and a tree without a collection raises
    the same error for both.
    """
    # a tuple compares by ``==``, so an unhashable value gets this error too
    if quadric_variant not in _VARIANTS:
        raise ValueError("quadric_variant must be %s" % " or ".join(map(repr, _VARIANTS)))
    if not isinstance(e, VarietyExpr) or "_collections_memo" not in e.__dict__:
        # one walk answers both variants; ``_fold`` rejects a non-node
        e.__dict__["_collections_memo"] = _fold_collections(e)
    return e.__dict__["_collections_memo"][_VARIANTS.index(quadric_variant)]


def fec_verdict(e: VarietyExpr) -> sod.FecVerdict:
    """Run the full-exceptional-collection obstruction check on an expression.

    An opaque summand fails at once, since each has odd weight (only
    ``Fano3fold`` makes them, all odd); otherwise the Betti data of the
    Tate part is checked, against the catalog collection's length when one
    exists and unconditionally when none does.  By the paper's first
    theorem, a full exceptional collection of length n makes the motive a
    sum of n Lefschetz powers, so that length is the Tate rank: the bound
    is read off the motive, and no collection is built.  A collection
    exists when every summand's class defines ``_pieces``; the one
    instance that refuses, an opaque ``Fano3fold``, has failed already.
    """
    gm = motive_of(e)
    if gm.opaque:
        return sod.FecVerdict(sod.FEC_FAILS_ODD)
    known = all(summand._pieces is not None for summand in _summands_of(e))
    return sod.fec_obstruction(poincare(gm.tate), gm.tate.rank if known else None)

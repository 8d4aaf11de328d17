"""The orbit category of Tate motives under Tate twist, with exact matrices.

Objects are Tate motives.  A morphism x -> y is a finitely supported family
of rational matrices indexed by an integer grade r, where the grade-r matrix
is an honest (twist-preserving) morphism from x into the r-fold twist of y.
Rows are indexed by the summands of the target, columns by the summands of
the source, both in the order ``TateMotive.exponent_multiset`` lists their
exponents: ascending, each repeated by its multiplicity.

Because Hom(L^p, L^q) vanishes unless p == q, the grade-r matrix can have a
nonzero entry at (i, j) only when ``target_exponent_i - r == source_exponent_j``.
So entry (i, j) lives at the single grade ``target_exponent_i -
source_exponent_j``, and the whole family is one rank(y) x rank(x) matrix:
the grade-r component keeps the entries whose grade is r.  Twisting a matrix
does not change its entries, so the graded convolution ``(g after f)_l =
sum over r of g_{l-r} @ f_r`` is a single matrix product.

The matrix is stored as integer rows over one positive denominator, in
canonical form: the gcd of the denominator and all entries is 1, so two
equal morphisms store the same rows and equality is structural.  A product
is one integer matrix product that skips the zero entries of the left
factor, the product of the two denominators and one gcd pass: exact
arithmetic that stays in the integers, in the spirit of Bareiss (Math.
Comp. 22, 1968), with no ``Fraction`` arithmetic and no float.  The graded
constructor takes a mapping of int grades to matrices of ``int`` and
``Fraction`` entries, and the views ``component``, ``components`` and
``matrix`` speak ``Fraction``.

``decompose_via_orbit`` inverts the collapse: given that a motive m becomes
isomorphic to a direct sum of rank(m) unit objects after the twist is
quotiented out, and a bound dim on the twists involved, it reconstructs the
exponent multiset of m.  The two directions of the isomorphism are lifted to
block morphisms Phi: m -> B and Psi: B -> m, where B stacks rank(m) copies of
each of L^0 .. L^dim; Psi Phi = id forces Phi Psi to be an idempotent whose
diagonal block at level l has trace equal to the multiplicity of L^l in m
(the trace of an idempotent matrix is its rank, exactly, over Q).  Once the
lift checks that g after f is the identity of m, every diagonal entry of
that product is 1 and each trace is a count of exponents, so the lift
returns the exponent multiset of m directly; ``tests/helpers.py`` keeps
the trace computation as an oracle.

The lift checks its input without building a morphism.  With units on the
far side, an entry of f sits at grade -l and an entry of g at grade l, for
l the exponent of its summand of m, so when all exponents of m lie in
[0..dim] the support window holds, and only otherwise are the supports
scanned for the grades to report.  The inverse is checked on the integer
rows as G F = s I, s = den(g) den(f), by Kronecker substitution (Kronecker
1882; Schoenhage 1982): row k of F is packed into one integer, its entries
as fields b bits wide, with b one bit more than any entry of G F or s
needs.  Row i of G F is then one C-level sum of products of ints, and it
equals s e_i exactly when that sum is s shifted into field i, since a
number has one expansion in base 2^b with digits of absolute value below
2^(b-1).  The check stops at the first row that differs and builds no
morphism.  ``tests/helpers.py`` keeps the scans and the canonical composite
``g after f`` as one oracle, and the row-by-row product as another.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, compress
from math import gcd, lcm
from operator import lshift, mul
from collections.abc import Iterable, Mapping

from .tate import DomainError, InputError, Record, TateMotive, is_int

Matrix = tuple[tuple["Fraction", ...], ...]
Rows = tuple[tuple[int, ...], ...]


@cache
def _fraction_class():
    """``fractions.Fraction``, imported on the first call.

    That keeps ``fractions``, and the ``decimal`` it imports, off the
    start-up of every command line; an import statement in each function
    that makes a Fraction would cost more than this cached call.
    """
    from fractions import Fraction

    return Fraction


class CompositionError(DomainError):
    """Morphisms whose source/target do not line up."""


class LiftError(DomainError):
    """Base class for failures of the orbit-to-motive lifting algorithm."""


class RankMismatchError(LiftError):
    """The unit-object side has the wrong number of summands."""


class SupportViolationError(LiftError):
    """A morphism component sits at a grade outside the allowed window."""


class NotAnIsomorphismError(LiftError):
    """The given pair of morphisms is not a mutually inverse pair."""


def _identity_rows(n: int) -> Rows:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class OrbitMorphism(Record):
    """A morphism of the orbit category: one exact matrix, as integer rows.

    The matrix is rank(target) x rank(source); entry (i, j) lives at grade
    ``target_exponent_i - source_exponent_j``.  It is stored as ``rows``,
    a tuple of integer rows, over ``den``, one positive denominator, with
    the gcd of ``den`` and all entries equal to 1, so the stored form is
    canonical and ``==`` compares it directly.  The constructor takes the
    graded form instead: ``components`` is a mapping from an integer grade
    r (an int, not a bool, as ``tate.is_int`` says) to a rank(target) x
    rank(source) matrix whose entries are ints or Fractions.  Any other
    ``components``, grade or entry (a list of pairs, a float, a bool, a
    string, a Decimal) is refused with TypeError.  Construction validates
    shapes and the delta pattern.  ``matrix`` and ``component`` give
    Fraction views.  A morphism is an immutable record: ``==`` and
    ``hash`` follow ``(source, target, den, rows)``.  ``_trusted(source,
    target, den, rows)``, ``tate.Record``'s trusted constructor, takes
    canonical rows of the right shape and delta pattern as they are:
    ``compose``, ``identity_morphism`` and ``block_unit_iso`` build through
    it, and copies and pickles rebuild through it without validating again.
    """

    __slots__ = ("source", "target", "den", "rows")

    def __init__(
        self,
        source: TateMotive,
        target: TateMotive,
        components: Mapping[int, Iterable[Iterable]],
    ):
        Fraction = _fraction_class()
        if not isinstance(source, TateMotive) or not isinstance(target, TateMotive):
            raise TypeError("source and target must be TateMotive")
        if not isinstance(components, Mapping):
            raise TypeError("components must be a mapping, got %s" % type(components).__name__)
        src = source.exponent_multiset()
        tgt = target.exponent_multiset()
        nonzero_entries = []
        for r, rows in components.items():
            if not is_int(r):
                raise TypeError("grades must be exact integers, got %r" % (r,))
            mat = [tuple(row) for row in rows]
            if len(mat) != len(tgt) or any(len(row) != len(src) for row in mat):
                raise ValueError(
                    "grade %d component must be %d x %d" % (r, len(tgt), len(src))
                )
            for i, row in enumerate(mat):
                for j, entry in enumerate(row):
                    if type(entry) is not int and type(entry) is not Fraction:
                        raise TypeError("matrix entries must be exact numbers, got %r" % (entry,))
                    if not entry:
                        continue
                    if tgt[i] - r != src[j]:
                        raise ValueError(
                            "grade %d entry (%d, %d) violates the delta pattern: "
                            "target exponent %d - %d != source exponent %d"
                            % (r, i, j, tgt[i], r, src[j])
                        )
                    # the delta pattern gives each slot a single grade, and
                    # a mapping gives each grade once
                    nonzero_entries.append((i, j, entry))
        # entries are in lowest terms, so over the lcm of their denominators
        # the rows are already canonical
        den = lcm(*{x.denominator for _, _, x in nonzero_entries})
        matrix = [[0] * len(src) for _ in tgt]
        for i, j, x in nonzero_entries:
            matrix[i][j] = x.numerator * (den // x.denominator)
        self._store(source, target, den, tuple(map(tuple, matrix)))

    @property
    def matrix(self) -> Matrix:
        """The whole matrix with Fraction entries."""
        Fraction = _fraction_class()
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.rows)

    def component(self, r: int) -> Matrix:
        """The grade-r matrix, a zero matrix when absent."""
        Fraction = _fraction_class()
        src = self.source.exponent_multiset()
        den = self.den
        zero = Fraction(0)
        return tuple(
            tuple(Fraction(x, den) if t - r == s else zero for x, s in zip(row, src))
            for row, t in zip(self.rows, self.target.exponent_multiset())
        )

    @property
    def support(self) -> tuple[int, ...]:
        src = self.source.exponent_multiset()
        return tuple(sorted({
            t - s
            for row, t in zip(self.rows, self.target.exponent_multiset())
            for x, s in zip(row, src)
            if x
        }))

    @property
    def components(self) -> dict[int, Matrix]:
        """Grade r -> the grade-r matrix, nonzero grades only, ascending."""
        return {r: self.component(r) for r in self.support}

    def __repr__(self) -> str:
        return "OrbitMorphism(%s -> %s, grades %r)" % (
            self.source.text(),
            self.target.text(),
            list(self.support),
        )


def identity_morphism(x: TateMotive) -> OrbitMorphism:
    return OrbitMorphism._trusted(x, x, 1, _identity_rows(x.rank))


def compose(g: OrbitMorphism, f: OrbitMorphism) -> OrbitMorphism:
    """``g after f``: the graded convolution, which is one matrix product.

    The product of the integer rows skips the zero entries of g; the
    denominators multiply and one gcd pass brings the result back to
    canonical form.
    """
    if f.target != g.source:
        raise CompositionError(
            "cannot compose: intermediate objects differ (%s vs %s)"
            % (f.target.text(), g.source.text())
        )
    width = f.source.rank
    f_rows = f.rows
    rows = []
    for g_row in g.rows:
        acc = [0] * width
        for g_ik, f_row in zip(g_row, f_rows):
            if g_ik:
                acc = [a + g_ik * b for a, b in zip(acc, f_row)]
        rows.append(tuple(acc))
    den = g.den * f.den
    common = gcd(den, *chain.from_iterable(rows))
    if common > 1:
        den //= common
        rows = [tuple(x // common for x in row) for row in rows]
    return OrbitMorphism._trusted(f.source, g.target, den, tuple(rows))


def canonical_unit_iso(l: int) -> tuple[OrbitMorphism, OrbitMorphism]:
    """The mutually inverse pair between the unit and L^l in the orbit category.

    Returns (u, v) with u: 1 -> L^l concentrated at grade l and v: L^l -> 1
    at grade -l; both directions compose to identities.
    """
    if not is_int(l) or l < 0:
        raise ValueError("twist level must be a non-negative integer")
    one = TateMotive({0: 1})
    ll = TateMotive({l: 1})
    u = OrbitMorphism(one, ll, {l: ((1,),)})
    v = OrbitMorphism(ll, one, {-l: ((1,),)})
    return u, v


def block_unit_iso(m: TateMotive) -> tuple[OrbitMorphism, OrbitMorphism]:
    """The canonical isomorphism between m and a sum of rank(m) unit objects.

    The i-th summand of m (in enumeration order, exponent l) is matched with
    the i-th unit copy through the grade -l and grade l unit entries. Output
    is (f, g) with f: m -> units, g: units -> m, inverse to each other.
    """
    units = TateMotive({0: m.rank})
    ident = _identity_rows(m.rank)
    return (
        OrbitMorphism._trusted(m, units, 1, ident),
        OrbitMorphism._trusted(units, m, 1, ident),
    )


def decompose_via_orbit(
    m: TateMotive, f: OrbitMorphism, g: OrbitMorphism, dim: int
) -> tuple[int, ...]:
    """Recover the exponent multiset of m from an orbit-category isomorphism.

    Input: f: m -> U and g: U -> m where U is a direct sum of unit objects,
    mutually inverse in the orbit category, with f supported in grades
    {-dim..0} and g in {0..dim}.  Output: the exponents of m with repetition,
    ascending.  The input is checked (endpoints, unit far side, ranks,
    support window, g after f the identity of m); once it passes, the
    multiplicity of L^l, the trace of the idempotent block f_{-l} @ g_l, is
    the number of summands of m with exponent l, so the output is
    ``m.exponent_multiset()``.  The window holds when the exponents of m lie
    in [0..dim], and only otherwise are the supports of f and g scanned, so
    that ``SupportViolationError`` can list the grades outside it.  The
    inverse is checked as G F = den(g) den(f) I on the integer rows, one
    packed product per row of G F (see ``_is_inverse``), with an exit at the
    first row that differs.
    """
    if not is_int(dim) or dim < 0:
        # the one check of ``--dim`` beyond its spelling
        raise InputError("dim must be a non-negative integer")
    if f.source != m or g.target != m:
        raise ValueError("f must start at m and g must end at m")
    units = f.target
    if g.source != units:
        raise ValueError("f and g must connect m with one and the same object")
    if any(l != 0 for l in units.terms):
        raise ValueError(
            "the far side must be a direct sum of unit objects, got %s"
            % units.text()
        )
    if units.rank != m.rank:
        raise RankMismatchError(
            "unit side has rank %d but m has rank %d" % (units.rank, m.rank)
        )
    # the far side is units, so entry (i, j) of f sits at grade -exps[j]
    # and entry (i, j) of g at grade exps[i]
    exps = m.exponent_multiset()
    if exps and (exps[0] < 0 or exps[-1] > dim):
        bad_f = [r for r in f.support if not -dim <= r <= 0]
        bad_g = [s for s in g.support if not 0 <= s <= dim]
        if bad_f or bad_g:
            raise SupportViolationError(
                "support outside the dimension window [-%d..0]/[0..%d]: f at %r, g at %r"
                % (dim, dim, bad_f, bad_g)
            )
    # f and g are square n x n matrices over Q, so G F = I already gives
    # F G = I: f after g is the identity of the unit sum without a check
    if not _is_inverse(g, f):
        raise NotAnIsomorphismError("g after f is not the identity of m")

    # The paper reads the multiplicity of L^l off as the trace of the
    # idempotent block f_{-l} @ g_l, the sum of (G F)[k][k] over the summands
    # k of m with exponent l; G F = I makes each of those entries 1.
    return exps


def _is_inverse(g: OrbitMorphism, f: OrbitMorphism) -> bool:
    """Whether ``g after f`` is the identity, for square f and g that compose.

    Over Q that is G F = I for the matrices F = rows(f) / den(f) and
    G = rows(g) / den(g), which over Z is rows(g) rows(f) = s I with
    s = den(g) den(f).  Every entry of rows(g) rows(f), and s, is at most
    bound = max(n max|F| max|G|, s) in absolute value, for n the rank, so
    with fields b = bit_length(bound) + 1 bits wide, a sign bit included,
    row k of F packs into P_k = sum over j of F[k][j] 2^(b j) (zero entries
    skipped), and row i of the product packs into sum over k of G[i][k] P_k.
    That is s 2^(b i) exactly when the row is s e_i: a number has one
    expansion in base 2^b with every digit of absolute value below
    2^(b-1).  Rows are checked in order, and the first that differs
    returns False.
    """
    f_rows = f.rows
    n = len(f_rows)
    scale = g.den * f.den
    # zero entries are skipped wherever that is C-level work, so the sparse
    # rows of block_unit_iso stay cheap
    bound = max(
        n
        * max(map(abs, filter(None, chain.from_iterable(f_rows))), default=0)
        * max(map(abs, filter(None, chain.from_iterable(g.rows))), default=0),
        scale,
    )
    b = bound.bit_length() + 1
    shifts = range(0, b * n, b)
    packed = [sum(map(lshift, compress(row, row), compress(shifts, row))) for row in f_rows]
    for g_row in g.rows:
        if sum(map(mul, g_row, packed)) != scale:
            return False
        scale <<= b
    return True

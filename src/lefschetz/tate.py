"""Exact arithmetic with direct sums of powers of the Lefschetz motive.

A Tate motive here is a formal direct sum ``L^{l_1} + ... + L^{l_m}`` of
integer powers of the Lefschetz motive L, stored as a finitely supported map
from exponent to multiplicity.  The unit object (the motive of a point) is
``L^0``, ``TateMotive({0: 1})``, and zero is ``TateMotive()``.  Negative
exponents are allowed, since a Tate twist, the product with
``lefschetz(-r)``, produces them, but a motive is called *effective* when
every exponent is >= 0; everything in the variety catalog is effective.

The immutable values here, in ``sod``, ``orbit`` and the motives of
``varieties`` derive from one base, ``Record``: it refuses assignment and
deletion, and is the one home of field stores.  A record class lists its
fields in ``__slots__``, and one whose values would have a ``__dict__``
raises TypeError when it is defined; ``Record`` collects each slot's own
setter once per class, every checking ``__init__`` ends with
``_store(*values)``, and ``_trusted(*values)`` is the one constructor that
takes values with no check.  It gives ``repr``, ``==``, ``hash``, copies
and pickles that follow those fields, as a frozen dataclass's do.  The
expression nodes of ``varieties`` are no records: they borrow only the
guard, ``Record.__setattr__``.

Tate motives, Poincare polynomials, and the two polynomial rings of
``measures`` (classes in Z[Lv^+-1] and Hodge-Deligne polynomials in
Z[u^+-1, v^+-1]) are all sparse integer polynomials.  They share one
immutable core, ``SparsePoly``: normalization, sum, product, equality and
hashing, ``repr``, text and JSON.  Each subclass states only its own rules:
which items are valid, how terms are ordered, and how a monomial is
written.

``TateMotive`` multiplies by Kronecker substitution (Kronecker 1882;
Schoenhage 1982; Harvey, J. Symbolic Comput. 44, 2009) where both factors
are dense: each factor's multiplicities become the w-byte digits of one
int, from its smallest exponent up, the two ints are multiplied once, in C,
and the product's digits are read back as the multiplicities of the
product.  Multiplicities are non-negative, and each coefficient of the
product is a sum of at most min(len a, len b) products of two of them, so
with 8w more than the bits of that bound every digit is exactly one
coefficient: no digit carries into the next, and there is no sign to
borrow.  A factor with one term or none, or a pair whose supports are so
sparse that the spans of their exponents add up to more than the number of
pairs of terms, takes the pairwise product of ``SparsePoly`` instead, so a
gap such as {0, 10^15} never becomes a huge int.  Twisting by L^r is
``twisted(r)``, a shift of the exponents.

All arithmetic is exact: multiplicities are Python ints, and the morphism
calculus built on top of this module works on integer rows over one
denominator, with ``fractions.Fraction`` only where a morphism is built
from its graded form and in the matrix views.  No floats anywhere.

The two error bases of the package live here too.  ``InputError`` is
malformed input: every reader of outside input raises it, and ``integer``
is the one reader of integer text.  ``DomainError`` is a negative verdict
of a computation that ran.  The CLI maps each to its exit status by type.
A message that names the items of a list as long as the input goes through
``listing``: the first ``LISTED`` items, then ``and N more``.  One that
echoes a text as long as the input, such as an expression, a node path, a
token or a toric variety's cone counts, goes through ``elided``: its first
and last ``ECHOED // 2`` characters around ``... (N characters elided)
...``.
"""

from __future__ import annotations

import copyreg
import operator
from collections.abc import Iterable, Mapping
from itertools import compress, islice, repeat


class InputError(ValueError):
    """The input is malformed, so no computation ran.

    Every reader of outside input raises it or a subclass: the expression
    parser, the JSON decoders and ``integer``.  ``offset`` is a byte offset
    into the text and ``path`` a node path like ``$.left.right``, each None
    where it does not apply.  The CLI maps exactly these, with unreadable
    input, to exit status 2.  Copies and pickles rebuild an error from its
    ``args`` and attributes without calling ``__init__`` again, since a
    subclass's ``__init__`` takes other arguments than the message it
    formats.
    """

    def __init__(self, message: str, offset: int | None = None, path: str | None = None):
        super().__init__(message)
        self.offset = offset
        self.path = path

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DomainError(ValueError):
    """The computation ran, but the answer is a negative domain verdict.

    Every module's error classes for such verdicts derive from it, so the
    CLI maps exactly these to exit status 1.
    """


class NonEffectiveError(DomainError):
    """Raised by operations defined only for effective motives."""


# Most items that a message lists, whatever the input's size
LISTED = 20


def listing(texts: Iterable[str], count: int) -> str:
    """The first ``LISTED`` of ``count`` texts, joined by ``, ``, then ``and N more``.

    A message that names the items of a list as long as the input stays one
    bounded line: no text past the first ``LISTED`` is read.
    """
    head = ", ".join(islice(texts, LISTED))
    return head if count <= LISTED else "%s, and %d more" % (head, count - LISTED)


# Most characters of a text that a message echoes, whatever the text's length
ECHOED = 200


def elided(text: str) -> str:
    """``text``, or, past ``ECHOED`` characters, its head and tail around the count left out.

    A message that echoes a text as long as the input stays one bounded
    line: ``head ... (N characters elided) ... tail``, with ``ECHOED // 2``
    characters at each end.
    """
    if len(text) <= ECHOED:
        return text
    keep = ECHOED // 2
    return "%s ... (%d characters elided) ... %s" % (text[:keep], len(text) - 2 * keep, text[-keep:])


def is_int(x) -> bool:
    """An int that is not a bool, though Python says a bool is an int."""
    return isinstance(x, int) and not isinstance(x, bool)


# Longest integer literal, in digits, in an expression, a JSON key or
# number, or ``--dim``.  Far above any catalog parameter that can be
# evaluated, and far below the interpreter's int-to-string limit.
MAX_INT_DIGITS = 100
INT_TOO_LONG = "integer literal too long (more than %d digits)" % MAX_INT_DIGITS


def integer(text) -> int:
    """The integer that ``text`` spells as ``to_json`` writes one.

    That is ASCII ``-?[0-9]+`` with at most ``MAX_INT_DIGITS`` digits:
    ``int`` alone would also take other scripts' digits, underscores and
    surrounding whitespace.  Anything else raises InputError, ``invalid
    integer <text>``, but a digit run that is only too long gets
    ``INT_TOO_LONG``, since a JSON number, which the decoder has already
    matched, can be wrong in no other way.  The CLI reads ``--dim`` with it
    too: argparse names a refused value after this function.
    """
    digits = text[1:] if isinstance(text, str) and text[:1] == "-" else text
    if not (isinstance(digits, str) and digits.isascii() and digits.isdigit()):
        raise InputError("invalid integer %r" % (text,))
    if len(digits) > MAX_INT_DIGITS:
        raise InputError(INT_TOO_LONG)
    return int(text)


TermsLike = Mapping[int, int] | Iterable[tuple[int, int]]


class Record:
    """An immutable value: assigning or deleting an attribute raises AttributeError.

    A record class lists its own fields, in order, in ``__slots__``, after
    those of its bases.  ``__init_subclass__`` collects them once per class,
    along the MRO from ``Record`` down, as ``_slot_names``, and each slot's
    own setter as ``_slot_setters``; those setters are the only way a field
    is stored.  A checking ``__init__`` checks its arguments and ends with
    ``_store(*values)``, one value per field in order.  ``_trusted(*values)``
    is the one trusted constructor: it stores the values as given, with no
    check or copy, so its caller vouches for what ``__init__`` would have
    checked.  ``repr`` is ``Cls(field=value, ...)``, ``==`` holds between
    two values of one class whose fields are equal, and ``hash`` is the hash
    of the tuple of fields: the results of a frozen dataclass, without
    importing ``dataclasses``.  Copies and pickles rebuild a value through
    ``_trusted``, with no check: a pickle can already run any code it names,
    so trusting its fields opens no door that was shut.  A class whose
    values would have a ``__dict__``, one that declares no ``__slots__``,
    raises TypeError when it is defined: a field kept there would have no
    setter to store through.  ``_trusted`` does not count its values: a
    count per build would cost every record build, and those are the hot
    path.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__dictoffset__:
            raise TypeError("record class %s has a __dict__; list its fields in __slots__" % cls.__name__)
        cls._slot_names = tuple([n for k in reversed(cls.__mro__) for n in vars(k).get("__slots__", ())])
        cls._slot_setters = tuple([getattr(cls, name).__set__ for name in cls._slot_names])

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    # Both stores index the values rather than zip them with the setters:
    # that allocates fewer objects per call, and records are built several
    # times per catalog operation.

    def _store(self, *values) -> None:
        """Store ``values``, one per field in order, past the guard above."""
        for i, store in enumerate(self._slot_setters):
            store(self, values[i])

    @classmethod
    def _trusted(cls, *values):
        """A value holding ``values``, one per field in order, with no check or copy."""
        self = object.__new__(cls)
        for i, store in enumerate(cls._slot_setters):
            store(self, values[i])
        return self

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._slot_names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ["%s=%r" % (name, getattr(self, name)) for name in self._slot_names]
        return "%s(%s)" % (type(self).__qualname__, ", ".join(fields))

    def __reduce__(self):
        # the default would restore the slots through the guard above
        return type(self)._trusted, self._values()


class SparsePoly(Record):
    """An immutable, finitely supported map from monomial keys to integers.

    The terms are stored once, as a dict in canonical order with zero
    entries absent.  The constructor checks every item, merges equal keys
    and normalizes; sums and products normalize what they merged.
    ``_trusted(terms)`` stores the dict it is given as it is, with no
    check, filter, sort or copy, so only code whose dict holds valid keys
    and nonzero coefficients in canonical order by construction may call
    it, such as a conversion that maps the terms of a valid polynomial in
    order.  The stored dict is never mutated, so two values may share it.
    ``==`` and copies are ``Record``'s; ``hash`` and ``repr`` read the
    terms, since a dict has no hash.  A subclass states its rules
    as class attributes:

    * ``_check(key, coeff)`` validates one input item before equal keys are
      merged, and returns the key to store;
    * ``_order`` is the sort key of a ``(key, coeff)`` item, or None for the
      natural order of the keys;
    * ``_normalized(acc)`` turns merged items into stored terms: by default
      it drops zero entries and sorts by ``_order``;
    * ``_add_keys`` multiplies two monomials;
    * ``_monomial(key)`` writes a monomial for ``text()`` ("" for the unit),
      by default as a power of ``_symbol``.

    Values of different subclasses never compare equal and cannot be added
    or multiplied together.
    """

    __slots__ = ("_terms",)

    _order = None
    _add_keys = staticmethod(operator.add)
    _symbol = ""

    def __init__(self, terms: TermsLike = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        check = self._check
        acc: dict = {}
        for key, c in items:
            key = check(key, c)
            acc[key] = acc.get(key, 0) + c
        self._store(self._normalized(acc))

    def _normalized(self, acc: dict) -> dict:
        """Merged items as stored terms: zero entries dropped, in canonical order."""
        items = [kv for kv in acc.items() if kv[1]]
        items.sort(key=self._order)
        return dict(items)

    @property
    def terms(self) -> dict:
        """Key -> coefficient in canonical order, zero entries absent."""
        return self._terms.copy()

    def coefficient(self, key) -> int:
        return self._terms.get(key, 0)

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        acc = self._terms.copy()
        for k, c in other._terms.items():
            acc[k] = acc.get(k, 0) + c
        return self._trusted(self._normalized(acc))

    def __mul__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        add_keys = self._add_keys
        acc: dict = {}
        right = other._terms.items()
        for k, c in self._terms.items():
            for l, d in right:
                key = add_keys(k, l)
                acc[key] = acc.get(key, 0) + c * d
        return self._trusted(self._normalized(acc))

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self._terms)

    def _monomial(self, e: int) -> str:
        if e == 0:
            return ""
        return self._symbol if e == 1 else "%s^%d" % (self._symbol, e)

    def text(self) -> str:
        """Canonical text form, e.g. ``1 + 2*L^2 + -L^3``; zero is ``0``."""
        if not self._terms:
            return "0"
        parts = []
        for key, c in self._terms.items():
            mono = self._monomial(key)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append("%d*%s" % (c, mono))
        return " + ".join(parts)

    def to_json(self) -> dict:
        """The terms under ``"terms"``, each key written by ``str``, as the verbs print them."""
        return {"terms": {str(k): c for k, c in self._terms.items()}}


class TateMotive(SparsePoly):
    """A finite multiset of Lefschetz exponents.

    ``TateMotive({0: 1, 2: 3})`` is the motive ``1 + 3*L^2``.  Instances are
    immutable and hashable; the zero motive is ``TateMotive()``.

    Every motive of the catalog and every orbit lift builds Tate motives, so
    the constructor checks its items inline rather than through a ``_check``
    call per item.

    A product of two factors with at least two terms each, whose spans
    (largest exponent minus smallest, plus 1) add up to at most the number
    of pairs of terms, is one packed integer product (see the module
    docstring).  With one-byte digits, the product's bytes are its
    multiplicities as they stand; wider digits are read from slices of
    those bytes.  Every other pair, a monomial or a sparse support, takes
    the pairwise product of ``SparsePoly``.
    """

    __slots__ = ()
    _symbol = "L"

    def __mul__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self._terms, other._terms
        n, m = len(a), len(b)
        # a monomial never meets the density rule below, and zero has no span
        if n < 2 or m < 2:
            return SparsePoly.__mul__(self, other)
        # exponents ascend, so the first and the last are the extremes
        a_lo, b_lo = next(iter(a)), next(iter(b))
        a_span, b_span = next(reversed(a)) - a_lo + 1, next(reversed(b)) - b_lo + 1
        if a_span + b_span > n * m:
            return SparsePoly.__mul__(self, other)
        # no coefficient of the product exceeds this bound, so w-byte digits
        # with 8w > bits hold each one
        w = (min(n, m) * max(a.values()) * max(b.values())).bit_length() // 8 + 1
        size = a_span + b_span - 1
        data = (_packed(a, a_lo, a_span, w) * _packed(b, b_lo, b_span, w)).to_bytes(size * w, "little")
        if w > 1:
            cuts = map(slice, range(0, size * w, w), range(w, (size + 1) * w, w))
            data = list(map(int.from_bytes, map(data.__getitem__, cuts), repeat("little")))
        lo = a_lo + b_lo
        # a zero digit is an exponent that no pair reaches
        return self._trusted(dict(compress(zip(range(lo, lo + size), data), data)))

    def twisted(self, r: int) -> "TateMotive":
        """The motive times L^r: every exponent moved up by r."""
        if not is_int(r):
            raise TypeError("a twist must be an integer")
        terms = self._terms
        # a shift keeps the exponents ascending
        return self._trusted(dict(zip(map(r.__add__, terms), terms.values())))

    def __init__(self, terms: TermsLike = ()):
        # a dict first: the Mapping check alone costs a Python-level call
        if isinstance(terms, dict) or isinstance(terms, Mapping):
            terms = terms.items()
        acc: dict = {}
        for exp, mult in terms:
            # plain ints pass the first test; a bool is not an integer here
            if exp.__class__ is not int or mult.__class__ is not int:
                if not is_int(exp) or not is_int(mult):
                    raise TypeError("exponents and multiplicities must be integers")
            if mult < 0:
                raise ValueError("negative multiplicity %d for exponent %d" % (mult, exp))
            # multiplicities are non-negative, so no merged entry is zero
            if mult:
                acc[exp] = acc.get(exp, 0) + mult
        self._store(self._normalized(acc))

    @staticmethod
    def _normalized(acc: dict) -> dict:
        # multiplicities are non-negative, so no sum or product has a zero
        # entry, and only the order needs fixing; inputs mostly come in
        # ascending order, and sorting ints is cheaper than sorting items
        if len(acc) > 1:
            exps = sorted(acc)
            if exps != list(acc):
                return {l: acc[l] for l in exps}
        return acc

    multiplicity = SparsePoly.coefficient

    @property
    def rank(self) -> int:
        """Total number of summands, counted with multiplicity."""
        return sum(self._terms.values())

    @property
    def is_effective(self) -> bool:
        """Whether every exponent is >= 0: the first, the smallest, in canonical order."""
        return next(iter(self._terms), 0) >= 0

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def exponent_multiset(self) -> tuple[int, ...]:
        """All exponents with repetition, sorted ascending."""
        return tuple(l for l, c in self._terms.items() for _ in range(c))


def _packed(terms: dict, lo: int, span: int, w: int) -> int:
    """The int whose w-byte digits, lowest first, are the multiplicities of lo .. lo + span - 1."""
    digits = terms.values() if len(terms) == span else map(terms.get, range(lo, lo + span), repeat(0))
    if w > 1:
        digits = b"".join(map(int.to_bytes, digits, repeat(w), repeat("little")))
    # for w = 1 each multiplicity is a byte already
    return int.from_bytes(digits, "little")


def lefschetz(exponent: int = 1) -> TateMotive:
    """The motive L^exponent."""
    return TateMotive({exponent: 1})


def direct_sum(a: TateMotive, b: TateMotive) -> TateMotive:
    return a + b


def tensor(a: TateMotive, b: TateMotive) -> TateMotive:
    """L^p tensor L^q = L^{p+q}, extended biadditively."""
    return a * b


def poincare(x: TateMotive) -> "PoincarePoly":
    """Poincare polynomial, sending L^l to t^{2l}; only odd-degree-free output.

    Defined for effective motives only, since a negative exponent has no
    Betti-number reading.
    """
    if not x.is_effective:
        raise NonEffectiveError(
            "poincare polynomial needs an effective motive, got %s" % x.text()
        )
    # doubling keeps the ascending order of valid, nonzero items
    return PoincarePoly._trusted({2 * l: c for l, c in x._terms.items()})


class PoincarePoly(SparsePoly):
    """Polynomial in t with non-negative integer coefficients.

    Motives of the catalog only ever produce even degrees, but odd degrees are
    representable because general Betti data (used by the obstruction checks)
    has them.
    """

    __slots__ = ()
    _symbol = "t"

    @staticmethod
    def _check(n, c):
        if not is_int(n) or not is_int(c):
            raise TypeError("degrees and coefficients must be integers")
        if n < 0:
            raise ValueError("negative degree %d" % n)
        if c < 0:
            raise ValueError("negative coefficient %d in degree %d" % (c, n))
        return n

    coefficients = SparsePoly.terms

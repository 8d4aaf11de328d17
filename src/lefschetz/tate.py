"""Exact arithmetic with direct sums of powers of the Lefschetz motive.

A Tate motive here is a formal direct sum ``L^{l_1} + ... + L^{l_m}`` of
integer powers of the Lefschetz motive L, stored as a finitely supported map
from exponent to multiplicity.  The unit object (the motive of a point) is
``L^0``.  Negative exponents are allowed, since Tate twists produce them, but
a motive is called *effective* when every exponent is >= 0; everything in the
variety catalog is effective.

Tate motives, Poincare polynomials, and the two polynomial rings of
``measures`` (classes in Z[Lv^+-1] and Hodge-Deligne polynomials in
Z[u^+-1, v^+-1]) are all sparse integer polynomials.  They share one
immutable core, ``SparsePoly``: normalization, sum, product, equality and
hashing, ``repr``, text and JSON.  Each subclass states only its own rules:
which items are valid, how terms are ordered, how a monomial is written, and
how a key is spelled in JSON.

All arithmetic is exact: multiplicities are Python ints, and the morphism
calculus built on top of this module uses ``fractions.Fraction``.  No floats
anywhere.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping


class DomainError(ValueError):
    """The computation ran, but the answer is a negative domain verdict.

    Every module's error classes for such verdicts derive from it, so the
    CLI maps exactly these to exit status 1.
    """


class NonEffectiveError(DomainError):
    """Raised by operations defined only for effective motives."""


def is_int(x) -> bool:
    """An int that is not a bool, though Python says a bool is an int."""
    return isinstance(x, int) and not isinstance(x, bool)


TermsLike = Mapping[int, int] | Iterable[tuple[int, int]]


class SparsePoly:
    """An immutable, finitely supported map from monomial keys to integers.

    The terms are stored once, as a dict in canonical order with zero
    entries absent.  A subclass states its rules as class attributes:

    * ``_check(key, coeff)`` validates one input item before equal keys are
      merged, and returns the key to store;
    * ``_order`` is the sort key of a ``(key, coeff)`` item, or None for the
      natural order of the keys;
    * ``_add_keys`` multiplies two monomials;
    * ``_monomial(key)`` writes a monomial for ``text()`` ("" for the unit),
      by default as a power of ``_symbol``;
    * ``_key_to_json`` and ``_key_from_json`` spell a key in JSON.

    Values of different subclasses never compare equal and cannot be added
    or multiplied together.
    """

    __slots__ = ("_terms",)

    _order = None
    _add_keys = staticmethod(operator.add)
    _symbol = ""
    _key_to_json = staticmethod(str)
    _key_from_json = staticmethod(int)

    def __init__(self, terms: TermsLike = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        check = self._check
        acc: dict = {}
        for key, c in items:
            key = check(key, c)
            acc[key] = acc.get(key, 0) + c
        self._store(acc)

    @classmethod
    def _wrap(cls, acc: dict):
        """An instance holding ``acc``, whose items are already valid."""
        self = object.__new__(cls)
        self._store(acc)
        return self

    def _store(self, acc: dict) -> None:
        items = [kv for kv in acc.items() if kv[1]]
        items.sort(key=self._order)
        object.__setattr__(self, "_terms", dict(items))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __reduce__(self):
        # rebuild through the constructor: the default restores the slot
        # through the __setattr__ guard above
        return type(self), (self._terms,)

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
        return self._wrap(acc)

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
        return self._wrap(acc)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._terms == other._terms

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
        to_key = self._key_to_json
        return {"terms": {to_key(k): c for k, c in self._terms.items()}}

    @classmethod
    def from_json(cls, data: dict):
        if not isinstance(data, dict) or not isinstance(data.get("terms"), dict):
            raise ValueError("expected an object with a 'terms' mapping")
        return cls({cls._key_from_json(k): c for k, c in data["terms"].items()})


class TateMotive(SparsePoly):
    """A finite multiset of Lefschetz exponents.

    ``TateMotive({0: 1, 2: 3})`` is the motive ``1 + 3*L^2``.  Instances are
    immutable and hashable; the zero motive is ``TateMotive()``.

    Every motive of the catalog and every orbit lift builds Tate motives, so
    the constructor checks its items inline rather than through a ``_check``
    call per item.
    """

    __slots__ = ()
    _symbol = "L"

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
        if len(acc) > 1:
            # inputs mostly come in ascending order; sorting ints is cheaper
            # than sorting items
            exps = sorted(acc)
            if exps != list(acc):
                acc = {l: acc[l] for l in exps}
        object.__setattr__(self, "_terms", acc)

    multiplicity = SparsePoly.coefficient

    @property
    def rank(self) -> int:
        """Total number of summands, counted with multiplicity."""
        return sum(self._terms.values())

    @property
    def is_effective(self) -> bool:
        return all(l >= 0 for l in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def exponent_multiset(self) -> tuple[int, ...]:
        """All exponents with repetition, sorted ascending."""
        return tuple(l for l, c in self._terms.items() for _ in range(c))


UNIT = TateMotive({0: 1})
ZERO = TateMotive()


def lefschetz(exponent: int = 1) -> TateMotive:
    """The motive L^exponent."""
    return TateMotive({exponent: 1})


def direct_sum(a: TateMotive, b: TateMotive) -> TateMotive:
    return a + b


def tensor(a: TateMotive, b: TateMotive) -> TateMotive:
    """L^p tensor L^q = L^{p+q}, extended biadditively."""
    return a * b


def twist(a: TateMotive, r: int) -> TateMotive:
    """Tate twist: tensoring with the inverse Lefschetz power, L^l -> L^{l-r}."""
    return TateMotive({l - r: c for l, c in a.terms.items()})


def hom_dim(x: TateMotive, y: TateMotive) -> int:
    """Dimension over Q of Hom(x, y).

    Hom(L^p, L^q) is Q when p == q and 0 otherwise, so the dimension is the
    sum over shared exponents of the product of multiplicities.
    """
    return sum(c * y.multiplicity(l) for l, c in x.terms.items())


def poincare(x: TateMotive) -> "PoincarePoly":
    """Poincare polynomial, sending L^l to t^{2l}; only odd-degree-free output.

    Defined for effective motives only, since a negative exponent has no
    Betti-number reading.
    """
    if not x.is_effective:
        raise NonEffectiveError(
            "poincare polynomial needs an effective motive, got %s" % x.text()
        )
    # a motive's items are valid Poincare items, so they skip the item check
    return PoincarePoly._wrap({2 * l: c for l, c in x._terms.items()})


class PoincarePoly(SparsePoly):
    """Polynomial in t with non-negative integer coefficients.

    Motives of the catalog only ever produce even degrees, but odd degrees are
    representable because general Betti data (used by the obstruction checks)
    has them.
    """

    __slots__ = ()
    _symbol = "t"

    def __init__(self, coefficients: TermsLike = ()):
        super().__init__(coefficients)

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

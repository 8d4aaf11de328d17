"""Motivic measures on the Tate part of the Grothendieck ring of varieties.

``K0Class`` is an integer Laurent polynomial in the class Lv of the affine
line, ``K0Class({1: 1})``; coefficients may be negative (virtual classes).
It and ``HodgeDelignePoly`` are subclasses of ``tate.SparsePoly``, the
sparse polynomial core shared with Tate motives and Poincare polynomials,
and state only their own validation, term order and monomial symbols.  Two
measures act on it:

* ``chi_gs`` sends Lv to the Lefschetz motive L.  On classes with
  non-negative coefficients this is the tautological identification with
  Tate motives; a negative coefficient has no motive to map to and is
  rejected.
* ``chi_hd`` sends Lv to u*v inside integer Laurent polynomials in u and v,
  i.e. takes the Hodge-Deligne (E-) polynomial.  Being a ring map it is
  perfectly happy with virtual classes.

A Hodge-Deligne polynomial is Hodge-Tate when only diagonal monomials
(u v)^p occur; everything in the image of chi_hd is, which is the commuting
triangle the tests pin down.

``k0_class``, ``chi_gs``, ``chi_hd`` and ``K0Class.__neg__`` map the terms
of a valid polynomial key by key, in order, so the result is canonical by
construction: they build it with ``tate.Record._trusted``, with no item
check, zero filter or sort, and ``k0_class`` and ``chi_gs`` keep the very
dict of their argument.  ``chi_gs`` still refuses a virtual class.
"""

from __future__ import annotations

from .tate import DomainError, NonEffectiveError, SparsePoly, TateMotive, is_int
from .varieties import GeneralizedMotive, OpaqueMotiveError, VarietyExpr, motive_of


class VirtualClassError(DomainError):
    """A virtual class (negative coefficient) where a motive is required."""


class K0Class(SparsePoly):
    """Integer Laurent polynomial in Lv, the class of the affine line."""

    __slots__ = ()
    _symbol = "Lv"

    @staticmethod
    def _check(e, c):
        if not is_int(e) or not is_int(c):
            raise TypeError("exponents and coefficients must be integers")
        return e

    @property
    def is_effective(self) -> bool:
        """No negative coefficients, i.e. an honest (non-virtual) class."""
        return all(c >= 0 for c in self._terms.values())

    def __neg__(self) -> "K0Class":
        return self._trusted({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "K0Class") -> "K0Class":
        return self + (-other)


class HodgeDelignePoly(SparsePoly):
    """Integer Laurent polynomial in u and v, keyed by the (p, q) bidegree.

    Terms are ordered by total degree p + q, then by q.  ``to_json`` spells
    each bidegree key ``p,q``, as ``hodge --json`` writes its table of
    Hodge numbers.
    """

    __slots__ = ()

    @staticmethod
    def _check(pq, c):
        p, q = pq
        if not is_int(p) or not is_int(q) or not is_int(c):
            raise TypeError("bidegrees and coefficients must be integers")
        return (p, q)

    @staticmethod
    def _order(item):
        (p, q), _ = item
        return p + q, q

    @staticmethod
    def _add_keys(a, b):
        return a[0] + b[0], a[1] + b[1]

    def to_json(self) -> dict:
        """The terms under ``"terms"``, each bidegree key written ``p,q``."""
        return {"terms": {"%d,%d" % pq: c for pq, c in self._terms.items()}}

    @staticmethod
    def _monomial(pq) -> str:
        p, q = pq
        factors = []
        if p:
            factors.append("u" if p == 1 else "u^%d" % p)
        if q:
            factors.append("v" if q == 1 else "v^%d" % q)
        return "*".join(factors)


def k0_class(e: VarietyExpr | GeneralizedMotive | TateMotive) -> K0Class:
    """Class in the Grothendieck ring of varieties, Lefschetz power by power.

    Accepts a catalog expression or a motive; opaque summands have no class
    in the Lv-subring and are rejected.
    """
    if isinstance(e, VarietyExpr):
        e = motive_of(e)
    if isinstance(e, GeneralizedMotive):
        if e.opaque:
            raise OpaqueMotiveError(
                "opaque summands have no class in the Lv-subring"
            )
        e = e.tate
    if not isinstance(e, TateMotive):
        raise TypeError("expected a variety expression or a motive")
    return K0Class._trusted(e._terms)


def chi_gs(c: K0Class) -> TateMotive:
    """The measure into Tate motives: Lv -> L, coefficientwise.

    An isomorphism onto its image, but only defined on honest classes; a
    virtual class is rejected rather than truncated.
    """
    bad = [e for e, coeff in c._terms.items() if coeff < 0]
    if bad:
        raise VirtualClassError(
            "virtual class: negative coefficient at exponents %r" % (sorted(bad),)
        )
    return TateMotive._trusted(c._terms)


def chi_hd(c: K0Class) -> HodgeDelignePoly:
    """The Hodge-Deligne measure: Lv -> u*v, a ring map on all classes."""
    return HodgeDelignePoly._trusted({(e, e): coeff for e, coeff in c._terms.items()})


def hodge_tate(p: HodgeDelignePoly) -> bool:
    """Whether only diagonal monomials (u*v)^k occur."""
    return all(pq[0] == pq[1] for pq in p._terms)


def hodge_numbers(m: TateMotive) -> dict[tuple[int, int], int]:
    """Hodge numbers of an effective Tate motive: h^{l,l} = multiplicity of L^l."""
    if not m.is_effective:
        raise NonEffectiveError(
            "hodge numbers need an effective motive, got %s" % m.text()
        )
    return {(l, l): c for l, c in m.terms.items()}

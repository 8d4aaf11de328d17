"""Semiorthogonal decomposition bookkeeping over the unit noncommutative motive.

A Collection is an ordered list of pieces, each either exceptional (its
noncommutative motive is one copy of the unit, rank 1 by definition) or an
opaque named piece whose rank may be unknown: ``SODPiece(label)`` and
``SODPiece(label, OPAQUE, nc_rank)``.  Under any additive invariant the
value of a rank-n piece is n copies of the invariant of the base point, so
ranks are pinned down by counting: the ranks of all pieces must sum to the
rank of the total motive.  ``solve_nc_ranks`` does exactly that bookkeeping
and refuses to guess when more than one rank is unknown.

The full-exceptional-collection obstruction checks live here too: odd Betti
numbers rule a full exceptional collection out entirely, and the largest even
Betti number is a lower bound for the length of any such collection.

Pieces, collections and verdicts are records (``tate.Record``):
immutable, with ``repr``, ``==``, ``hash``, copies and pickles that follow
their fields.

``SODPiece(...)``, ``Collection(...)`` and their ``from_json`` check every
field and raise ``tate.InputError`` for what they refuse, since a
collection file reaches them as it was written.  ``SODPiece._trusted``
and ``Collection._trusted``, ``tate.Record``'s one trusted constructor,
store the fields as given, with no check or copy, so the caller vouches
for what the checks would have refused.  A piece's label is a non-empty
string and its rank 1 when it is exceptional, None or a non-negative int
when it is opaque; a collection's pieces are a non-empty tuple of
``SODPiece``.  Only the catalog's own collections, whose labels
and lengths are right by construction, are built this way; what comes from
outside and what ``solve_nc_ranks`` builds goes through the checks.
"""

from __future__ import annotations

from .tate import DomainError, InputError, PoincarePoly, Record, TateMotive, is_int

EXCEPTIONAL = "exceptional"
OPAQUE = "opaque"

FEC_OK = "ok"
FEC_FAILS_ODD = "fails-odd-vanishing"
FEC_FAILS_LENGTH = "fails-length-bound"


def _is_count(n) -> bool:
    """A non-negative int, not a bool."""
    return is_int(n) and n >= 0


class InconsistentRanksError(DomainError):
    """Known ranks cannot add up to the rank of the total motive."""


class UnderdeterminedError(DomainError):
    """More than one unknown rank; the system is reported, never guessed."""


class SODPiece(Record):
    """One piece of a decomposition.

    Exceptional pieces always have rank 1; opaque pieces carry a name in
    ``label`` and ``nc_rank`` None until solved.
    """

    __slots__ = ("label", "kind", "nc_rank")

    def __init__(self, label: str, kind: str = EXCEPTIONAL, nc_rank: int | None = None):
        if not isinstance(label, str) or not label:
            raise InputError("piece label must be a non-empty string")
        if kind not in (EXCEPTIONAL, OPAQUE):
            raise InputError("piece kind must be %r or %r" % (EXCEPTIONAL, OPAQUE))
        if kind == EXCEPTIONAL:
            if nc_rank not in (None, 1):
                raise InputError("an exceptional piece has rank 1")
            nc_rank = 1
        elif nc_rank is not None and not _is_count(nc_rank):
            raise InputError("nc_rank must be a non-negative integer or None")
        self._store(label, kind, nc_rank)

    def to_json(self) -> dict:
        out: dict = {"label": self.label, "kind": self.kind}
        if self.nc_rank is not None:
            out["nc_rank"] = self.nc_rank
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SODPiece":
        if not isinstance(data, dict) or "label" not in data or "kind" not in data:
            raise InputError("piece JSON needs 'label' and 'kind'")
        return cls(data["label"], data["kind"], data.get("nc_rank"))


class Collection(Record):
    """A non-empty ordered tuple of pieces."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: tuple[SODPiece, ...]):
        pieces = tuple(pieces)
        if not pieces:
            raise InputError("a collection has at least one piece")
        for p in pieces:
            if not isinstance(p, SODPiece):
                raise TypeError("collection pieces must be SODPiece")
        self._store(pieces)

    def __len__(self) -> int:
        return len(self.pieces)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.pieces)

    def to_json(self) -> dict:
        return {"pieces": [p.to_json() for p in self.pieces]}

    @classmethod
    def from_json(cls, data: dict) -> "Collection":
        if not isinstance(data, dict) or not isinstance(data.get("pieces"), list):
            raise InputError("collection JSON needs a 'pieces' list")
        return cls(tuple(SODPiece.from_json(p) for p in data["pieces"]))


def solve_nc_ranks(collection: Collection, total: TateMotive) -> Collection:
    """Fill in the single unknown rank so the pieces add up to rank(total).

    Exceptional pieces contribute 1 each; at most one opaque piece may have
    an unknown rank, and it receives the residue.  Raises
    InconsistentRanksError when the counts cannot match and
    UnderdeterminedError when more than one rank is unknown.
    """
    m = total.rank
    unknown = [i for i, p in enumerate(collection.pieces) if p.nc_rank is None]
    if len(unknown) > 1:
        raise UnderdeterminedError(
            "%d pieces have unknown rank (%s); refusing to guess"
            % (len(unknown), ", ".join(collection.pieces[i].label for i in unknown))
        )
    known = sum(p.nc_rank for p in collection.pieces if p.nc_rank is not None)
    if not unknown:
        if known != m:
            raise InconsistentRanksError(
                "piece ranks sum to %d but the total motive has rank %d" % (known, m)
            )
        return collection
    residue = m - known
    if residue < 0:
        raise InconsistentRanksError(
            "known ranks already sum to %d, more than the total rank %d" % (known, m)
        )
    i = unknown[0]
    solved = list(collection.pieces)
    solved[i] = SODPiece(solved[i].label, solved[i].kind, residue)
    return Collection(tuple(solved))


class FecVerdict(Record):
    """Outcome of the full-exceptional-collection obstruction check."""

    __slots__ = ("status", "min_length", "bound", "odd_degrees")

    def __init__(
        self,
        status: str,
        min_length: int | None = None,
        bound: int | None = None,
        odd_degrees: tuple[int, ...] = (),
    ):
        self._store(status, min_length, bound, odd_degrees)

    @property
    def ok(self) -> bool:
        return self.status == FEC_OK


def fec_obstruction(betti: PoincarePoly, max_length: int | None = None) -> FecVerdict:
    """Check Betti data against the two necessary conditions.

    Any nonzero odd Betti number is fatal.  Otherwise the largest even Betti
    number is the minimum possible length of a full exceptional collection;
    when ``max_length`` is given and smaller, that is reported as a failure.
    """
    if max_length is not None and (not is_int(max_length) or max_length < 1):
        raise ValueError("max_length must be a positive integer or None")
    coeffs = betti.coefficients
    odd = tuple(n for n in coeffs if n % 2)
    if odd:
        return FecVerdict(FEC_FAILS_ODD, odd_degrees=odd)
    needed = max((c for n, c in coeffs.items()), default=0)
    if max_length is not None and needed > max_length:
        return FecVerdict(FEC_FAILS_LENGTH, min_length=needed, bound=max_length)
    return FecVerdict(FEC_OK, min_length=needed, bound=max_length)

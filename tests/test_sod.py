"""Rank bookkeeping for decompositions and the collection obstruction checks."""

import pytest

from lefschetz.sod import (
    FEC_FAILS_LENGTH,
    FEC_FAILS_ODD,
    FEC_OK,
    OPAQUE,
    Collection,
    InconsistentRanksError,
    SODPiece,
    UnderdeterminedError,
    fec_obstruction,
    solve_nc_ranks,
)
from lefschetz.tate import PoincarePoly, TateMotive


class TestPieces:
    def test_exceptional_rank_forced(self):
        p = SODPiece("O")
        assert p.nc_rank == 1
        assert SODPiece("O", "exceptional", 1).nc_rank == 1
        with pytest.raises(ValueError):
            SODPiece("O", "exceptional", 2)

    def test_opaque_rank_optional(self):
        assert SODPiece("Cl0", OPAQUE).nc_rank is None
        assert SODPiece("Cl0", OPAQUE, 2).nc_rank == 2
        with pytest.raises(ValueError):
            SODPiece("Cl0", OPAQUE, -1)
        # bool is an int subclass, but JSON true is not a rank
        with pytest.raises(ValueError):
            SODPiece("Cl0", OPAQUE, True)
        with pytest.raises(ValueError):
            SODPiece.from_json({"label": "Cl0", "kind": "opaque", "nc_rank": True})

    def test_kind_and_label_validated(self):
        with pytest.raises(ValueError):
            SODPiece("O", "spherical")
        with pytest.raises(ValueError):
            SODPiece("", "exceptional")

    def test_json_round_trip(self):
        for p in [SODPiece("O(-1)"), SODPiece("Cl0", OPAQUE), SODPiece("Cl0", OPAQUE, 2)]:
            assert SODPiece.from_json(p.to_json()) == p
        with pytest.raises(ValueError):
            SODPiece.from_json({"label": "O"})


class TestCollection:
    def test_non_empty(self):
        with pytest.raises(ValueError):
            Collection(())

    def test_accessors(self):
        c = Collection((SODPiece("A"), SODPiece("B", OPAQUE)))
        assert len(c) == 2
        assert c.labels == ("A", "B")

    def test_json_round_trip(self):
        c = Collection((SODPiece("O(-1)"), SODPiece("O"), SODPiece("Cl0", OPAQUE)))
        assert Collection.from_json(c.to_json()) == c
        assert c.to_json() == {
            "pieces": [
                {"label": "O(-1)", "kind": "exceptional", "nc_rank": 1},
                {"label": "O", "kind": "exceptional", "nc_rank": 1},
                {"label": "Cl0", "kind": "opaque"},
            ]
        }
        with pytest.raises(ValueError):
            Collection.from_json({"pieces": "none"})


class TestStillRefused:
    """The checking constructors refuse what the catalog's trusted ones never build."""

    @pytest.mark.parametrize(
        "args, error",
        [
            ((7,), ValueError),
            ((None,), ValueError),
            (("O", None), ValueError),
            (("O", "exceptional", 0), ValueError),
            (("Cl0", "opaque", 1.0), ValueError),
            (("Cl0", "opaque", "2"), ValueError),
        ],
        ids=["int-label", "no-label", "no-kind", "exceptional-rank-0", "float-rank", "text-rank"],
    )
    def test_piece(self, args, error):
        with pytest.raises(error):
            SODPiece(*args)

    @pytest.mark.parametrize(
        "data, error",
        [
            ([], ValueError),
            ({}, ValueError),
            ({"pieces": []}, ValueError),
            ({"pieces": ["O"]}, ValueError),
            ({"pieces": [{"label": "O"}]}, ValueError),
            ({"pieces": [{"label": "", "kind": "exceptional"}]}, ValueError),
            ({"pieces": [{"label": 3, "kind": "exceptional"}]}, ValueError),
            ({"pieces": [{"label": "O", "kind": "spherical"}]}, ValueError),
            ({"pieces": [{"label": "O", "kind": "exceptional", "nc_rank": 2}]}, ValueError),
            ({"pieces": [{"label": "C", "kind": "opaque", "nc_rank": -1}]}, ValueError),
            ({"pieces": [{"label": "C", "kind": "opaque", "nc_rank": True}]}, ValueError),
            ({"pieces": [{"label": "C", "kind": "opaque", "nc_rank": "1"}]}, ValueError),
        ],
        ids=[
            "list",
            "no-pieces",
            "empty",
            "text-piece",
            "no-kind",
            "empty-label",
            "int-label",
            "bad-kind",
            "exceptional-rank-2",
            "negative-rank",
            "bool-rank",
            "text-rank",
        ],
    )
    def test_collection_json(self, data, error):
        with pytest.raises(error):
            Collection.from_json(data)

    def test_collection_of_non_pieces(self):
        with pytest.raises(TypeError):
            Collection((SODPiece("O"), "O(1)"))
        with pytest.raises(TypeError):
            Collection(5)


class TestSolve:
    def test_all_known_consistent(self):
        c = Collection((SODPiece("A"), SODPiece("B")))
        assert solve_nc_ranks(c, TateMotive({0: 1, 1: 1})) == c

    def test_all_known_inconsistent(self):
        c = Collection((SODPiece("A"), SODPiece("B")))
        with pytest.raises(InconsistentRanksError):
            solve_nc_ranks(c, TateMotive({0: 3}))

    def test_single_unknown_gets_residue(self):
        c = Collection((SODPiece("Cl0", OPAQUE), SODPiece("O(-1)"), SODPiece("O")))
        solved = solve_nc_ranks(c, TateMotive({0: 1, 1: 2, 2: 1}))
        assert [p.nc_rank for p in solved.pieces] == [2, 1, 1]
        # input collection is untouched
        assert c.pieces[0].nc_rank is None

    def test_zero_residue_allowed(self):
        c = Collection((SODPiece("Cl0", OPAQUE), SODPiece("O")))
        solved = solve_nc_ranks(c, TateMotive({0: 1}))
        assert solved.pieces[0].nc_rank == 0

    def test_negative_residue_rejected(self):
        c = Collection((SODPiece("Cl0", OPAQUE), SODPiece("A"), SODPiece("B")))
        with pytest.raises(InconsistentRanksError):
            solve_nc_ranks(c, TateMotive({0: 1}))

    def test_multiple_unknowns_reported(self):
        c = Collection((SODPiece("X", OPAQUE), SODPiece("Y", OPAQUE)))
        with pytest.raises(UnderdeterminedError, match="X, Y"):
            solve_nc_ranks(c, TateMotive({0: 5}))

    def test_extra_exceptional_piece_shifts_residue_by_one(self):
        total = TateMotive({0: 2, 1: 2, 2: 1})
        base = Collection((SODPiece("Cl0", OPAQUE), SODPiece("O(-1)"), SODPiece("O")))
        extended = Collection(base.pieces + (SODPiece("O(1)"),))
        assert solve_nc_ranks(base, total).pieces[0].nc_rank == 3
        assert solve_nc_ranks(extended, total).pieces[0].nc_rank == 2


class TestFecObstruction:
    def test_odd_betti_fatal(self):
        v = fec_obstruction(PoincarePoly({0: 1, 1: 2, 2: 1}))
        assert v.status == FEC_FAILS_ODD
        assert v.odd_degrees == (1,)
        assert not v.ok

    def test_odd_beats_length(self):
        v = fec_obstruction(PoincarePoly({0: 9, 3: 1}), max_length=2)
        assert v.status == FEC_FAILS_ODD

    def test_length_bound(self):
        v = fec_obstruction(PoincarePoly({0: 1, 2: 5}), max_length=3)
        assert v.status == FEC_FAILS_LENGTH
        assert v.min_length == 5 and v.bound == 3

    def test_ok_reports_min_length(self):
        v = fec_obstruction(PoincarePoly({0: 1, 2: 5}))
        assert v.ok and v.min_length == 5 and v.bound is None
        v = fec_obstruction(PoincarePoly({0: 1, 2: 5}), max_length=5)
        assert v.ok and v.min_length == 5 and v.bound == 5

    def test_zero_poly(self):
        v = fec_obstruction(PoincarePoly())
        assert v.ok and v.min_length == 0

    def test_max_length_validated(self):
        with pytest.raises(ValueError):
            fec_obstruction(PoincarePoly({0: 1}), max_length=0)
        with pytest.raises(ValueError, match="positive integer or None"):
            fec_obstruction(PoincarePoly({0: 1}), max_length=True)

"""The frontier rook DP: the one exact path for boards that are not Ferrers."""

import json
import random
from math import factorial

import pytest

from descentpoly import rook
from descentpoly.cli import EXIT_CAP, EXIT_OK, main
from descentpoly.rook import (
    Board,
    board_from_query,
    hit_numbers,
    hit_numbers_enumerate,
    hit_polynomial,
    hit_polynomial_permanent,
    rook_numbers,
    rook_route,
    row_lengths,
)
from descentpoly.sets import explicit_set
from descentpoly.stats import CapExceededError, DescentQuery


def _non_ferrers_board(rng, n):
    """X, Y of size 2n/3 and Z of size 3 in [1, 6], redrawn until the board
    is not Ferrers."""
    while True:
        query = DescentQuery(
            explicit_set(rng.sample(range(2, n + 1), 2 * n // 3)),
            explicit_set(rng.sample(range(1, n), 2 * n // 3)),
            explicit_set(rng.sample(range(1, 7), 3)),
        )
        board = board_from_query(n, query)
        try:
            row_lengths(board)
        except rook.NotFerrersError:
            return board


def _random_board(rng, n):
    density = rng.random()
    return Board(n, frozenset(
        (i, j) for i in range(2, n + 1) for j in range(1, i)
        if rng.random() < density
    ))


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _coefficient_total(record):
    return sum(int(c) for c in record["result"]["coefficients"].values())


class TestFrontierDP:
    @pytest.mark.parametrize("n", [4, 7, 10, 12, 14])
    def test_matches_permanent_on_non_ferrers_boards(self, n):
        rng = random.Random(1000 + n)
        board = _non_ferrers_board(rng, n)
        assert rook_route(board)[1]["rook_path"] == "frontier"
        assert hit_polynomial(board) == hit_polynomial_permanent(board)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_matches_enumeration(self, n):
        rng = random.Random(n)
        for _ in range(3):
            board = _random_board(rng, n)
            r = rook_numbers(board)
            assert rook._hits_from_rooks(r, n) == hit_numbers_enumerate(board)

    def test_empty_boards(self):
        assert rook_numbers(Board(0, frozenset())) == [1]
        assert rook_numbers(Board(5, frozenset())) == [1, 0, 0, 0, 0, 0]
        assert hit_numbers(Board(0, frozenset())) == [1]
        assert hit_numbers(Board(5, frozenset())) == [120, 0, 0, 0, 0, 0]

    def test_peak_states_reported(self):
        # cells (i, i-1) and (i, i-2): at most one row is live across a
        # column, so the states are (used?, rooks) pairs
        board = board_from_query(
            10, DescentQuery(explicit_set(range(1, 11)), explicit_set(range(1, 11)),
                             explicit_set([1, 2]))
        )
        route = {}
        r = rook_numbers(board, route=route)
        assert sum(rook._hits_from_rooks(r, 10)) == factorial(10)
        assert 1 < route["peak_states"] <= 2 * 11

    def test_state_cap(self):
        board = _non_ferrers_board(random.Random(3), 12)
        with pytest.raises(CapExceededError, match="state cap of 4 "):
            rook_numbers(board, limit=4)


class TestXyzCommand:
    @pytest.mark.parametrize("n", range(15, 21))
    def test_beyond_the_permanent_cap(self, capsys, n):
        code, out, err = _run(
            capsys, "xyz", "--n", str(n), "--x", "mod:3:0,2", "--y", "mod:2:1",
            "--z", "{1,3,5}",
        )
        assert code == EXIT_OK, err
        record = json.loads(out)
        assert record["command"] == "xyz"
        assert record["method"] == "rook"
        assert record["result"]["rook_path"] == "frontier"
        assert record["result"]["peak_states"] > 0
        assert _coefficient_total(record) == factorial(n)

    def test_n_200(self, capsys):
        code, out, err = _run(
            capsys, "xyz", "--n", "200", "--x", "all", "--y", "all",
            "--z", "{1,2,3,4}",
        )
        assert code == EXIT_OK, err
        assert _coefficient_total(json.loads(out)) == factorial(200)

    def test_never_enters_the_permanent(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the permanent is a check, not a route")

        monkeypatch.setattr(rook, "hit_polynomial_permanent", refuse)
        code, out, err = _run(
            capsys, "xyz", "--n", "14", "--x", "all", "--y", "all",
            "--z", "{1,2,5}", "--method", "rook",
        )
        assert code == EXIT_OK, err
        assert _coefficient_total(json.loads(out)) == factorial(14)

    def test_state_cap_exits_3(self, capsys):
        # rows of 18 cells overlap 17 at a time: 2^17 used-row masks
        code, _, err = _run(
            capsys, "xyz", "--n", "30", "--x", "all", "--y", "all",
            "--z", "{" + ",".join(map(str, range(1, 19))) + "}",
        )
        assert code == EXIT_CAP
        assert "state cap" in err

    def test_ferrers_path_named(self, capsys):
        code, out, err = _run(
            capsys, "poly", "--n", "8", "--x", "mod:2:0", "--y", "all",
            "--method", "rook",
        )
        assert code == EXIT_OK, err
        result = json.loads(out)["result"]
        assert result["rook_path"] == "ferrers"
        assert "peak_states" not in result

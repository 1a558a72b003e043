"""The board-free Ferrers route of hits_with_route and the hit numbers by a
shift in z - 1, each against the computation it replaced."""

import json
import random
from itertools import accumulate
from math import comb, factorial
from operator import mul

import pytest
from test_frontier import _non_ferrers_board, _random_board

from descentpoly import rook
from descentpoly.cli import EXIT_OK, main
from descentpoly.perms import InputError
from descentpoly.polynomials import IntPolynomial
from descentpoly.rook import Board, board_from_query, hits_with_route, rook_numbers
from descentpoly.sets import (
    ALL, SetUnion, at_least, explicit_set, parse_set, residue_set,
)
from descentpoly.stats import DescentQuery, recursion_bivar


def _comb_hits(r, n):
    """h_j = sum_k (-1)^(k-j) r_k (n-k)! C(k, j), one binomial per term."""
    fact = list(accumulate(range(1, n + 1), mul, initial=1))
    w = [rk * fact[n - k] for k, rk in enumerate(r)]

    def part(j, start):
        return sum(w[k] * comb(k, j) for k in range(start, n + 1, 2))

    return [part(j, j) - part(j, j + 1) for j in range(n + 1)]


def _board_route(n, query):
    """The Ferrers route through a built board, with the binomial inversion."""
    heights, _ = rook.height_structure(board_from_query(n, query))
    hits = _comb_hits(rook.ferrers_rook_numbers(heights), n)
    return IntPolynomial(dict(enumerate(hits))), {"rook_path": "ferrers"}


def _shapes(rng, n):
    """Tops or bottoms sets: every syntax of the CLI, and two seeded subsets."""
    return [
        ALL,
        explicit_set([]),
        residue_set(3, (0, 2)),
        at_least(max(n // 2, 1)),
        SetUnion((explicit_set([1]), residue_set(4, (1,)))),
        explicit_set(rng.sample(range(1, n + 1), n // 2)),
        explicit_set(rng.sample(range(1, n + 1), (2 * n) // 3)),
    ]


class TestBoardFree:
    @pytest.mark.parametrize("n", range(0, 41))
    def test_matches_board_path(self, n):
        rng = random.Random(n)
        shapes = _shapes(rng, n)
        for tops in shapes:
            for bottoms in shapes:
                query = DescentQuery(tops, bottoms)
                assert hits_with_route(n, query) == _board_route(n, query), (
                    tops, bottoms)

    def test_negative_n_rejected(self):
        with pytest.raises(InputError):
            hits_with_route(-3, DescentQuery(ALL, ALL))

    def test_builds_no_board_without_z(self, monkeypatch):
        query = DescentQuery(residue_set(6, (2, 4, 5)), residue_set(5, (0, 4)))
        expected = _board_route(30, query)

        def refuse(*args, **kwargs):
            raise AssertionError("board built")

        monkeypatch.setattr(rook, "board_from_query", refuse)
        assert hits_with_route(30, query) == expected
        with pytest.raises(AssertionError, match="board built"):
            hits_with_route(30, DescentQuery(ALL, ALL, explicit_set([1])))

    def test_z_keeps_the_board_route(self):
        for z, path in ((explicit_set([1]), "frontier"), (at_least(2), "ferrers")):
            query = DescentQuery(residue_set(3, (0, 2)), ALL, z)
            poly, route = hits_with_route(12, query)
            board = board_from_query(12, query)
            r, board_route = rook.rook_route(board)
            assert route == board_route
            assert route["rook_path"] == path
            assert poly == IntPolynomial(dict(enumerate(_comb_hits(r, 12))))


def _frontier_boards():
    """The boards of tests/test_frontier.py."""
    boards = [
        _non_ferrers_board(random.Random(1000 + n), n) for n in (4, 7, 10, 12, 14)
    ]
    for n in range(0, 9):
        rng = random.Random(n)
        boards += [_random_board(rng, n) for _ in range(3)]
    boards += [Board(0, frozenset()), Board(5, frozenset())]
    boards.append(board_from_query(10, DescentQuery(
        explicit_set(range(1, 11)), explicit_set(range(1, 11)), explicit_set([1, 2]))))
    return boards


class TestShiftInversion:
    @pytest.mark.parametrize("n", range(0, 61))
    def test_matches_binomials_on_seeded_vectors(self, n):
        rng = random.Random(n)
        vectors = [[0] * (n + 1)]
        for _ in range(3):
            top = rng.randrange(n + 1)  # r_k = 0 beyond top
            vectors.append([
                rng.randrange(-10**30, 10**30) if k <= top else 0 for k in range(n + 1)
            ])
        for r in vectors:
            assert rook._hits_from_rooks(r, n) == _comb_hits(r, n)

    def test_matches_binomials_on_frontier_boards(self):
        for board in _frontier_boards():
            r = rook_numbers(board)
            assert rook._hits_from_rooks(r, board.n) == _comb_hits(r, board.n)

    @pytest.mark.parametrize("x, y", [
        ("{2,3,4,6,7,9}", "{1,4,8}"),
        ("{2,3,5,7,8}", "{1,2,4,5,6}"),
        ("mod:3:0,2", "all"),
        ("mod:2:0", "all"),
        ("{2,4}", "{1,2}"),
    ])
    def test_cli_matches_recursion_at_400(self, capsys, x, y):
        code = main(["poly", "--n", "400", "--x", x, "--y", y, "--method", "rook"])
        captured = capsys.readouterr()
        assert code == EXIT_OK, captured.err
        result = json.loads(captured.out)["result"]
        assert result["rook_path"] == "ferrers"
        got = IntPolynomial({int(e): int(c) for e, c in result["coefficients"].items()})
        expected = recursion_bivar(400, parse_set(x), parse_set(y)).specialize_second(1)
        assert got == expected

    def test_eulerian_total_at_800(self):
        poly, route = hits_with_route(800, DescentQuery(ALL, ALL))
        assert route == {"rook_path": "ferrers"}
        assert sum(poly.coeff_list()) == factorial(800)

"""Boards, rook/hit numbers, the cycle-rewriting bijection, reductions."""

from math import factorial

import pytest

from descentpoly.perms import InputError, all_permutations, from_cycles
from descentpoly.polynomials import IntPolynomial, binom
from descentpoly.rook import (
    Board,
    NotFerrersError,
    board_from_query,
    canonical_distinct_rows,
    ferrers_rook_numbers,
    foata,
    foata_inverse,
    height_structure,
    hit_numbers,
    hit_numbers_enumerate,
    hit_polynomial,
    hit_polynomial_permanent,
    hits_with_route,
    rook_equivalent,
    rook_numbers,
    row_lengths,
    u_excedences,
)
from descentpoly.sets import ALL, at_least, explicit_set, residue_set
from descentpoly.stats import DescentQuery, brute_poly, des_set
from descentpoly.verify import sweep_foata, sweep_rook


class TestBoards:
    def test_cells_below_diagonal_only(self):
        with pytest.raises(ValueError):
            Board(3, frozenset([(2, 2)]))
        with pytest.raises(ValueError):
            Board(3, frozenset([(4, 1)]))

    def test_board_from_query(self):
        q = DescentQuery(explicit_set([3]), explicit_set([1, 2]))
        b = board_from_query(3, q)
        assert b.cells == {(3, 1), (3, 2)}
        assert b.ascii_grid().splitlines()[0] == "# # ."

    def test_difference_filter(self):
        q = DescentQuery(ALL, ALL, explicit_set([1]))
        b = board_from_query(4, q)
        assert b.cells == {(2, 1), (3, 2), (4, 3)}


class TestRookNumbers:
    def test_full_staircase_pinned(self):
        # all cells below the diagonal of a 4 x 4 grid
        b = board_from_query(4, DescentQuery(ALL, ALL))
        assert rook_numbers(b) == [1, 6, 7, 1, 0]

    def test_ferrers_path_matches_general_dp(self):
        for tops, bottoms in [
            (explicit_set([2, 3, 5, 7, 8]), explicit_set([1, 2, 4, 5, 6])),
            (residue_set(2, (0,)), ALL),
            (at_least(4), explicit_set([1, 2])),
        ]:
            b = board_from_query(8, DescentQuery(tops, bottoms))
            heights, _ = height_structure(b)
            assert ferrers_rook_numbers(heights) == rook_numbers(b)

    def test_non_ferrers_detected(self):
        # rows {1} and {2} do not nest
        b = Board(3, frozenset([(2, 1), (3, 2)]))
        with pytest.raises(NotFerrersError):
            row_lengths(b)
        # the general DP still works
        assert rook_numbers(b) == [1, 2, 1, 0]


class TestHitNumbers:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_matches_enumeration(self, n):
        for tops, bottoms in [
            (explicit_set([2, 3]), explicit_set([1])),
            (residue_set(2, (0,)), ALL),
            (ALL, ALL),
        ]:
            b = board_from_query(n, DescentQuery(tops, bottoms))
            assert hit_numbers(b)[: n + 1] == hit_numbers_enumerate(b)

    def test_permanent_matches_identity(self):
        q = DescentQuery(
            explicit_set([2, 3, 5, 7, 8]), explicit_set([1, 2, 4, 5, 6])
        )
        b = board_from_query(8, q)
        assert hit_polynomial_permanent(b) == hit_polynomial(b)

    def test_hit_polynomial_equals_descent_polynomial(self):
        for n in range(1, 8):
            q = DescentQuery(explicit_set([2, 4, 5, 7]), explicit_set([1, 3, 4]))
            assert hits_with_route(n, q)[0] == brute_poly(n, q)

    def test_two_block_board_with_difference_set(self):
        # tops 4,5,0 mod 6, bottoms 1,2,3 mod 6, differences 1..6 at n = 12:
        # the board splits into two 3 x 3 blocks, and the hit numbers from
        # the inversion identity, the permanent, and a staged block count
        # all agree and sum to 12!.
        q = DescentQuery(
            residue_set(6, (0, 4, 5)),
            residue_set(6, (1, 2, 3)),
            explicit_set(range(1, 7)),
        )
        board = board_from_query(12, q)
        hits = hit_numbers(board)
        assert hit_polynomial_permanent(board) == hit_polynomial(board)
        assert sum(hits) == factorial(12)
        assert hits[:7] == [
            79496640,
            170760960,
            152798400,
            62622720,
            12363840,
            933120,
            25920,
        ]
        assert all(h == 0 for h in hits[7:])

        # staged count: place p rooks in one block and q rooks in the
        # other, then fill the leftover block columns (t tracks how many
        # of one side's leftovers land in the six middle rows) and the
        # six middle columns
        def fall(a, k):
            return 0 if k < 0 or k > a else factorial(a) // factorial(a - k)

        def staged(s):
            total = 0
            for p in range(4):
                qq = s - p
                if not 0 <= qq <= 3:
                    continue
                blocks = (
                    binom(3, p) ** 2
                    * factorial(p)
                    * binom(3, qq) ** 2
                    * factorial(qq)
                )
                inner = sum(
                    binom(3 - qq, t)
                    * fall(6, t)
                    * fall(3 - p, 3 - qq - t)
                    * fall(9 - qq - t, 3 - p)
                    for t in range(4 - qq)
                )
                total += blocks * inner * factorial(6)
            return total

        assert [staged(s) for s in range(7)] == hits[:7]


class TestCycleRewriting:
    def test_pinned_images(self):
        assert foata((6, 1, 4, 3, 7, 2, 5, 8)) == (4, 3, 6, 1, 2, 7, 5, 8)
        assert foata((4, 1, 5, 7, 6, 2, 3, 8)) == (7, 4, 1, 2, 6, 5, 3, 8)

    def test_round_trip_s6(self):
        from descentpoly.perms import all_permutations

        for p in all_permutations(6):
            assert foata_inverse(foata(p)) == p

    def test_excedence_descent_bridge(self):
        q = DescentQuery(
            explicit_set([2, 4, 5]), explicit_set([1, 2]), explicit_set([1, 2, 3])
        )
        from descentpoly.perms import all_permutations

        board = board_from_query(5, q)
        for p in all_permutations(5):
            assert len(des_set(foata(p), q)) == u_excedences(p, board)

    def test_u_excedences_counts_board_cells(self):
        b = board_from_query(4, DescentQuery(ALL, ALL))
        # on the full staircase, board hits are exactly the excedences
        assert u_excedences((2, 3, 4, 1), b) == 3
        assert u_excedences((4, 3, 2, 1), b) == 2
        assert u_excedences((1, 2, 3, 4), b) == 0


class TestReduction:
    def test_pinned_distinct_rows_example(self):
        q = DescentQuery(
            explicit_set([2, 3, 5, 7, 8]), explicit_set([1, 2, 4, 5, 6])
        )
        board = board_from_query(8, q)
        canon, tops = canonical_distinct_rows(board)
        assert tops.members == (2, 3, 4, 5, 7)
        assert rook_equivalent(board, canon)
        assert brute_poly(8, q) == brute_poly(8, DescentQuery(tops, ALL))

    def test_reduction_preserves_polynomial_exhaustively_n4(self):
        for xbits in range(16):
            for ybits in range(16):
                tops = explicit_set(i + 1 for i in range(4) if (xbits >> i) & 1)
                bottoms = explicit_set(i + 1 for i in range(4) if (ybits >> i) & 1)
                q = DescentQuery(tops, bottoms)
                board = board_from_query(4, q)
                _, canon_tops = canonical_distinct_rows(board)
                assert brute_poly(4, q) == brute_poly(
                    4, DescentQuery(canon_tops, ALL)
                )


class TestSweeps:
    def test_rook_sweep(self):
        assert sweep_rook(5, pairs=25, seed=3) == 25

    def test_foata_sweep(self):
        assert sweep_foata(4, queries=5, seed=3) > 0


def _foata_inverse_by_cycles(sigma):
    """Cut sigma before each left-to-right maximum and hand the reversed
    blocks to from_cycles as the cycles of omega."""
    blocks = []
    for v in sigma:
        if not blocks or v > blocks[-1][0]:
            blocks.append([v])
        else:
            blocks[-1].append(v)
    return from_cycles([block[::-1] for block in blocks], len(sigma))


@pytest.mark.parametrize("n", range(9))
def test_foata_inverse_is_the_reversed_blocks_as_cycles(n):
    for sigma in all_permutations(n):
        assert foata_inverse(sigma) == _foata_inverse_by_cycles(sigma)


@pytest.mark.parametrize("bad", [(1, 1), (2, 3), (0,), (1, 2, 4), (2, 1, 1)])
def test_foata_inverse_rejects_non_permutations(bad):
    with pytest.raises(InputError, match="not a permutation"):
        foata_inverse(bad)


def test_ferrers_rook_numbers_rejects_falling_heights():
    with pytest.raises(NotFerrersError, match="weakly increasing"):
        ferrers_rook_numbers([2, 1])


def test_ferrers_rook_numbers_rejects_negative_heights():
    with pytest.raises(InputError, match="^height -2 is negative$"):
        ferrers_rook_numbers([-2, 0])


EULERIAN = [[1], [1, 0], [1, 1, 0], [1, 4, 1, 0]]  # by excedences, padded to n + 1


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("full", [False, True], ids=["empty", "staircase"])
def test_permanent_matches_enumeration_at_small_n(n, full):
    """The 0 x 0 permanent is 1, and the empty column subset makes every
    row factor 0.  The full staircase counts excedences: the Eulerian
    numbers."""
    cells = {(i, j) for i in range(1, n + 1) for j in range(1, i)} if full else set()
    board = Board(n, frozenset(cells))
    hits = hit_numbers_enumerate(board)
    assert hits == (EULERIAN[n] if full else [factorial(n)] + [0] * n)
    assert hit_polynomial_permanent(board) == IntPolynomial.from_coeffs(hits)


def _tops_by_row_lengths(board):
    """Canonical tops from the number of rows of each length k, read as the
    difference of two sorted heights; each difference must be 0 or 1."""
    n = board.n
    _, structure = height_structure(board)
    heights = [s + j for j, s in enumerate(sorted(structure, reverse=True))]
    exactly = {
        k: heights[n - k] - (heights[n - k - 1] if k < n else 0)
        for k in range(1, n + 1)
    }
    assert set(exactly.values()) <= {0, 1}
    return explicit_set(k + 1 for k, rows in exactly.items() if rows)


@pytest.mark.parametrize("n", range(7))
def test_canonical_tops_are_the_rises_of_the_sorted_heights(n):
    for xbits in range(1 << n):
        tops = explicit_set(i + 1 for i in range(n) if xbits >> i & 1)
        for ybits in range(1 << n):
            bottoms = explicit_set(i + 1 for i in range(n) if ybits >> i & 1)
            board = board_from_query(n, DescentQuery(tops, bottoms))
            canon, canon_tops = canonical_distinct_rows(board)
            assert canon_tops == _tops_by_row_lengths(board)
            lengths = row_lengths(canon)
            assert len(set(lengths)) == len(lengths)
            assert rook_equivalent(canon, board)

"""Boards, rook and hit numbers, and the descent/excedence bridge.

A board is a set of cells (i, j) strictly below the diagonal of an n x n
grid, read as "value i at position j".  A full placement of n non-attacking
rooks is then literally a permutation omega with omega_j = i, and the rooks
landing on the board are the marked excedences of omega.  The cycle-rewriting
bijection turns those excedences into marked descents, so hit numbers of
descent boards count permutations by descents — an independent route to
every descent polynomial in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, mul, sub

from .perms import InputError, all_permutations, check_permutation, check_size
from .polynomials import IntPolynomial
from .sets import ALL, IntegerSet, explicit_set
from .stats import CapExceededError, DescentQuery

__all__ = [
    "Board",
    "NotFerrersError",
    "board_from_query",
    "rook_numbers",
    "ferrers_rook_numbers",
    "hit_numbers",
    "hit_numbers_enumerate",
    "hit_polynomial",
    "hit_polynomial_permanent",
    "foata",
    "foata_inverse",
    "u_excedences",
    "row_lengths",
    "height_structure",
    "canonical_distinct_rows",
    "rook_equivalent",
    "hits_with_route",
    "rook_route",
]

STATE_CAP = 100_000  # live (mask, rooks) states of the frontier DP
ENUMERATION_CAP = 10
PERMANENT_CAP = 14


class NotFerrersError(ValueError):
    """The board does not reduce to a Ferrers shape."""


@dataclass(frozen=True)
class Board:
    """Cells (i, j) with 1 <= j < i <= n inside the n x n grid."""

    n: int
    cells: frozenset

    def __post_init__(self):
        check_size(self.n)
        for i, j in self.cells:
            if not 1 <= j < i <= self.n:
                raise InputError(f"cell {(i, j)} not strictly below the diagonal")

    def ascii_grid(self) -> str:
        """Rows top to bottom are values n down to 1."""
        lines = []
        for i in range(self.n, 0, -1):
            lines.append(
                " ".join(
                    "#" if (i, j) in self.cells else "." for j in range(1, self.n + 1)
                )
            )
        return "\n".join(lines)


def board_from_query(n: int, query: DescentQuery) -> Board:
    check_size(n)
    cells = frozenset(
        (i, j)
        for i in range(2, n + 1)
        for j in range(1, i)
        if query.matches(i, j)
    )
    return Board(n, cells)


def rook_numbers(
    board: Board, limit: int = STATE_CAP, *, route: dict | None = None
) -> list[int]:
    """r_0..r_n for an arbitrary board, by a frontier DP over the columns.

    Every cell lies strictly below the diagonal, so once column j is past
    the last cell of a row, that row can take no further rook and its bit
    is dropped.  A state is (used live rows, rooks placed); only the rows
    with cells on both sides of the current column are live, so the state
    count follows the board's width, not 2^n (the transfer-matrix method,
    Stanley, EC1 4.7).  More than ``limit`` states after a column raises
    CapExceededError.  When ``route`` is given, its "peak_states" is set.
    """
    n = board.n
    col_masks = [0] * (n + 1)
    last_col = [0] * (n + 1)
    for i, j in board.cells:
        col_masks[j] |= 1 << i
        last_col[i] = max(last_col[i], j)
    finished = [0] * (n + 1)  # rows whose last cell is in column j
    for i in range(2, n + 1):
        finished[last_col[i]] |= 1 << i
    states = {(0, 0): 1}
    peak = 1
    for j in range(1, n + 1):
        cm = col_masks[j]
        if not cm:
            continue
        keep = ~finished[j]
        new: dict[tuple[int, int], int] = {}
        for (mask, k), c in states.items():
            key = (mask & keep, k)  # leave column j empty
            new[key] = new.get(key, 0) + c
            avail = cm & ~mask
            while avail:
                bit = avail & -avail
                key = ((mask | bit) & keep, k + 1)
                new[key] = new.get(key, 0) + c
                avail ^= bit
        states = new
        if len(states) > limit:
            raise CapExceededError(
                f"frontier rook DP exceeds the state cap of {limit} live states"
                f" (n = {n}, column {j})"
            )
        peak = max(peak, len(states))
    if route is not None:
        route["peak_states"] = peak
    out = [0] * (n + 1)
    for (_, k), c in states.items():
        out[k] += c
    return out


def row_lengths(board: Board) -> list[int]:
    """Nonzero row sizes, increasing; raises unless rows nest into a chain."""
    by_row: dict[int, set] = {}
    for i, j in board.cells:
        by_row.setdefault(i, set()).add(j)
    rows = sorted(by_row.values(), key=len)
    for a, b in zip(rows, rows[1:]):
        if not a <= b:
            raise NotFerrersError("row supports do not form a chain")
    return [len(r) for r in rows]


def _heights(counts: list[int]) -> list[int]:
    """Heights of the Ferrers shape whose rows of length c number counts[c]
    (1 <= c <= n): column j has height #{rows of length >= n+1-j}, a running
    sum from the longest rows down."""
    return list(accumulate(counts[:0:-1]))


def height_structure(board: Board) -> tuple[list[int], list[int]]:
    """Height and structure vectors of the Ferrers shape the board reduces to.

    The reduction (drop empty rows/columns, mirror, push into the corner)
    only remembers the multiset of row sizes.
    """
    n = board.n
    counts = [0] * (n + 1)
    for length in row_lengths(board):
        counts[length] += 1
    heights = _heights(counts)
    structure = [h - (j - 1) for j, h in enumerate(heights, start=1)]
    return heights, structure


def ferrers_rook_numbers(heights: list[int]) -> list[int]:
    """r_0..r_n from a weakly increasing height vector, one column at a time.

    A column of height h adds r_(k-1)·(h-(k-1)) to r_k.  Columns of height 0
    add nothing, and after m non-empty columns (this one included) only
    r_0..r_m can be non-zero, so k runs to min(m, h).
    """
    n = len(heights)
    if any(a > b for a, b in zip(heights, heights[1:])):
        raise NotFerrersError("height vector must be weakly increasing")
    if heights and heights[0] < 0:
        raise InputError(f"height {heights[0]} is negative")
    r = [1]
    for h in heights:
        if not h:
            continue
        top = min(len(r), h)
        if top == len(r):
            r.append(0)
        free = range(h, h - top, -1)  # h - (k-1) for k = 1..top
        r[1 : top + 1] = map(add, r[1 : top + 1], map(mul, r[:top], free))
    return r + [0] * (n + 1 - len(r))


def _hits_from_rooks(r: list[int], n: int) -> list[int]:
    """h_0..h_n, the coefficients of H(z) = sum_k r_k (n-k)! (z-1)^k.

    Horner's rule in z - 1 from the last non-zero r_k down: each step is
    p <- p·(z-1) + r_k (n-k)!, one list of subtractions.
    """
    fact = list(accumulate(range(1, n + 1), mul, initial=1))  # 0!, 1!, ..., n!
    top = max((k for k, rk in enumerate(r) if rk), default=0)
    p = [r[top] * fact[n - top]]
    for k in range(top - 1, -1, -1):
        p = list(map(sub, [0] + p, p + [0]))
        p[0] += r[k] * fact[n - k]
    return p + [0] * (n - top)


def rook_route(board: Board) -> tuple[list[int], dict]:
    """r_0..r_n and the path that found them.

    The path is {"rook_path": "ferrers"} when the rows nest, and otherwise
    {"rook_path": "frontier", "peak_states": ...} from rook_numbers.
    """
    try:
        heights, _ = height_structure(board)
    except NotFerrersError:
        route = {"rook_path": "frontier"}
        return rook_numbers(board, route=route), route
    return ferrers_rook_numbers(heights), {"rook_path": "ferrers"}


def hit_numbers(board: Board) -> list[int]:
    """h_0..h_n via rook numbers and the standard inversion identity."""
    return _hits_from_rooks(rook_route(board)[0], board.n)


def hit_numbers_enumerate(board: Board) -> list[int]:
    """h_0..h_n by walking all of S_n; the oracle for the identity path."""
    n = board.n
    if n > ENUMERATION_CAP:
        raise CapExceededError(
            f"hit-number enumeration capped at n <= {ENUMERATION_CAP}"
        )
    out = [0] * (n + 1)
    for omega in all_permutations(n):
        out[u_excedences(omega, board)] += 1
    return out


def hit_polynomial(board: Board) -> IntPolynomial:
    return IntPolynomial.from_coeffs(hit_numbers(board))


def hit_polynomial_permanent(board: Board) -> IntPolynomial:
    """Sum over S_n of x^(rooks on board), as a permanent.

    The matrix with x on board cells and 1 elsewhere has permanent
    Sigma_omega x^(hits); the inclusion-exclusion permanent expansion
    evaluates it in 2^n column subsets instead of n! permutations, while
    still being the same sum over all placements.  For a subset S, row i
    contributes the factor a·x + b with a = |S ∩ row i| and b = |S| - a;
    their product is built on one coefficient list, new[k] = b·old[k] +
    a·old[k-1], and added into the total with sign (-1)^(n-|S|).
    """
    n = board.n
    if n > PERMANENT_CAP:
        raise CapExceededError(f"permanent path capped at n <= {PERMANENT_CAP}")
    row_masks = [0] * n
    for i, j in board.cells:
        row_masks[i - 1] |= 1 << (j - 1)
    total = [0] * (n + 1)
    for mask in range(1 << n):
        size = mask.bit_count()
        term = [1]
        for row in row_masks:
            a = (mask & row).bit_count()
            b = size - a
            term = [b * hi + a * lo for hi, lo in zip(term + [0], [0] + term)]
        total = list(map(sub if (n - size) % 2 else add, total, term))
    return IntPolynomial.from_coeffs(total)


def u_excedences(omega, board: Board) -> int:
    """Rooks of the placement omega_j = i that land on the board."""
    return sum(1 for j, i in enumerate(omega, start=1) if (i, j) in board.cells)


def foata(omega) -> tuple[int, ...]:
    """Cycle rewriting that turns excedences into descents.

    Write each cycle with its largest element last, order cycles by
    increasing largest element, reverse each cycle, concatenate.  Read
    backwards, that is the cycles by decreasing largest element, each
    followed from its largest letter along omega and ending there: scanning
    the letters from n down, each one not yet placed is the largest of its
    cycle.
    """
    omega = check_permutation(omega)
    placed = [False] * (len(omega) + 1)
    backwards = []
    for top in range(len(omega), 0, -1):
        cur = top
        while not placed[top]:
            cur = omega[cur - 1]
            placed[cur] = True
            backwards.append(cur)
    return tuple(reversed(backwards))


def foata_inverse(sigma) -> tuple[int, ...]:
    """Cut before each left-to-right maximum; reversed blocks are the cycles:
    a block b_0 ... b_k gives omega(b_i) = b_(i-1) and omega(b_0) = b_k."""
    sigma = check_permutation(sigma)
    n = len(sigma)
    omega = [0] * n
    top = 0  # b_0 of the current block, the largest letter so far
    for prev, v in zip((0, *sigma), (*sigma, n + 1)):  # n + 1 closes the last block
        if v < top:
            omega[v - 1] = prev
        else:
            if top:
                omega[top - 1] = prev
            top = v
    return tuple(omega)


def canonical_distinct_rows(board: Board) -> tuple[Board, IntegerSet]:
    """The rook-equivalent Ferrers board with distinct rows, and its tops set.

    The structure vector s_j = h_j - (j-1) starts at 0 (no row has length
    n), never exceeds 0 (only rows n+2-j..n reach column j) and falls by at
    most 1 per column (heights never fall), so its values fill {m, ..., 0}.
    Sorted decreasing, it gives heights that rise by 0 or 1 per column: a
    rise at column j, where two sorted values are equal, is the one row of
    length n+1-j, whose top is n+2-j.
    """
    n = board.n
    _, structure = height_structure(board)
    s = sorted(structure, reverse=True)
    # s[i] is column i + 1: a rise there is the row whose top is n + 1 - i
    tops = explicit_set(n + 1 - i for i in range(1, n) if s[i] == s[i - 1])
    canon = board_from_query(n, DescentQuery(tops, ALL))
    return canon, tops


def rook_equivalent(board1: Board, board2: Board) -> bool:
    """Ferrers boards are rook-equivalent iff their structure vectors agree
    as multisets."""
    _, s1 = height_structure(board1)
    _, s2 = height_structure(board2)
    return sorted(s1) == sorted(s2)


def hits_with_route(n: int, query: DescentQuery) -> tuple[IntPolynomial, dict]:
    """The query's descent polynomial as a hit polynomial, and the rook path
    taken (see rook_route).

    Without a difference set, row i of the board is Y ∩ [1, i-1] for each
    top i, so the rows nest and one pass over [1, n] counts the row lengths
    of the Ferrers shape; no board is built.
    """
    if query.diffs is not ALL:
        r, route = rook_route(board_from_query(n, query))
    else:
        check_size(n)
        counts = [0] * (n + 1)
        below = 0  # bottoms below i
        for i in range(1, n + 1):
            if below and i in query.tops:
                counts[below] += 1
            if i in query.bottoms:
                below += 1
        r, route = ferrers_rook_numbers(_heights(counts)), {"rook_path": "ferrers"}
    return IntPolynomial.from_coeffs(_hits_from_rooks(r, n)), route

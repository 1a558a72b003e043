"""Descent statistics: brute-force ground truth and insertion recursions.

The brute force here is the oracle everything else is checked against.
One blocked walk counts every word of a class R(rho), and S_n is the class
1^n, so it is capped (default n = 10; ``words`` caps word classes); the
recursions are exact and polynomially bounded, and serve as the reference
beyond the cap.  The walk imports numpy inside the functions that use it,
after the caller's cap check, so a caller that never walks a class never
loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, combinations, count, repeat
from math import comb
from operator import add, mul, sub

from .perms import check_size
from .polynomials import BivarPolynomial, IntPolynomial, multinomial
from .sets import ALL, IntegerSet, explicit_set

__all__ = [
    "DescentQuery",
    "CapExceededError",
    "des_set",
    "descent_value_pairs",
    "brute_poly",
    "brute_bivar",
    "recursion_bivar",
    "coefficient_recursion_bivar",
    "q_recursion",
    "q_lists",
    "complement_reverse",
    "DEFAULT_BRUTE_CAP",
]

DEFAULT_BRUTE_CAP = 10


class CapExceededError(Exception):
    """Raised when a brute-force sweep would exceed its configured size cap."""


@dataclass(frozen=True)
class DescentQuery:
    """A triple of membership conditions on a descent pair (top, bottom):
    top in tops, bottom in bottoms, top - bottom in diffs."""

    tops: IntegerSet
    bottoms: IntegerSet
    diffs: IntegerSet = field(default=ALL)

    def matches(self, top: int, bottom: int) -> bool:
        return (
            top > bottom
            and top in self.tops
            and bottom in self.bottoms
            and (top - bottom) in self.diffs
        )

    def match_table(self, m: int) -> list[list[bool]]:
        """table[a][b] = matches(a, b) for 0 <= a, b <= m."""
        return [[self.matches(a, b) for b in range(m + 1)] for a in range(m + 1)]


def des_set(sigma, query: DescentQuery) -> frozenset[int]:
    """Positions i (1-based) where (sigma_i, sigma_{i+1}) matches the query."""
    return frozenset(
        i for i in range(1, len(sigma)) if query.matches(sigma[i - 1], sigma[i])
    )


def descent_value_pairs(seq, query: DescentQuery) -> list[tuple[int, int]]:
    """The matching (top, bottom) value pairs, in position order.

    Works for permutations and words alike; repeated pairs are repeated.
    """
    return [
        (seq[i - 1], seq[i])
        for i in range(1, len(seq))
        if query.matches(seq[i - 1], seq[i])
    ]


def _check_cap(n: int, limit: int):
    check_size(n)
    if n > limit:
        raise CapExceededError(
            f"brute force over S_{n} exceeds the cap n <= {limit}"
        )


_LETTER_BUDGET = 1 << 20  # letters in one block: rows x word length
# blocks kept built; under the budget a block has at most 8 labels (8!·8 <=
# 2^20 < 9!·9), so each of its window indices takes one or two bytes
_BLOCKS = 16
WINDOW = 5  # positions per window: a window table has 9^5 = 59,049 cells at 8 labels


def _placements(f: int, p: int):
    """Where each of f positions reads its letter, in each of the C(f, p)
    ways to place p copies of a new letter among them, one row per way: the
    k-th position the new letter leaves free reads index k of the word so
    far, and a position it takes reads index f - p, just past that word."""
    import numpy as np

    ways = comb(f, p)
    taken = np.fromiter(
        chain.from_iterable(combinations(range(f), p)), dtype=np.intp, count=ways * p
    ).reshape(ways, p)
    mask = np.zeros((ways, f), dtype=bool)
    mask[np.arange(ways)[:, None], taken] = True
    source = (~mask).astype(np.intp)
    np.cumsum(source, axis=1, out=source)
    source -= 1
    np.putmask(source, mask, f - p)
    return source


@lru_cache(maxsize=_BLOCKS)
def _word_block(parts: tuple[int, ...]):
    """Every word with parts[i] copies of the label i, for the k = len(parts)
    labels 0..k-1, as a read-only array with one column per word: per
    window of WINDOW consecutive positions, the flat index
    Σ u_i·(k+1)^(WINDOW-1-i) of the labels u_0..u_(WINDOW-1) it has there.

    Each word is read with the label k before it and after it, as often as
    it takes to fill the last window.  Consecutive windows share one
    position, so every adjacent pair, the leading one included, lies in
    exactly one window.  Label 0 fills the first row; each other label is
    then placed in every way among the labels placed so far, by one gather
    from the rows with that label appended."""
    import numpy as np

    k = len(parts)
    rows = np.zeros((1, parts[0] if k else 0), dtype=np.min_scalar_type(k))
    for label, part in enumerate(parts[1:], start=1):
        length = rows.shape[1]
        wider = np.empty((len(rows), length + 1), dtype=rows.dtype)
        wider[:, :length] = rows
        wider[:, length] = label
        source = _placements(length + part, part)
        rows = wider.take(source, axis=1).reshape(-1, length + part)
    step = WINDOW - 1
    windows = -(-rows.shape[1] // step)  # one pair per letter, with the leading one
    dtype = np.min_scalar_type((k + 1) ** WINDOW - 1)
    padded = np.full((len(rows), windows * step + 1), k, dtype=dtype)
    padded[:, 1:rows.shape[1] + 1] = rows
    index = np.zeros((windows, len(rows)), dtype=dtype)
    for i in range(WINDOW):
        index *= k + 1
        index += padded[:, i:i + windows * step:step].T
    index.setflags(write=False)
    return index


def _class_counts(rho, query: DescentQuery) -> list[int]:
    """How many words of R(rho) have each number of matching descents, as
    a list by that number; S_n is the class rho = 1^n.

    The query is asked once per pair of letters that occur, into a table.
    The words are counted in blocks of at most _LETTER_BUDGET letters
    (rows x word length).  A class over the budget splits on its leading
    letter: each sub-class is the rest of the word after a fixed prefix,
    and carries the prefix's own count and its last letter.  The split
    repeats until every sub-class fits; for S_n that leaves every order of
    the last 8 values.

    A sub-class of k letters is one _word_block, its letters labelled
    0..k-1 by decreasing part, so every block of S_n is the block of 1^8.
    From the (k+1) x (k+1) table sub of its letters' matching pairs, with
    the label k read as the prefix's last letter before a word and as
    nothing after it, the sub-class builds the window table
    t[u_0..u_(WINDOW-1)] = Σ sub[u_i, u_(i+1)] by broadcast adds, and counts
    each word as the sum of t over its windows.  Every word is counted on
    its own, by its row sum; memory stays at a few blocks.
    """
    import numpy as np

    # the letters that occur, as 1..k; row and column 0 are zero, as sets
    # hold positive integers only: 0 reads as no letter before or after a word
    values = [0] + [v for v, part in enumerate(rho, start=1) if part]
    match = [[query.matches(a, b) for b in values] for a in values]
    table = np.array(match, dtype=np.uint8)
    rho = [part for part in rho if part]
    counts = np.zeros(max(sum(rho), 1), dtype=np.int64)
    classes = [(tuple(rho), 0, 0)]  # (letters left, prefix count, last letter or 0)
    while classes:
        rest, done, last = classes.pop()
        length = sum(rest)
        if length and multinomial(rest) * length > _LETTER_BUDGET:
            for v, part in enumerate(rest, start=1):
                if part:
                    sub = rest[:v - 1] + (part - 1,) + rest[v:]
                    classes.append((sub, done + match[last][v], v))
            continue
        letters = sorted((v for v, part in enumerate(rest, start=1) if part),
                         key=lambda v: -rest[v - 1])
        pairs = table[np.ix_(letters + [last], letters + [0])]
        t = pairs[:, :, None] + pairs  # windows of 3 positions
        t = t[:, :, :, None, None] + t  # of 5: two of 3 that share the middle
        index = _word_block(tuple(rest[v - 1] for v in letters))
        sums = t.take(index).sum(axis=0, dtype=np.min_scalar_type(length))
        block = np.bincount(sums)
        counts[done:done + len(block)] += block
    return counts.tolist()


def brute_poly(n: int, query: DescentQuery, limit: int = DEFAULT_BRUTE_CAP) -> IntPolynomial:
    """Sum over all of S_n of x^(number of matching descents)."""
    _check_cap(n, limit)
    return IntPolynomial.from_coeffs(_class_counts((1,) * n, query))


def brute_bivar(n: int, tops: IntegerSet, bottoms: IntegerSet) -> BivarPolynomial:
    """Two-variable refinement: x tracks descents, y tracks how many of
    1..n are outside the bottoms set."""
    _check_cap(n, DEFAULT_BRUTE_CAP)
    t = len(bottoms.complement_in(n))
    counts = _class_counts((1,) * n, DescentQuery(tops, bottoms))
    return BivarPolynomial({(s, t): c for s, c in enumerate(counts)})


def recursion_bivar(n: int, tops: IntegerSet, bottoms: IntegerSet) -> BivarPolynomial:
    """Insertion recursion, push form, keys (s, t).

    Inserts 1, 2, ..., n in turn; c[s] counts the arrangements of 1..m with
    s matching descents and pushes them into the new c[s] and a neighbour.
    If m+1 is a potential top it keeps the count in s + t + 1 slots and
    makes a descent in the other m - s - t; otherwise it destroys one of
    the s descents or keeps the count in m + 1 - s slots.  t counts the
    non-bottoms among 1..m, so every key has the same y exponent,
    t = len(bottoms.complement_in(n)).
    """
    c = [1]
    t = 0
    for m in range(check_size(n)):
        if (m + 1) in tops:
            keep = map(mul, c, range(t + 1, t + 1 + len(c)))
            make = map(mul, c, range(m - t, m - t - len(c), -1))
            c = list(map(add, chain(keep, [0]), chain([0], make)))
        else:
            destroy = map(mul, c[1:], count(1))
            keep = map(mul, c, range(m + 1, m + 1 - len(c), -1))
            c = list(map(add, keep, chain(destroy, [0])))
        while len(c) > 1 and not c[-1]:
            c.pop()
        t += (m + 1) not in bottoms
    return BivarPolynomial({(s, t): v for s, v in enumerate(c)})


def coefficient_recursion_bivar(
    n: int, tops: IntegerSet, bottoms: IntegerSet
) -> BivarPolynomial:
    """The same polynomial, gather form: each new coefficient reads old[s]
    and old[s-1] if m+1 is a potential top, else old[s+1] and old[s].
    Every key has the same y exponent, t = len(bottoms.complement_in(n)).

    Redundant with recursion_bivar on purpose: the two formulations are
    cross-checked against each other in the tests.
    """
    old = [1]
    t = 0  # non-bottoms among 1..m
    for m in range(check_size(n)):
        at = [0, *old, 0]  # at[s + 1] = old[s], zero outside
        if (m + 1) in tops:
            new = [(s + t + 1) * at[s + 1] + (m + 1 - s - t) * at[s]
                   for s in range(len(old) + 1)]
        else:
            new = [(s + 1) * at[s + 2] + (m + 1 - s) * at[s + 1]
                   for s in range(len(old))]
        while len(new) > 1 and not new[-1]:
            new.pop()
        old = new
        t += (m + 1) not in bottoms
    return BivarPolynomial({(s, t): v for s, v in enumerate(old)})


def _cum(p: list[int], off: int, start: int, h: int):
    """h values of the prefix sums p of a list that starts at q^off, read
    from q^start up: 0 below q^off, and the total p[-1] past the end."""
    i = start - off
    zeros = min(max(-i, 0), h)
    part = p[max(i, 0):max(i + h, 0)]
    return chain(repeat(0, zeros), part, repeat(p[-1], h - zeros - len(part)))


def q_lists(n: int, tops: IntegerSet) -> list[list[int]]:
    """c[s], the coefficient of x^s, as a dense list of q-coefficients.

    Inserting m+1 into the permutations of [m], the new x^s is
    [s+1]_q·a + q^s·[m+1-s]_q·b with a, b = c[s], c[s-1] if m+1 is a
    potential top, else c[s+1], c[s].  As (1 - q)·[k]_q = 1 - q^k, it is
    the prefix sum of (1 - q^(s+1))·a + (q^s - q^(m+1))·b: four shifted
    copies of the prefix sums of a and b, each held at its total past its
    end.

    Only the lower half of each new list is summed, because every list is
    a palindrome.  Let K_m be the sum of the j < m with j + 1 not in tops.
    At step m, c holds the permutations of [m], and c[s] is palindromic
    about (K_m + s·m)/2.  By induction from c = [[1]] at centre 0:

    - [k]_q is palindromic about (k - 1)/2;
    - a product of palindromes is one, and their centres add;
    - a sum of palindromes with one centre is one;
    - both terms of a new coefficient have one centre.  If m+1 is a top,
      [s+1]_q·c[s] and q^s·[m+1-s]_q·c[s-1] both centre at
      (K_m + s(m+1))/2; if not, [s+1]_q·c[s+1] and q^s·[m+1-s]_q·c[s]
      both centre at (K_m + m + s(m+1))/2.  That is (K_(m+1) + s(m+1))/2
      either way.

    Every coefficient counts permutations, so nothing cancels: a new list
    runs from lo = min(lo of a, s + lo of b) to 2·centre - lo.  Only the
    powers lo up to the centre are summed, and a reversed slice of them
    gives the rest.  Those read a = c[j] up to the new centre, and b = c[j]
    up to s below it: both at most m/2 past (K_m + j·m)/2, the centre of
    c[j], so its prefix sums stop there too.

    Inside the loop each list is held from its lowest power, lows[s], up.
    Every list stays nonzero: s stops at m, the most descents a
    permutation of [m+1] has, and one of a, b always exists.
    """
    lows, c = [0], [[1]]
    k = 0  # K_m
    for m in range(check_size(n)):
        # prefix sums of c[j] up to m/2 past its centre (K_m + j·m)/2
        sums = [list(accumulate(p[:(k + (j + 1) * m) // 2 - lo + 1]))
                for j, (lo, p) in enumerate(zip(lows, c))]
        top = (m + 1) in tops
        k += 0 if top else m
        new_lows, new = [], []
        for s in range(min(len(c) + top, m + 1)):
            ia = s + (not top)  # a is c[ia], b is c[ia - 1]
            centre2 = k + s * (m + 1)  # twice the new list's centre
            # an absent term is read as zeros and bounds lo by centre2
            pa, la = (sums[ia], lows[ia]) if ia < len(c) else ([0], centre2)
            pb, lb = (sums[ia - 1], lows[ia - 1]) if ia else ([0], centre2)
            lo = min(la, s + lb)
            h = centre2 // 2 - lo + 1
            plus = map(add, _cum(pa, la, lo, h), _cum(pb, lb, lo - s, h))
            minus = map(add, _cum(pa, la, lo - s - 1, h), _cum(pb, lb, lo - m - 1, h))
            half = list(map(sub, plus, minus))
            half += half[::-1] if centre2 % 2 else half[-2::-1]
            new.append(half)
            new_lows.append(lo)
        lows, c = new_lows, new
    return [[0] * lo + p for lo, p in zip(lows, c)]


def q_recursion(n: int, tops: IntegerSet) -> BivarPolynomial:
    """q-refined insertion recursion, keys (q-exponent, x-exponent), from
    the dense lists of q_lists.

    Specializing q = 1 collapses every q-integer to its length and recovers
    the single-variable descent polynomial for the given tops set.
    """
    return BivarPolynomial(
        {(eq, s): v for s, p in enumerate(q_lists(n, tops)) for eq, v in enumerate(p)}
    )


def complement_reverse(tops: IntegerSet, n: int) -> IntegerSet:
    """The set X* with i in X* iff n+1-i is in the restriction of tops.

    Counting descents whose *bottom* lies in the original set equals
    counting descents whose top lies in X*: complement-then-reverse sends
    a descent pair (i, j) to (n+1-j, n+1-i).
    """
    restricted = set(tops.restrict(n))
    return explicit_set(i for i in range(1, n + 1) if n + 1 - i in restricted)

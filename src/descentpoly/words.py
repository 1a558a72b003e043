"""Descent-pair polynomials for words (multiset permutations).

A word class is given by a composition rho = (rho_1, ..., rho_m): the
rearrangements of rho_1 copies of 1, ..., rho_m copies of m; S_n is the
class rho = 1^n.  The alternating-sum formulas weight the alpha/beta gap
counts by letter multiplicities, with per-letter factors C(r + o_x, rho_x)
that are linear when rho_x = 1; both run on the kernel of ``closed_forms``.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations, product
from math import comb

from .closed_forms import ClosedForm
from .perms import InputError
from .polynomials import IntPolynomial, multinomial
from .sets import IntegerSet
from .stats import CapExceededError, DescentQuery

__all__ = [
    "enumerate_rearrangements",
    "word_brute_poly",
    "word_form",
    "word_formula_1",
    "standardize",
    "chi",
    "all_chi_factors",
]

DEFAULT_WORD_CAP = 10**6


def _check_rho(rho) -> tuple[int, ...]:
    rho = tuple(rho)
    if min(rho, default=0) < 0:
        raise InputError(f"composition parts must be >= 0: {rho}")
    return rho


def _check_cap(rho, limit: int) -> tuple[int, ...]:
    """rho checked, when R(rho) has at most ``limit`` words;
    CapExceededError otherwise."""
    rho = _check_rho(rho)
    count = multinomial(rho)
    if count > limit:
        raise CapExceededError(f"|R({rho})| = {count} exceeds the cap {limit}")
    return rho


def enumerate_rearrangements(rho, limit: int = DEFAULT_WORD_CAP):
    """All rearrangements, in lexicographic order, as tuples of letters.

    Knuth's Algorithm L (TAOCP 7.2.1.2) on one list: find the last ascent
    a[j] < a[j+1], swap a[j] with the last letter above it, and reverse
    the tail after j.  The cap is checked when the walk starts.
    """
    rho = _check_cap(rho, limit)
    a = [v for v, part in enumerate(rho, start=1) for _ in range(part)]
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        last = len(a) - 1
        while a[j] >= a[last]:
            last -= 1
        a[j], a[last] = a[last], a[j]
        a[j + 1:] = a[:j:-1]


_LETTER_BUDGET = 1 << 20  # letters in one block of word_brute_poly: rows x length


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


def _words(rho):
    """Every word of R(rho), one row of letters each, in the narrowest
    unsigned type that holds the letter m = len(rho).  The letter with the
    largest part fills the first row; each other letter, largest part
    first, is then placed in every way among the letters placed so far, by
    one gather from the rows with that letter appended."""
    import numpy as np

    dtype = np.min_scalar_type(len(rho))
    parts = sorted(((p, v) for v, p in enumerate(rho, start=1) if p), reverse=True)
    if not parts:
        return np.zeros((1, 0), dtype=dtype)
    (part, letter), *others = parts
    rows = np.full((1, part), letter, dtype=dtype)
    for part, letter in others:
        length = rows.shape[1]
        wider = np.empty((len(rows), length + 1), dtype=dtype)
        wider[:, :length] = rows
        wider[:, length] = letter
        source = _placements(length + part, part)
        rows = wider.take(source, axis=1).reshape(-1, length + part)
    return rows


def _block_counts(table, rho, last: int):
    """How many words of R(rho) have each number of matching pairs, with
    the pair of ``last`` (0 for none) and the first letter included: the
    bincount of the row sums of one block."""
    import numpy as np

    rows = _words(rho)
    # a flat index into the table per pair, in the narrowest type that holds
    # one: indexing converts it to intp in chunks, not as one 8-byte copy
    pairs = rows[:, :-1].astype(np.min_scalar_type(table.size - 1))
    pairs *= len(table)
    pairs += rows[:, 1:]
    sums = table.ravel()[pairs].sum(axis=1, dtype=np.intp)
    if rows.shape[1]:
        sums += table[last].take(rows[:, 0])
    return np.bincount(sums)


def word_brute_poly(
    rho, tops: IntegerSet, bottoms: IntegerSet, limit: int = DEFAULT_WORD_CAP
) -> IntPolynomial:
    """Sum over R(rho) of x^(number of matching descents), for classes of at
    most ``limit`` words (CapExceededError otherwise).

    The query is asked once per letter pair a > b, into a uint8 table, and
    the words are counted in blocks of rows, one word per row.  A block
    holds every word of a class, built by placing each letter's copies in
    turn; every adjacent pair of every row is looked up in the table at
    once, each row is summed, and ``bincount`` counts the sums.

    A block holds at most _LETTER_BUDGET letters (rows x word length).  A
    class over the budget splits on its leading letter: each sub-class is
    the rest of the word after a fixed prefix, and carries the prefix's
    own count and its last letter, whose pair with the first letter of
    each row joins the row sum.  The split repeats until every sub-class
    fits.  Every word is still counted on its own, by its row sum.
    """
    rho = _check_cap(rho, limit)
    import numpy as np

    match = DescentQuery(tops, bottoms).match_table(len(rho))
    table = np.array(match, dtype=np.uint8)  # row 0: no letter before
    counts = np.zeros(max(sum(rho), 1), dtype=np.int64)
    classes = [(rho, 0, 0)]  # (letters left, prefix count, last letter or 0)
    while classes:
        rest, done, last = classes.pop()
        length = sum(rest)
        if length and multinomial(rest) * length > _LETTER_BUDGET:
            for v, part in enumerate(rest, start=1):
                if part:
                    sub = rest[:v - 1] + (part - 1,) + rest[v:]
                    classes.append((sub, done + match[last][v], v))
            continue
        block = _block_counts(table, rest, last)
        counts[done:done + len(block)] += block
    return IntPolynomial.from_coeffs(counts.tolist())


def word_form(
    rho, tops: IntegerSet, bottoms: IntegerSet, second: bool = False
) -> ClosedForm:
    """The word analogue of closed_forms.permutation_form."""
    return ClosedForm.from_sets(_check_rho(rho), tops, bottoms, second)


def word_formula_1(rho, s: int, tops: IntegerSet, bottoms: IntegerSet) -> int:
    """Alternating sum with per-letter factors C(rho_x + r + alpha + beta, rho_x)."""
    return word_form(rho, tops, bottoms).coefficient(s)


def _rho_of(word, m: int | None = None) -> tuple[int, ...]:
    """Letter counts over 1..m (m defaults to the largest letter); InputError
    names a letter outside that range."""
    if m is None:
        m = max(word, default=0)
    rho = [0] * m
    for v in word:
        if not 1 <= v <= m:
            raise InputError(f"letter {v!r} is not in 1..{m}")
        rho[v - 1] += 1
    return tuple(rho)


def chi(phis, word) -> tuple[int, ...]:
    """Relabel a word into a permutation, one factor per letter value.

    The i-th occurrence of letter j becomes offset_j + phi^(j)_i, where
    offset_j is the total multiplicity of the letters below j.  With every
    phi the identity this is the standardization of the word.
    """
    word = tuple(word)
    m = len(phis)
    rho = _rho_of(word, m)
    for letter, (phi, part) in enumerate(zip(phis, rho), start=1):
        if len(phi) != part:
            raise InputError(
                f"factor for letter {letter} has length {len(phi)}, "
                f"but the letter occurs {part} times"
            )
    offsets = [sum(rho[:j]) for j in range(m)]
    seen = [0] * m
    out = []
    for v in word:
        out.append(offsets[v - 1] + phis[v - 1][seen[v - 1]])
        seen[v - 1] += 1
    return tuple(out)


def standardize(word) -> tuple[int, ...]:
    """Replace the i-th occurrence of each letter by consecutive integers,
    smaller letters first."""
    word = tuple(word)
    rho = _rho_of(word)
    return chi([tuple(range(1, p + 1)) for p in rho], word)


def all_chi_factors(rho):
    """Iterator over the cartesian product of S_{rho_1} x ... x S_{rho_m}."""
    return product(*(permutations(range(1, p + 1)) for p in _check_rho(rho)))

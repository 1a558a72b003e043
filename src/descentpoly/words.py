"""Descent-pair polynomials for words (multiset permutations).

A word class is given by a composition rho = (rho_1, ..., rho_m): the
rearrangements of rho_1 copies of 1, ..., rho_m copies of m; S_n is the
class rho = 1^n.  The alternating-sum formulas weight the alpha/beta gap
counts by letter multiplicities, with per-letter factors C(r + o_x, rho_x)
that are linear when rho_x = 1; both run on the kernel of ``closed_forms``.
"""

from __future__ import annotations

from itertools import permutations, product

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


def _rearrangements(rho, limit: int, changed: list[int]):
    """The walk of enumerate_rearrangements.  Before each yield it writes
    into changed[0] the first position at which the word differs from the
    one before it (0 for the first word)."""
    rho = _check_rho(rho)
    count = multinomial(rho)
    if count > limit:
        raise CapExceededError(f"|R({rho})| = {count} exceeds the cap {limit}")
    a = [v for v, part in enumerate(rho, start=1) for _ in range(part)]
    changed[0] = 0
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
        changed[0] = j


def enumerate_rearrangements(rho, limit: int = DEFAULT_WORD_CAP):
    """All rearrangements, in lexicographic order, as tuples of letters.

    Knuth's Algorithm L (TAOCP 7.2.1.2) on one list: find the last ascent
    a[j] < a[j+1], swap a[j] with the last letter above it, and reverse
    the tail after j.
    """
    return _rearrangements(rho, limit, [0])


def word_brute_poly(
    rho, tops: IntegerSet, bottoms: IntegerSet, limit: int = DEFAULT_WORD_CAP
) -> IntPolynomial:
    """Sum over R(rho) of x^(number of matching descents), for classes of at
    most ``limit`` words (CapExceededError otherwise).

    The query is asked once per letter pair a > b, into a table.  run[i]
    counts the matching pairs among the first i + 1 letters of the current
    word.  A step of Algorithm L leaves the letters before some position j
    as they were, so only the pairs that end at j or later are looked up
    again: run[j:] is recounted from run[j - 1].  Every word is still
    counted on its own.
    """
    rho = _check_rho(rho)
    table = DescentQuery(tops, bottoms).match_table(len(rho))
    changed = [0]
    run = [0] * max(sum(rho), 1)
    counts = [0] * len(run)
    for w in _rearrangements(rho, limit, changed):
        for i in range(changed[0] or 1, len(w)):
            run[i] = run[i - 1] + table[w[i - 1]][w[i]]
        counts[run[-1]] += 1
    return IntPolynomial.from_coeffs(counts)


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

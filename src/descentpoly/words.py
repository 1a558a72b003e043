"""Descent-pair polynomials for words (multiset permutations).

A word class is given by a composition rho = (rho_1, ..., rho_m): the
rearrangements of rho_1 copies of 1, ..., rho_m copies of m; S_n is the
class rho = 1^n.  The alternating-sum formulas weight the alpha/beta gap
counts by letter multiplicities, with per-letter factors C(r + o_x, rho_x)
that are linear when rho_x = 1; both run on the kernel of ``closed_forms``.
The brute force is the blocked walk of ``stats``, the one that counts S_n.
"""

from __future__ import annotations

from itertools import permutations, product

from .closed_forms import ClosedForm
from .perms import InputError
from .polynomials import IntPolynomial, multinomial
from .sets import IntegerSet
from .stats import CapExceededError, DescentQuery, _class_counts

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


def word_brute_poly(
    rho, tops: IntegerSet, bottoms: IntegerSet, limit: int = DEFAULT_WORD_CAP
) -> IntPolynomial:
    """Sum over R(rho) of x^(number of matching descents), for classes of at
    most ``limit`` words (CapExceededError otherwise), by the blocked walk
    that counts S_n too: every word is counted on its own, by its row sum.
    """
    rho = _check_cap(rho, limit)
    return IntPolynomial.from_coeffs(_class_counts(rho, DescentQuery(tops, bottoms)))


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

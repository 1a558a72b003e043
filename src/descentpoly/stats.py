"""Descent statistics: brute-force ground truth and insertion recursions.

The brute-force sweeps here are the oracle everything else is checked
against.  They enumerate all of S_n, so they are capped (default n = 10);
the recursions are exact and polynomially bounded, and serve as the
reference beyond the cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, permutations
from operator import add, sub

import numpy as np

from .perms import check_size
from .polynomials import BivarPolynomial, IntPolynomial
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


BLOCK_SIZE = 8  # a block holds the 8! orders of the last 8 values; pair indices < 64 fit int8


@lru_cache(maxsize=None)
def _block(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All of S_k over the labels 0..k-1, one int8 row each, built by
    inserting k-1 into every slot of S_{k-1}; and, one int8 row per
    position i < k-1, the flat index u*k + v into a k x k table of the
    pair (u, v) each permutation has at positions i, i+1."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for v in range(k):
        rows = len(perms)
        new = np.empty((rows * (v + 1), v + 1), dtype=np.int8)
        for slot in range(v + 1):
            part = new[slot * rows:(slot + 1) * rows]
            part[:, :slot] = perms[:, :slot]
            part[:, slot] = v
            part[:, slot + 1:] = perms[:, slot:]
        perms = new
    pairs = (perms[:, :-1] * k + perms[:, 1:]).T.copy()
    perms.setflags(write=False)
    pairs.setflags(write=False)
    return perms, pairs


def _match_counts(n: int, query: DescentQuery) -> dict[int, int]:
    """How many permutations of S_n have each number of matching descents.

    The query is asked once per pair a > b, into a table.  S_n is walked in
    blocks: for each ordered prefix of n - k values (k = min(n, 8)), the
    block holds every order of the k values that remain, and each row is
    counted from the table (the prefix's own pairs, the pair where prefix
    and block join, and the block's pairs read through the remaining
    values).  Every permutation is visited; memory stays at one block.
    """
    table = np.array(query.match_table(n), dtype=bool)
    k = min(n, BLOCK_SIZE)
    block, pairs = _block(k)
    counts = [0] * (n + 1)
    values = range(1, n + 1)
    for prefix in permutations(values, n - k):
        rest = np.array(sorted(set(values).difference(prefix)), dtype=np.intp)
        sub = table[np.ix_(rest, rest)].ravel()
        rows = np.zeros(len(block), dtype=np.intp)
        for at in pairs:
            rows += sub[at]
        if prefix:
            rows += table[prefix[-1], rest][block[:, 0]]
            rows += sum(table[a, b] for a, b in zip(prefix, prefix[1:]))
        block_counts = np.bincount(rows, minlength=n + 1).tolist()
        counts = list(map(add, counts, block_counts))
    return {s: c for s, c in enumerate(counts) if c}


def brute_poly(n: int, query: DescentQuery, limit: int = DEFAULT_BRUTE_CAP) -> IntPolynomial:
    """Sum over all of S_n of x^(number of matching descents)."""
    _check_cap(n, limit)
    return IntPolynomial(_match_counts(n, query))


def brute_bivar(n: int, tops: IntegerSet, bottoms: IntegerSet) -> BivarPolynomial:
    """Two-variable refinement: x tracks descents, y tracks how many of
    1..n are outside the bottoms set."""
    _check_cap(n, DEFAULT_BRUTE_CAP)
    t = len(bottoms.complement_in(n))
    counts = _match_counts(n, DescentQuery(tops, bottoms))
    return BivarPolynomial({(s, t): c for s, c in counts.items()})


def recursion_bivar(n: int, tops: IntegerSet, bottoms: IntegerSet) -> BivarPolynomial:
    """Insertion recursion for the two-variable polynomial, keys (s, t).

    Builds permutations by inserting 1, 2, ..., n in turn.  Inserting m+1
    when m+1 is not a potential top either destroys one of the s matching
    descents or leaves the count alone; when m+1 is a potential top it
    preserves the count in s + t + 1 slots and creates a descent in the
    remaining m - s - t slots.  A factor y is picked up whenever m+1 is
    not a potential bottom.
    """
    poly = BivarPolynomial.constant(1)
    for m in range(check_size(n)):
        new: dict[tuple[int, int], int] = {}

        def add(key, v):
            if v:
                new[key] = new.get(key, 0) + v

        in_tops = (m + 1) in tops
        for (s, t), c in poly.items():
            if in_tops:
                add((s, t), c * (s + t + 1))
                add((s + 1, t), c * (m - s - t))
            else:
                if s > 0:
                    add((s - 1, t), c * s)
                add((s, t), c * (m + 1 - s))
        poly = BivarPolynomial(new)
        if (m + 1) not in bottoms:
            poly = poly.shift(0, 1)
    return poly


def coefficient_recursion_bivar(
    n: int, tops: IntegerSet, bottoms: IntegerSet
) -> BivarPolynomial:
    """Same polynomial via the four-case update on raw coefficients.

    Redundant with recursion_bivar on purpose: the two formulations are
    cross-checked against each other in the tests.
    """
    coeffs = {(0, 0): 1}
    t = 0  # every key after m steps has t = #non-bottoms in 1..m
    for m in range(check_size(n)):
        in_tops = (m + 1) in tops
        in_bottoms = (m + 1) in bottoms
        t += not in_bottoms
        new: dict[tuple[int, int], int] = {}
        max_s = max(s for s, _ in coeffs) + 1
        for s in range(max_s + 1):
            def old(si, ti):
                return coeffs.get((si, ti), 0)

            if not in_tops and not in_bottoms:
                v = (s + 1) * old(s + 1, t - 1) + (m + 1 - s) * old(s, t - 1)
            elif not in_tops and in_bottoms:
                v = (s + 1) * old(s + 1, t) + (m + 1 - s) * old(s, t)
            elif in_tops and not in_bottoms:
                v = (s + t) * old(s, t - 1) + (m + 2 - s - t) * old(s - 1, t - 1)
            else:
                v = (s + t + 1) * old(s, t) + (m + 1 - s - t) * old(s - 1, t)
            if v:
                new[(s, t)] = v
        coeffs = new
    return BivarPolynomial(coeffs)


def _times_q_int(c: list[int], a: int, k: int) -> list[int]:
    """Dense q-coefficients of q^a [k]_q c, where [k]_q = 1 + q + ... + q^(k-1).

    With P the prefix sums of c, coefficient j of [k]_q c is
    P[j+1] - P[j+1-k] (P clamped at both ends), so the product costs O(deg).
    """
    p = list(accumulate(c, initial=0))
    upper = p[1:] + [p[-1]] * (k - 1)
    lower = [0] * (k - 1) + p[:-1]
    return [0] * a + list(map(sub, upper, lower))


def _add_dense(u: list[int], v: list[int]) -> list[int]:
    if len(u) < len(v):
        u, v = v, u
    return list(map(add, u, v)) + u[len(v):]


def q_recursion(n: int, tops: IntegerSet) -> BivarPolynomial:
    """q-refined insertion recursion, keys (q-exponent, x-exponent).

    Specializing q = 1 collapses every q-integer to its length and recovers
    the single-variable descent polynomial for the given tops set.
    """
    # coefficient of x^s as a dense list of q-coefficients
    by_s: dict[int, list[int]] = {0: [1]}
    for m in range(check_size(n)):
        new: dict[int, list[int]] = {}

        def add_term(s, c, a, k):
            if k > 0:
                p = _times_q_int(c, a, k)
                new[s] = _add_dense(new[s], p) if s in new else p

        in_tops = (m + 1) in tops
        for s, c in by_s.items():
            if in_tops:
                add_term(s, c, 0, s + 1)
                add_term(s + 1, c, s + 1, m - s)
            else:
                add_term(s - 1, c, 0, s)
                add_term(s, c, s, m + 1 - s)
        by_s = new
    return BivarPolynomial(
        {(eq, s): v for s, p in by_s.items() for eq, v in enumerate(p) if v}
    )


def complement_reverse(tops: IntegerSet, n: int) -> IntegerSet:
    """The set X* with i in X* iff n+1-i is in the restriction of tops.

    Counting descents whose *bottom* lies in the original set equals
    counting descents whose top lies in X*: complement-then-reverse sends
    a descent pair (i, j) to (n+1-j, n+1-i).
    """
    restricted = set(tops.restrict(n))
    return explicit_set(i for i in range(1, n + 1) if n + 1 - i in restricted)

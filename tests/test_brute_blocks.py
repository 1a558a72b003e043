"""The blocked walk of S_n where blocks join (n = 8, 9, 10), below one
block (n = 0, 1, 2), at every block size and window split (n = 0..8), past
the cap (n = 11), and at the cap; and the size of the cached windows."""

import random

import pytest

from descentpoly.polynomials import IntPolynomial
from descentpoly.rook import hits_with_route
from descentpoly.sets import ALL, EVENS, explicit_set, residue_set
from descentpoly.stats import (
    CapExceededError,
    DescentQuery,
    _word_block,
    brute_bivar,
    brute_poly,
    recursion_bivar,
)


def _subset(n, rng, p=0.5):
    return explicit_set(i for i in range(1, n + 1) if rng.random() < p)


def _pairs(n, rng):
    """(tops, bottoms) pairs: named sets and seeded explicit ones."""
    return [
        (ALL, ALL),
        (EVENS, residue_set(3, (1, 2))),
        (_subset(n, rng, 0.6), _subset(n, rng, 0.6)),
        (explicit_set([]), ALL),
    ]


@pytest.mark.parametrize("n", [8, 9, 10])
def test_brute_poly_matches_recursion(n):
    for tops, bottoms in _pairs(n, random.Random(n)):
        expected = recursion_bivar(n, tops, bottoms).specialize_second(1)
        assert brute_poly(n, DescentQuery(tops, bottoms)) == expected


@pytest.mark.parametrize("n", [8, 9, 10])
def test_brute_bivar_matches_recursion(n):
    for tops, bottoms in _pairs(n, random.Random(50 + n))[1:3]:
        assert brute_bivar(n, tops, bottoms) == recursion_bivar(n, tops, bottoms)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_brute_poly_with_differences_matches_rook(n):
    rng = random.Random(100 + n)
    for _ in range(2):
        tops, bottoms = _subset(n, rng, 0.7), _subset(n, rng, 0.7)
        diffs = explicit_set(d for d in range(1, 7) if rng.random() < 0.5)
        query = DescentQuery(tops, bottoms, diffs)
        assert brute_poly(n, query) == hits_with_route(n, query)[0]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_sizes_below_one_block(n):
    rng = random.Random(200 + n)
    for tops, bottoms in _pairs(n, rng):
        query = DescentQuery(tops, bottoms)
        expected = recursion_bivar(n, tops, bottoms)
        assert brute_poly(n, query) == expected.specialize_second(1)
        assert brute_bivar(n, tops, bottoms) == expected
        assert brute_poly(n, query) == hits_with_route(n, query)[0]
    assert brute_poly(0, DescentQuery(ALL, ALL)) == IntPolynomial({0: 1})
    assert brute_poly(2, DescentQuery(ALL, ALL)).coeff_list() == [1, 1]


def test_default_cap_still_holds():
    with pytest.raises(CapExceededError, match="n <= 10"):
        brute_poly(11, DescentQuery(ALL, ALL))
    with pytest.raises(CapExceededError, match="n <= 10"):
        brute_bivar(11, ALL, ALL)


@pytest.mark.parametrize("n", range(9))
def test_every_block_size(n):
    # n <= 8 is one block of n labels: one window up to n = 4, two past it
    rng = random.Random(300 + n)
    for tops, bottoms in _pairs(n, rng):
        expected = recursion_bivar(n, tops, bottoms)
        assert brute_poly(n, DescentQuery(tops, bottoms)) == expected.specialize_second(1)
        assert brute_bivar(n, tops, bottoms) == expected
    for _ in range(3):
        diffs = explicit_set(d for d in range(1, 8) if rng.random() < 0.5)
        query = DescentQuery(_subset(n, rng, 0.7), _subset(n, rng, 0.7), diffs)
        assert brute_poly(n, query) == hits_with_route(n, query)[0]


def test_past_the_cap_on_request():
    # three prefix values: every row's count must fit its uint8 array
    tops, bottoms = residue_set(3, (0, 2)), ALL
    expected = recursion_bivar(11, tops, bottoms).specialize_second(1)
    assert brute_poly(11, DescentQuery(tops, bottoms), limit=11) == expected
    assert brute_poly(11, DescentQuery(ALL, ALL), limit=11).coeff_list() == [
        1, 2036, 152637, 2203488, 9738114, 15724248, 9738114, 2203488, 152637,
        2036, 1,
    ]


def test_cached_windows_stay_small():
    assert _word_block((1,) * 8).nbytes <= 1 << 20

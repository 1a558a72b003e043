"""The blocked walk of S_n where blocks join (n = 8, 9, 10), below one
block (n = 0, 1, 2), and at the cap."""

import random

import pytest

from descentpoly.polynomials import IntPolynomial
from descentpoly.rook import hits_with_route
from descentpoly.sets import ALL, EVENS, explicit_set, residue_set
from descentpoly.stats import (
    CapExceededError,
    DescentQuery,
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

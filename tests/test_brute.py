"""Brute force from a match table against a plain walk with des_set."""

import random

import pytest

from descentpoly.perms import all_permutations
from descentpoly.polynomials import BivarPolynomial, IntPolynomial
from descentpoly.sets import ALL, EVENS, explicit_set, residue_set
from descentpoly.stats import DescentQuery, brute_bivar, brute_poly, des_set


def _walk(n, query):
    counts = {}
    for sigma in all_permutations(n):
        s = len(des_set(sigma, query))
        counts[s] = counts.get(s, 0) + 1
    return counts


def _queries(n, rng):
    def subset():
        return explicit_set(i for i in range(1, n + 1) if rng.random() < 0.5)

    return [
        DescentQuery(ALL, ALL),
        DescentQuery(EVENS, residue_set(3, (1, 2))),
        DescentQuery(subset(), subset()),
        DescentQuery(ALL, ALL, explicit_set([1])),
        DescentQuery(subset(), subset(), explicit_set([1, 3, 4])),
        DescentQuery(subset(), ALL, subset()),
        DescentQuery(explicit_set([]), ALL),
    ]


@pytest.mark.parametrize("n", range(0, 8))
def test_brute_poly_matches_des_set_walk(n):
    for query in _queries(n, random.Random(n)):
        assert brute_poly(n, query) == IntPolynomial(_walk(n, query))


@pytest.mark.parametrize("n", range(0, 8))
def test_brute_bivar_matches_des_set_walk(n):
    for query in _queries(n, random.Random(100 + n))[:3]:
        t = len(query.bottoms.complement_in(n))
        expected = {(s, t): c for s, c in _walk(n, query).items()}
        assert brute_bivar(n, query.tops, query.bottoms) == BivarPolynomial(expected)

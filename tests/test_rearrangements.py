"""enumerate_rearrangements: lexicographic order, zero parts and the cap;
the word brute force against a count of every word from scratch."""

import random
from collections import Counter
from itertools import permutations

import pytest

from descentpoly.polynomials import IntPolynomial, multinomial
from descentpoly.sets import explicit_set, parse_set
from descentpoly.stats import CapExceededError, DescentQuery
from descentpoly.words import (
    enumerate_rearrangements,
    word_brute_poly,
    word_form,
)

COMPOSITIONS = [
    (0,), (0, 0), (1,), (3,), (1, 1), (2, 0, 1), (0, 2, 2), (3, 1, 2),
    (1, 1, 1, 1), (0, 3, 0, 2), (2, 2, 2, 3),
]


@pytest.mark.parametrize("rho", COMPOSITIONS, ids=str)
def test_lexicographic_order_of_every_rearrangement(rho):
    letters = [v for v, part in enumerate(rho, start=1) for _ in range(part)]
    expected = sorted(set(permutations(letters)))
    got = list(enumerate_rearrangements(rho))
    assert got == expected
    assert len(got) == multinomial(rho)
    assert all(type(w) is tuple for w in got)


def test_cap_is_checked_before_the_walk():
    walk = enumerate_rearrangements((5, 5, 5), limit=10)
    with pytest.raises(CapExceededError, match="exceeds the cap 10"):
        next(walk)
    assert list(enumerate_rearrangements((2, 2), limit=6))[-1] == (2, 2, 1, 1)


def test_brute_force_on_words_matches_the_formula():
    rho = (2, 2, 2, 3)
    tops, bottoms = parse_set("mod:3:0,2"), parse_set("mod:2:1")
    formula = word_form(rho, tops, bottoms).polynomial()
    assert word_brute_poly(rho, tops, bottoms) == formula


def _brute_cases():
    """Fixed edge compositions and seeded ones with zero parts, each with
    seeded tops and bottoms."""
    rng = random.Random(20)
    rhos = [(), (1,), (0, 0), (1,) * 6, (3, 3)]
    while len(rhos) < 13:
        rho = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 5)))
        if sum(rho) <= 8:
            rhos.append(rho)
    cases = []
    for rho in rhos:
        letters = range(1, len(rho) + 1)
        tops = explicit_set(v for v in letters if rng.random() < 0.6)
        bottoms = explicit_set(v for v in letters if rng.random() < 0.6)
        cases.append((rho, tops, bottoms))
    return cases


@pytest.mark.parametrize("rho,tops,bottoms", _brute_cases(), ids=str)
def test_brute_force_on_words_matches_a_count_from_scratch(rho, tops, bottoms):
    table = DescentQuery(tops, bottoms).match_table(len(rho))
    counts = Counter(
        sum(table[a][b] for a, b in zip(w, w[1:]))
        for w in enumerate_rearrangements(rho)
    )
    assert word_brute_poly(rho, tops, bottoms) == IntPolynomial(counts)


def test_brute_force_on_words_keeps_the_cap_message():
    rho = (4, 4, 4, 4)
    with pytest.raises(CapExceededError) as err:
        word_brute_poly(rho, parse_set("all"), parse_set("all"))
    count = multinomial(rho)
    assert str(err.value) == f"|R({rho})| = {count} exceeds the cap 1000000"

"""enumerate_rearrangements: lexicographic order, zero parts and the cap."""

from itertools import permutations

import pytest

from descentpoly.sets import parse_set
from descentpoly.stats import CapExceededError
from descentpoly.words import (
    enumerate_rearrangements,
    rearrangement_count,
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
    assert len(got) == rearrangement_count(rho)
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

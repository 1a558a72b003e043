"""The dense-list insertion recursions on edge sets, against brute force."""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentpoly.sets import ALL, EMPTY, at_least, explicit_set, parse_set
from descentpoly.stats import (
    brute_bivar,
    coefficient_recursion_bivar,
    q_recursion,
    recursion_bivar,
)
from test_q_recursion import _oracle

EDGE_PAIRS = [
    (EMPTY, EMPTY),  # t = n
    (EMPTY, ALL),
    (ALL, EMPTY),
    (ALL, ALL),
    (at_least(3), ALL),
    (ALL, at_least(5)),
    (at_least(2), at_least(4)),
    (parse_set("{1,4}|mod:3:2"), parse_set("{2}|geq:6")),
]

RECURSIONS = [recursion_bivar, coefficient_recursion_bivar]


def _y_exponents(poly):
    return {t for (_, t), _ in poly.items()}


@pytest.mark.parametrize("recursion", RECURSIONS)
@pytest.mark.parametrize("n", range(0, 9))
def test_edge_sets_match_brute(recursion, n):
    for tops, bottoms in EDGE_PAIRS:
        assert recursion(n, tops, bottoms) == brute_bivar(n, tops, bottoms), (tops, bottoms)


@pytest.mark.parametrize("recursion", RECURSIONS)
def test_sizes_zero_and_one(recursion):
    for tops, bottoms in EDGE_PAIRS:
        assert dict(recursion(0, tops, bottoms).items()) == {(0, 0): 1}
        t = 0 if 1 in bottoms else 1
        assert dict(recursion(1, tops, bottoms).items()) == {(0, t): 1}


@pytest.mark.parametrize("recursion", RECURSIONS)
@pytest.mark.parametrize("n", [0, 1, 5, 13, 40])
def test_every_key_has_the_single_y_exponent(recursion, n):
    for tops, bottoms in EDGE_PAIRS:
        t = len(bottoms.complement_in(n))
        assert _y_exponents(recursion(n, tops, bottoms)) == {t}


@pytest.mark.parametrize("recursion", RECURSIONS)
def test_no_bottoms_leaves_all_of_s_n_at_no_descent(recursion):
    for n in range(0, 30):
        assert dict(recursion(n, ALL, EMPTY).items()) == {(0, n): factorial(n)}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 8),
    st.sets(st.integers(1, 8)),
    st.sets(st.integers(1, 8)),
)
def test_recursions_match_brute_on_explicit_sets(n, xs, ys):
    tops, bottoms = explicit_set(xs), explicit_set(ys)
    brute = brute_bivar(n, tops, bottoms)
    assert recursion_bivar(n, tops, bottoms) == brute
    assert coefficient_recursion_bivar(n, tops, bottoms) == brute
    assert _y_exponents(brute) == {len(bottoms.complement_in(n))}


Q_TOPS = ["{}", "{1,2}", "geq:5", "{1}|mod:3:0"]


@pytest.mark.parametrize("n", range(0, 13))
def test_q_recursion_matches_oracle(n):
    for text in Q_TOPS:
        tops = parse_set(text)
        assert q_recursion(n, tops) == _oracle(n, tops), text

"""Brute-force descent counting and the insertion recursions."""

from math import factorial

import pytest

from descentpoly.polynomials import BivarPolynomial
from descentpoly.sets import ALL, EVENS, explicit_set, parse_set
from descentpoly.stats import (
    CapExceededError,
    DescentQuery,
    brute_bivar,
    brute_poly,
    coefficient_recursion_bivar,
    complement_reverse,
    des_set,
    descent_value_pairs,
    q_recursion,
    recursion_bivar,
)

X6 = explicit_set([2, 3, 4, 6, 7, 9])
Y6 = explicit_set([1, 4, 8])


class TestDescentSets:
    def test_pinned_descent_set(self):
        q = DescentQuery(explicit_set([2, 4, 5]), explicit_set([1, 4]))
        assert des_set((5, 4, 2, 1, 3), q) == {1, 3}

    def test_value_pairs_and_difference_filter(self):
        q = DescentQuery(ALL, ALL, explicit_set([1]))
        assert descent_value_pairs((3, 2, 1), q) == [(3, 2), (2, 1)]
        q2 = DescentQuery(ALL, ALL, explicit_set([2]))
        assert descent_value_pairs((3, 1, 2), q2) == [(3, 1)]

    def test_unrestricted_gives_eulerian(self):
        poly = brute_poly(4, DescentQuery(ALL, ALL))
        assert poly.coeff_list() == [1, 11, 11, 1]


class TestRecursions:
    @pytest.mark.parametrize("n", range(7))
    def test_both_recursions_match_brute(self, n):
        for tops, bottoms in [
            (X6, Y6),
            (EVENS, ALL),
            (explicit_set([1, 3]), explicit_set([2])),
            (ALL, ALL),
        ]:
            brute = brute_bivar(n, tops, bottoms)
            assert recursion_bivar(n, tops, bottoms) == brute
            assert coefficient_recursion_bivar(n, tops, bottoms) == brute

    def test_bivariate_examples_through_n5(self):
        # tops {2,3,5}, bottoms {1,3,4}: the sequence of two-variable
        # polynomials 1, 1, y(1+x), y(2+4x), y(12+12x), y^2(24+72x+24x^2)
        tops, bottoms = explicit_set([2, 3, 5]), explicit_set([1, 3, 4])
        expected = [
            {(0, 0): 1},
            {(0, 0): 1},
            {(0, 1): 1, (1, 1): 1},
            {(0, 1): 2, (1, 1): 4},
            {(0, 1): 12, (1, 1): 12},
            {(0, 2): 24, (1, 2): 72, (2, 2): 24},
        ]
        for n, coeffs in enumerate(expected):
            assert recursion_bivar(n, tops, bottoms) == BivarPolynomial(coeffs)

    def test_recursion_scales_past_the_brute_cap(self):
        poly = recursion_bivar(40, EVENS, ALL).specialize_second(1)
        assert sum(poly.coeff_list()) == factorial(40)

    def test_brute_cap(self):
        with pytest.raises(CapExceededError):
            brute_poly(11, DescentQuery(ALL, ALL))


class TestQRefinement:
    @pytest.mark.parametrize("n", range(7))
    def test_q_equals_one_collapses(self, n):
        for tops in (EVENS, X6, explicit_set([1]), ALL):
            q1 = q_recursion(n, tops).specialize_first(1)
            plain = recursion_bivar(n, tops, ALL).specialize_second(1)
            assert q1 == plain

    def test_q_mass_and_degree_bounds(self):
        poly = q_recursion(5, EVENS)
        assert sum(v for _, v in poly.items()) == 120
        assert all(eq <= 10 for (eq, _), _v in poly.items())


class TestComplementReverse:
    def test_pinned_example(self):
        assert complement_reverse(explicit_set([1]), 5).members == (5,)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bottom_counts_equal_reversed_top_counts(self, n):
        for bottoms in (explicit_set([1, 3]), EVENS, explicit_set([2])):
            lhs = brute_poly(n, DescentQuery(ALL, bottoms))
            star = complement_reverse(bottoms, n)
            rhs = brute_poly(n, DescentQuery(star, ALL))
            assert lhs == rhs


def test_coefficient_recursion_at_n200():
    tops, bottoms = parse_set("mod:6:0,1,4"), parse_set("mod:5:0,2")
    expected = recursion_bivar(200, tops, bottoms)
    assert coefficient_recursion_bivar(200, tops, bottoms) == expected

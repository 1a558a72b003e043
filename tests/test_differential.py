"""The closed forms' whole polynomials against every other route, on random
sets and compositions, and the size checks shared by every route."""

from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentpoly.closed_forms import (
    formula_alpha_beta,
    formula_beta_beta,
    permutation_form,
)
from descentpoly.polynomials import multinomial
from descentpoly.rook import board_from_query
from descentpoly.sets import ALL, SetUnion, at_least, explicit_set, parse_set, residue_set
from descentpoly.stats import (
    DescentQuery,
    brute_poly,
    coefficient_recursion_bivar,
    q_recursion,
    recursion_bivar,
)
from descentpoly.words import (
    word_brute_poly,
    word_form,
    word_formula_1,
)

atoms_st = st.one_of(
    st.sets(st.integers(1, 13)).map(explicit_set),
    st.integers(1, 5).flatmap(
        lambda k: st.sets(st.integers(0, k - 1)).map(lambda rs: residue_set(k, rs))
    ),
    st.integers(1, 13).map(at_least),
    st.just(ALL),
)
sets_st = st.one_of(atoms_st, st.tuples(atoms_st, atoms_st).map(SetUnion))


def _capped(parts, total=8):
    """Shrink parts left to right so that they sum to at most ``total``."""
    out = []
    for p in parts:
        out.append(min(p, total))
        total -= out[-1]
    return tuple(out)


compositions_st = st.lists(st.integers(0, 4), min_size=1, max_size=5).map(_capped)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), sets_st, sets_st)
def test_permutation_kernel_matches_every_route(n, tops, bottoms):
    poly1 = permutation_form(n, tops, bottoms).polynomial()
    poly2 = permutation_form(n, tops, bottoms, second=True).polynomial()
    assert poly1 == poly2 == recursion_bivar(n, tops, bottoms).specialize_second(1)
    for s in range(n + 2):
        assert formula_alpha_beta(n, s, tops, bottoms) == poly1.coeff(s)
        assert formula_beta_beta(n, s, tops, bottoms) == poly2.coeff(s)
    assert sum(poly1.coeff_list()) == factorial(n)
    if n <= 7:
        assert poly1 == brute_poly(n, DescentQuery(tops, bottoms))


@settings(max_examples=200, deadline=None)
@given(compositions_st, sets_st, sets_st)
def test_word_kernels_match_enumeration(rho, tops, bottoms):
    brute = word_brute_poly(rho, tops, bottoms)
    poly1 = word_form(rho, tops, bottoms).polynomial()
    poly2 = word_form(rho, tops, bottoms, second=True).polynomial()
    assert poly1 == poly2 == brute
    assert sum(poly1.coeff_list()) == multinomial(rho)
    for s in range(sum(rho) + 2):
        assert word_formula_1(rho, s, tops, bottoms) == poly1.coeff(s)
        assert word_form(rho, tops, bottoms, second=True).coefficient(s) == poly2.coeff(s)


GRID_SETS = [
    explicit_set([2, 3, 5, 8, 11]),
    residue_set(3, (0, 2)),
    at_least(4),
    SetUnion((explicit_set([1]), residue_set(4, (0,)))),
    explicit_set([]),
    ALL,
]
GRID_RHOS = [(0,), (2, 0, 1), (1, 0, 0, 3), (0, 2, 2, 0), (3, 1, 0, 2)]


@pytest.mark.parametrize("second", [False, True], ids=["formula1", "formula2"])
def test_permutation_polynomial_is_its_coefficients_on_a_grid(second):
    """The difference passes give the per-s binomial sums, at every n of the
    grid and every kind of set."""
    for n, tops, bottoms in product(range(13), GRID_SETS, GRID_SETS):
        form = permutation_form(n, tops, bottoms, second)
        poly = form.polynomial()
        assert [poly.coeff(s) for s in range(n + 2)] == [
            form.coefficient(s) for s in range(n + 2)
        ], (n, str(tops), str(bottoms))


@pytest.mark.parametrize("second", [False, True], ids=["formula1", "formula2"])
def test_word_polynomial_is_its_coefficients_on_a_grid(second):
    for rho, tops, bottoms in product(GRID_RHOS, GRID_SETS, GRID_SETS):
        form = word_form(rho, tops, bottoms, second)
        poly = form.polynomial()
        size = sum(rho) + 2
        assert [poly.coeff(s) for s in range(size)] == [
            form.coefficient(s) for s in range(size)
        ], (rho, str(tops), str(bottoms))


def _both_formulas_equal_the_recursion(n):
    tops, bottoms = parse_set("mod:6:0,1,4"), parse_set("mod:5:0,2")
    recursion = recursion_bivar(n, tops, bottoms).specialize_second(1)
    assert permutation_form(n, tops, bottoms).polynomial() == recursion
    assert permutation_form(n, tops, bottoms, second=True).polynomial() == recursion


def test_both_formulas_equal_the_recursion_at_n200():
    _both_formulas_equal_the_recursion(200)


def test_both_formulas_equal_the_recursion_at_n800():
    _both_formulas_equal_the_recursion(800)


@pytest.mark.parametrize(
    "route",
    [
        lambda n: permutation_form(n, ALL, ALL),
        lambda n: permutation_form(n, ALL, ALL, second=True),
        lambda n: recursion_bivar(n, ALL, ALL),
        lambda n: coefficient_recursion_bivar(n, ALL, ALL),
        lambda n: q_recursion(n, ALL),
        lambda n: brute_poly(n, DescentQuery(ALL, ALL)),
        lambda n: board_from_query(n, DescentQuery(ALL, ALL)),
    ],
)
def test_negative_sizes_are_rejected(route):
    route(0)
    with pytest.raises(ValueError, match="n must be >= 0"):
        route(-3)

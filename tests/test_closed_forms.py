"""Alternating-sum closed formulas against brute force and product forms."""

import random
from itertools import product
from math import factorial

import pytest

from descentpoly.closed_forms import (
    ClosedForm,
    formula_alpha_beta,
    formula_alpha_beta_terms,
    formula_beta_beta,
    formula_X_only_1,
    kn_bottom_formulas,
    kn_top_formulas,
    permutation_form,
    rectangle_product,
)
from descentpoly.hypergeom import HypergeometricSpec, verify_cor35
from descentpoly.perms import InputError
from descentpoly.polynomials import binom, multinomial
from descentpoly.sets import ALL, EVENS, at_least, explicit_set, residue_set
from descentpoly.stats import DescentQuery, brute_poly, recursion_bivar

X6 = explicit_set([2, 3, 4, 6, 7, 9])
Y6 = explicit_set([1, 4, 8])


class TestPinnedValues:
    def test_six_letter_example_value(self):
        # X = {2,3,4,6,7,9}, Y = {1,4,8}, n = 6, s = 2: hand count is 72
        # (the two matching descents are always {(6,4)} plus one of
        # (2,1), (3,1), (4,1); chain 641 gives 24, the two disjoint
        # layouts give 24 each).
        assert formula_alpha_beta(6, 2, X6, Y6) == 72
        assert formula_beta_beta(6, 2, X6, Y6) == 72
        assert brute_poly(6, DescentQuery(X6, Y6)).coeff(2) == 72

    def test_six_letter_example_terms(self):
        pre, terms = formula_alpha_beta_terms(6, 2, X6, Y6)
        assert pre == 2
        assert terms == [2016, -6300, 4320]

    def test_eulerian_specialization(self):
        for n in range(1, 8):
            poly = brute_poly(n, DescentQuery(ALL, ALL))
            for s in range(n + 1):
                assert formula_alpha_beta(n, s, ALL, ALL) == poly.coeff(s)


class TestSweep:
    @pytest.mark.parametrize("n", range(6))
    def test_all_pairs_small(self, n):
        from descentpoly.verify import sweep_formulas

        assert sweep_formulas(n) >= 0

    def test_x_only_specializations_match(self):
        for n in range(1, 7):
            for tops in (EVENS, explicit_set([1, 4]), explicit_set([3])):
                brute = brute_poly(n, DescentQuery(tops, ALL))
                for s in range(n + 1):
                    assert formula_X_only_1(n, s, tops) == brute.coeff(s)
                    assert formula_beta_beta(n, s, tops, ALL) == brute.coeff(s)


class TestProductForms:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_even_tops_square_product(self, n):
        # tops = even numbers in S_{2n}: coefficient of x^s is (n!)^2 C(n,s)^2
        brute = brute_poly(2 * n, DescentQuery(EVENS, ALL))
        for s in range(n + 1):
            expected = factorial(n) ** 2 * binom(n, s) ** 2
            assert brute.coeff(s) == expected
            assert formula_X_only_1(2 * n, s, EVENS) == expected

    def test_rectangle_product_matches_brute(self):
        for m in range(1, 3):
            for u in range(2):
                for v in range(2):
                    n = 2 * m + u + v
                    tops = explicit_set(u + 2 * i for i in range(1, m + 1))
                    brute = brute_poly(n, DescentQuery(tops, ALL))
                    for s in range(m + 1):
                        assert rectangle_product(m, u, v, s) == brute.coeff(s)

    @pytest.mark.parametrize("k", [2, 3])
    def test_multiples_of_k_formulas(self, k):
        for m in range(0, 4):
            for j in range(k):
                n = k * m + j
                if not 1 <= n <= 7:
                    continue
                top_brute = brute_poly(
                    n, DescentQuery(explicit_set(k * i for i in range(1, m + 1)), ALL)
                )
                bottom_brute = brute_poly(
                    n, DescentQuery(ALL, explicit_set(k * i for i in range(1, m + 1)))
                )
                for s in range(m + 1):
                    f1, f2 = kn_top_formulas(k, m, j, s)
                    assert f1 == f2 == top_brute.coeff(s)
                    g1, g2 = kn_bottom_formulas(k, m, j, s)
                    assert g1 == g2 == bottom_brute.coeff(s)


class TestSpecialCasesPastTheCap:
    """The special cases against the insertion recursion, an independent
    route, at sizes brute force cannot reach."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_multiples_of_k_against_recursion(self, k):
        m = 60 // k - 1
        mults = explicit_set(k * i for i in range(1, m + 1))
        for j in range(k):
            n = k * m + j
            top = recursion_bivar(n, mults, ALL).specialize_second(1)
            bottom = recursion_bivar(n, ALL, mults).specialize_second(1)
            for s in range(n + 2):
                assert kn_top_formulas(k, m, j, s) == (top.coeff(s),) * 2
                assert kn_bottom_formulas(k, m, j, s) == (bottom.coeff(s),) * 2

    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_eulerian_against_recursion(self, n):
        poly = recursion_bivar(n, ALL, ALL).specialize_second(1)
        assert [formula_alpha_beta(n, s, ALL, ALL) for s in range(n + 2)] == [
            poly.coeff(s) for s in range(n + 2)
        ]


OUT_OF_RANGE = [
    (kn_top_formulas, (1, -1, 0, 0), "n must be >= 0, got -1"),
    (kn_top_formulas, (3, -2, 0, 0), "n must be >= 0, got -6"),
    (kn_bottom_formulas, (3, -2, 1, 0), "n must be >= 0, got -5"),
    (kn_top_formulas, (3, 2, 3, 0), "need 0 <= j <= k-1"),
    (kn_bottom_formulas, (3, 2, -1, 0), "need 0 <= j <= k-1"),
    (kn_top_formulas, (0, 2, 0, 0), "need 0 <= j <= k-1"),
    (verify_cor35, (0, 2, 0), "need k >= 1 and m >= 1"),
    (verify_cor35, (2, 0, 0), "need k >= 1 and m >= 1"),
    (verify_cor35, (-1, -1, 0), "need k >= 1 and m >= 1"),
]


@pytest.mark.parametrize(
    "fn, args, message", OUT_OF_RANGE,
    ids=[f"{fn.__name__}{args}" for fn, args, _ in OUT_OF_RANGE],
)
def test_special_cases_reject_out_of_range(fn, args, message):
    with pytest.raises(InputError, match=message):
        fn(*args)


@pytest.mark.parametrize("second", [False, True])
def test_explicit_and_residue_evens_give_one_form(second):
    # an explicit set answers membership from a hash set, so asking it
    # about each of 1..20000 costs no more than asking the residue class
    explicit = explicit_set(range(2, 20001, 2))
    assert permutation_form(20000, explicit, ALL, second) == permutation_form(
        20000, EVENS, ALL, second
    )


# explicit (empty and not), residue, geq: and all
FORM_SETS = [explicit_set(()), explicit_set([1, 3, 4]), residue_set(3, (0, 2)),
             at_least(3), ALL]


def _seeded_compositions(seed=31, count=40):
    """rho = () and seeded compositions of up to 7 parts in 0..3."""
    rng = random.Random(seed)
    yield ()
    for _ in range(count):
        yield tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 7)))


def test_prefactor_is_the_multinomial_of_the_non_top_masses():
    zero_parts = 0
    for rho in _seeded_compositions():
        zero_parts += 0 in rho
        non_tops = {}
        for tops, bottoms, second in product(FORM_SETS, FORM_SETS, (False, True)):
            form = ClosedForm.from_sets(rho, tops, bottoms, second)
            masses = [p for x, p in enumerate(rho, 1) if x not in tops]
            assert form.prefactor == multinomial(masses), (rho, str(tops))
            non_tops[str(tops)] = masses
        assert non_tops["{}"] == list(rho) and non_tops["all"] == []
    assert zero_parts > 0


VALUES = [
    (permutation_form(6, X6, Y6), lambda form: form._replace(second=not form.second)),
    (HypergeometricSpec((-3, 1), (2,)), lambda spec: spec._replace(denominator=(3,))),
]


@pytest.mark.parametrize("value, changed", VALUES, ids=["ClosedForm", "HypergeometricSpec"])
def test_value_types_are_tuples_compared_by_fields(value, changed):
    cls = type(value)
    assert issubclass(cls, tuple) and not hasattr(value, "__dict__")
    copy = cls(*value)
    assert copy is not value and copy == value and hash(copy) == hash(value)
    assert changed(value) != value
    assert cls(**value._asdict()) == value

"""Word (multiset permutation) descent polynomials and relabeling maps."""

from math import factorial

import pytest

from descentpoly.perms import InputError, from_cycles
from descentpoly.polynomials import binom, multinomial
from descentpoly.sets import ALL, EVENS, explicit_set
from descentpoly.stats import CapExceededError, DescentQuery, brute_poly, des_set
from descentpoly.verify import sweep_words
from descentpoly.words import (
    all_chi_factors,
    chi,
    enumerate_rearrangements,
    standardize,
    word_brute_poly,
    word_form,
    word_formula_1,
)


class TestEnumeration:
    def test_counts_and_order(self):
        assert multinomial((2, 1)) == 3
        ws = list(enumerate_rearrangements((2, 1)))
        assert ws == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            list(enumerate_rearrangements((10, 10, 10), limit=100))

    def test_total_mass(self):
        poly = word_brute_poly((2, 2, 1), explicit_set([3]), ALL)
        assert sum(poly.coeff_list()) == multinomial((2, 2, 1)) == 30


class TestFormulas:
    def test_pinned_triple_agreement(self):
        rho = (2, 3, 1, 2)
        tops = explicit_set([2, 4])
        bottoms = explicit_set([1, 2])
        brute = word_brute_poly(rho, tops, bottoms)
        for s in range(sum(rho) + 1):
            assert (
                word_formula_1(rho, s, tops, bottoms)
                == word_form(rho, tops, bottoms, second=True).coefficient(s)
                == brute.coeff(s)
            )

    def test_sweep_small(self):
        assert sweep_words(5) > 0

    def test_two_letter_product(self):
        # rho = (a, b), tops {2}, bottoms {1}: coefficient is C(a,s) C(b,s)
        for a in range(1, 5):
            for b in range(1, 5):
                rho = (a, b)
                for s in range(min(a, b) + 2):
                    expected = binom(a, s) * binom(b, s)
                    assert word_formula_1(
                        rho, s, explicit_set([2]), explicit_set([1])
                    ) == expected

    @pytest.mark.parametrize("copies", [2, 4])
    def test_doubled_letters_recover_even_top_permutations(self, copies):
        # rho = (2,...,2) with `copies` parts, tops = even letters:
        # (2!)^copies times the word count equals the even-top count in
        # S_{2 * copies}
        rho = (2,) * copies
        tops = EVENS
        word = word_brute_poly(rho, tops, ALL)
        perm = brute_poly(2 * copies, DescentQuery(EVENS, ALL))
        for s in range(2 * copies + 1):
            assert (2 ** copies) * word.coeff(s) == perm.coeff(s)


class TestRelabeling:
    def test_chi_pinned(self):
        assert chi(((2, 1), (3, 1, 2)), (1, 2, 2, 1, 2)) == (2, 5, 3, 1, 4)

    def test_standardize_pinned(self):
        assert standardize((4, 1, 4, 2, 1, 3, 2, 3)) == (7, 1, 8, 3, 2, 5, 4, 6)

    def test_chi_factors_cover_all_relabelings(self):
        rho = (2, 1, 2)
        factors = list(all_chi_factors(rho))
        assert len(factors) == factorial(2) * factorial(1) * factorial(2)
        word = (3, 1, 1, 2, 3)
        images = {chi(phis, word) for phis in factors}
        assert len(images) == len(factors)

    def test_standardization_does_not_preserve_even_top_descents(self):
        # the word has three descents with even top, its standardization one
        w = (4, 1, 4, 2, 1, 3, 2, 3)
        q = DescentQuery(EVENS, ALL)
        from descentpoly.stats import descent_value_pairs

        assert descent_value_pairs(w, q) == [(4, 1), (4, 2), (2, 1)]
        assert descent_value_pairs(standardize(w), q) == [(8, 3)]


@pytest.mark.parametrize(
    "call, letter",
    [
        (lambda: standardize((2, 0, 1)), 0),
        (lambda: standardize((1, 1, 0)), 0),
        (lambda: chi(((1,),), (1, 2)), 2),
        (lambda: from_cycles([[1, 5]], 3), 5),
        (lambda: standardize(()), None),
    ],
    ids=["standardize-0", "standardize-0-last", "chi", "from-cycles", "empty-word"],
)
def test_letters_out_of_range_raise_input_error_naming_the_letter(call, letter):
    if letter is None:
        assert call() == ()
        return
    with pytest.raises(InputError, match=f"letter {letter} is not in"):
        call()


@pytest.mark.parametrize(
    "phis, word, letter, length, part",
    [
        (((1, 2),), (1,), 1, 2, 1),
        (((1,), ()), (1, 2, 2), 2, 0, 2),
        (((2, 1), (1,)), (1, 2, 1, 2), 2, 1, 2),
    ],
    ids=["too-long", "empty-factor", "second-letter"],
)
def test_chi_factor_length_mismatch_is_an_input_error(phis, word, letter, length, part):
    message = (f"factor for letter {letter} has length {length}, "
               f"but the letter occurs {part} times")
    with pytest.raises(InputError) as info:
        chi(phis, word)
    assert str(info.value) == message
    assert isinstance(info.value, ValueError)

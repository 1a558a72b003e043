"""S_n is the word class rho = 1^n: the closed forms and the signed
configurations read permutations through the word routes, zero parts and
the empty composition included, and every cap keeps its message."""

import random
from itertools import permutations
from math import comb, prod

import pytest

from descentpoly.closed_forms import permutation_form
from descentpoly.configurations import Flavor, enumerate_configs, staged_count
from descentpoly.perms import InputError
from descentpoly.polynomials import IntPolynomial
from descentpoly.rook import Board, hit_numbers_enumerate, hit_polynomial_permanent
from descentpoly.sets import ALL, SetUnion, at_least, explicit_set, residue_set
from descentpoly.stats import CapExceededError, brute_bivar
from descentpoly.words import word_brute_poly, word_form


def _set_pairs(n, rng):
    """The atoms of the differential tests (explicit, residue, half-line,
    everything) and a union, as tops and bottoms."""
    def explicit():
        return explicit_set(rng.sample(range(1, n + 3), rng.randint(0, n + 2)))

    def residue():
        k = rng.randint(1, 5)
        return residue_set(k, rng.sample(range(k), rng.randint(0, k)))

    return [
        (ALL, ALL),
        (explicit(), explicit()),
        (residue(), residue()),
        (at_least(rng.randint(1, 13)), explicit()),
        (residue(), at_least(rng.randint(1, 13))),
        (SetUnion((explicit(), residue())), SetUnion((at_least(5), explicit()))),
        (explicit_set([]), ALL),
        (ALL, explicit_set([])),
    ]


def _grid():
    rng = random.Random(20061)
    return [(n, x, y) for n in range(31) for x, y in _set_pairs(n, rng)]


GRID = _grid()


def _compositions(count, seed, max_part=3, max_len=6):
    rng = random.Random(seed)
    return [
        tuple(rng.randint(0, max_part) for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


def _vanishing_binom(u, p):
    return comb(u, p) if u >= 0 else 0


def _check_weights(form):
    """Each weight is C(c + r, r) · Π_x C(r + o_x, ρ_x) with C(u, ·) = 0 for
    u < 0, and it is 0 whenever some r + o_x is negative."""
    for r in range(form.top_mass + form.n + 2):
        weight = form.weight(r)
        factors = prod(_vanishing_binom(r + o, p) for p, o in form.offsets)
        assert weight == comb(form.c + r, r) * factors
        if any(r + o < 0 for _, o in form.offsets):
            assert weight == 0


@pytest.mark.parametrize("second", [False, True])
def test_permutation_form_is_the_word_form_of_ones(second):
    for n, tops, bottoms in GRID:
        ones = (1,) * n
        assert permutation_form(n, tops, bottoms, second) == word_form(
            ones, tops, bottoms, second
        )


@pytest.mark.parametrize("second", [False, True])
def test_negative_uppers_give_zero_weights_on_permutations(second):
    negative = 0
    for n, tops, bottoms in GRID:
        form = permutation_form(n, tops, bottoms, second)
        _check_weights(form)
        negative += any(o < 0 for _, o in form.offsets)
    assert negative or not second  # formula 2 reaches negative offsets


@pytest.mark.parametrize("second", [False, True])
def test_negative_uppers_give_zero_weights_on_words(second):
    rng = random.Random(7)
    negative = 0
    for rho in _compositions(300, 11):
        for tops, bottoms in _set_pairs(len(rho), rng):
            form = word_form(rho, tops, bottoms, second)
            _check_weights(form)
            negative += any(o < 0 for _, o in form.offsets)
    assert negative or not second


def test_coefficient_is_the_polynomial_coefficient():
    rng = random.Random(3)
    cases = [(n, x, y) for n, x, y in GRID if n <= 14]
    cases += [(rho, x, y) for rho in _compositions(40, 5) for x, y in _set_pairs(6, rng)]
    for size, tops, bottoms in cases:
        for second in (False, True):
            if isinstance(size, int):
                form = permutation_form(size, tops, bottoms, second)
            else:
                form = word_form(size, tops, bottoms, second)
            poly = form.polynomial()
            for s in range(-2, poly.degree + 3):
                assert form.coefficient(s) == poly.coeff(s), (size, s, second)


def _random_sets(rng, n):
    members = range(1, n + 1)
    return tuple(
        explicit_set(rng.sample(members, rng.randint(0, n))) for _ in range(2)
    )


@pytest.mark.parametrize("flavor", list(Flavor))
def test_configurations_of_s_n_walk_permutations_in_lexicographic_order(flavor):
    """The S_k walk is Algorithm L on 1^k: the sequences that ``configs
    --list`` prints are permutations of 1..k, in lexicographic order."""
    rng = random.Random(2006)
    for k in range(5):
        letters = set(permutations(range(1, k + 1)))
        for tops, bottoms in [(ALL, ALL)] + [_random_sets(rng, k) for _ in range(3)]:
            for s in range(k + 2):
                for r in range(3):
                    args = (flavor, s, r, tops, bottoms)
                    seqs = [c.sequence for c in enumerate_configs(*args, n=k)]
                    assert seqs == sorted(seqs)
                    assert set(seqs) <= letters
                    assert staged_count(*args, n=k) == len(seqs)


@pytest.mark.parametrize("flavor", list(Flavor))
def test_word_configurations_count_top_letters_with_multiplicity(flavor):
    """OVERLINE places (top letters) - s - r '-'s, so a repeated top letter
    counts once per copy."""
    rng = random.Random(606)
    for rho in [(2, 1), (1, 2), (2, 0, 2), (0, 3, 1), (2, 2, 1)]:
        for tops, bottoms in [(ALL, ALL)] + [_random_sets(rng, len(rho)) for _ in range(3)]:
            for s in range(sum(rho) + 1):
                for r in range(3):
                    args = (flavor, s, r, tops, bottoms)
                    configs = enumerate_configs(*args, rho=rho)
                    assert len(configs) == staged_count(*args, rho=rho), (rho, s, r)


def test_negative_sizes_are_input_errors():
    with pytest.raises(InputError):
        enumerate_configs(Flavor.STANDARD, 0, 0, ALL, ALL, n=-1)
    with pytest.raises(InputError):
        staged_count(Flavor.OVERLINE, 0, 0, ALL, ALL, n=-1)
    with pytest.raises(InputError):
        Board(-2, frozenset())
    for flavor in Flavor:
        for s, r, name in ((-1, 0, "s"), (0, -1, "r"), (-2, -1, "s")):
            for size in ({"n": 2}, {"rho": (1, 2)}):
                args = (flavor, s, r, ALL, ALL)
                with pytest.raises(InputError, match=f"^{name} must be >= 0"):
                    enumerate_configs(*args, **size)
                with pytest.raises(InputError, match=f"^{name} must be >= 0"):
                    staged_count(*args, **size)


def test_neither_or_both_of_n_and_rho_is_an_input_error():
    for size in ({}, {"n": 2, "rho": (1, 1)}):
        args = (Flavor.STANDARD, 0, 0, ALL, ALL)
        with pytest.raises(InputError, match="^pass exactly one of n and rho$"):
            enumerate_configs(*args, **size)
        with pytest.raises(InputError, match="^pass exactly one of n and rho$"):
            staged_count(*args, **size)


def test_negative_parts_are_input_errors_for_every_s_and_r():
    for flavor in Flavor:
        for s in range(-1, 4):
            for r in range(-1, 3):
                args = (flavor, s, r, ALL, ALL)
                with pytest.raises(InputError):
                    enumerate_configs(*args, rho=(-1, 3))
                with pytest.raises(InputError):
                    staged_count(*args, rho=(-1, 3))


def test_the_empty_composition_is_the_class_of_the_empty_word():
    one = IntPolynomial({0: 1})
    tops = explicit_set([1])
    assert word_brute_poly((), tops, ALL) == one
    assert word_form((), tops, ALL).polynomial() == one
    assert word_form((), tops, ALL, second=True).polynomial() == one
    for flavor in Flavor:
        for s in range(2):
            for r in range(2):
                args = (flavor, s, r, tops, ALL)
                assert enumerate_configs(*args, rho=()) == enumerate_configs(*args, n=0)


def test_caps_keep_their_messages():
    cases = [
        (lambda: enumerate_configs(Flavor.STANDARD, 1, 1, ALL, ALL, n=9),
         "configuration enumeration capped at n <= 8"),
        (lambda: enumerate_configs(Flavor.OVERLINE, 1, 1, ALL, ALL, rho=(4, 5)),
         "configuration enumeration capped at n <= 8"),
        (lambda: hit_polynomial_permanent(Board(15, frozenset())),
         "permanent path capped at n <= 14"),
        (lambda: hit_numbers_enumerate(Board(11, frozenset())),
         "hit-number enumeration capped at n <= 10"),
        (lambda: brute_bivar(11, ALL, ALL),
         "brute force over S_11 exceeds the cap n <= 10"),
        (lambda: word_brute_poly((10, 10, 10), ALL, ALL),
         "exceeds the cap 1000000"),
    ]
    for call, message in cases:
        with pytest.raises(CapExceededError) as caught:
            call()
        assert message in str(caught.value)
    assert len(enumerate_configs(Flavor.STANDARD, 0, 0, ALL, ALL, n=8)) == 1

"""enumerate_rearrangements: lexicographic order, zero parts and the cap;
the word brute force against a count of every word from scratch, with its
blocks split on leading letters, and against both formulas."""

import random
import tracemalloc
from collections import Counter
from itertools import permutations

import pytest

from descentpoly import stats
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


def _count_from_scratch(rho, tops, bottoms) -> IntPolynomial:
    table = DescentQuery(tops, bottoms).match_table(len(rho))
    return IntPolynomial(Counter(
        sum(table[a][b] for a, b in zip(w, w[1:]))
        for w in enumerate_rearrangements(rho)
    ))


@pytest.mark.parametrize("rho,tops,bottoms", _brute_cases(), ids=str)
def test_brute_force_on_words_matches_a_count_from_scratch(rho, tops, bottoms):
    assert word_brute_poly(rho, tops, bottoms) == _count_from_scratch(rho, tops, bottoms)


def _spy_on_blocks(monkeypatch) -> list:
    """The parts of every block the walk reads, in order."""
    blocks = []
    build = stats._word_block

    def spy(parts):
        blocks.append(parts)
        return build(parts)

    monkeypatch.setattr(stats, "_word_block", spy)
    return blocks


@pytest.mark.parametrize("empty", [False, True], ids=["just-under", "empty-words"])
@pytest.mark.parametrize("rho,tops,bottoms", _brute_cases(), ids=str)
def test_split_on_leading_letters_matches_a_count_from_scratch(
    monkeypatch, rho, tops, bottoms, empty
):
    """With the letter budget cut to just under the class, every class with
    a letter splits until its blocks fit; with a budget of 0 each block is
    one empty word, after a prefix that is the whole word."""
    budget = 0 if empty else max(multinomial(rho) * sum(rho) - 1, 0)
    blocks = _spy_on_blocks(monkeypatch)
    monkeypatch.setattr(stats, "_LETTER_BUDGET", budget)
    assert word_brute_poly(rho, tops, bottoms) == _count_from_scratch(rho, tops, bottoms)
    assert all(multinomial(parts) * sum(parts) <= budget for parts in blocks)
    if sum(rho):
        assert all(sum(parts) < sum(rho) for parts in blocks)
    if empty:
        assert len(blocks) == multinomial(rho)


@pytest.mark.parametrize("cut", [False, True], ids=["whole", "cut"])
@pytest.mark.parametrize(
    "rho", [(1,) * 8, (2, 1, 1, 1, 1, 1, 1), (1, 1, 1, 2, 1, 1, 1)], ids=str
)
def test_blocks_with_the_most_labels_match_a_count_from_scratch(monkeypatch, rho, cut):
    """No block under the budget holds more labels than these classes: its
    windows index up to 9^5 cells.  Whole, each class is one block over its
    parts in decreasing order; cut just under the budget, it splits."""
    rng = random.Random(len(rho))
    letters = range(1, len(rho) + 1)
    tops = explicit_set(v for v in letters if rng.random() < 0.6)
    bottoms = explicit_set(v for v in letters if rng.random() < 0.6)
    blocks = _spy_on_blocks(monkeypatch)
    if cut:
        monkeypatch.setattr(stats, "_LETTER_BUDGET", multinomial(rho) * sum(rho) - 1)
    assert word_brute_poly(rho, tops, bottoms) == _count_from_scratch(rho, tops, bottoms)
    if not cut:
        assert blocks == [tuple(sorted(rho, reverse=True))]


def test_a_class_over_the_budget_matches_both_formulas():
    rho = (200, 2)
    assert multinomial(rho) * sum(rho) > 2 * stats._LETTER_BUDGET
    tops, bottoms = parse_set("mod:3:0,1"), parse_set("mod:2:1")
    brute = word_brute_poly(rho, tops, bottoms)
    assert brute == word_form(rho, tops, bottoms).polynomial()
    assert brute == word_form(rho, tops, bottoms, second=True).polynomial()
    assert sum(c for _, c in brute.items()) == multinomial(rho)


@pytest.mark.parametrize("zeros", [200, 300])
def test_letters_past_a_narrow_type_do_not_wrap(zeros):
    """Letters 201..203 would wrap in int8 and 301..303 in uint8."""
    rho = (0,) * zeros + (1, 2, 1)
    letters = range(zeros + 1, zeros + 4)
    tops, bottoms = explicit_set(letters[1:]), explicit_set(letters[:2])
    brute = word_brute_poly(rho, tops, bottoms)
    assert brute == _count_from_scratch(rho, tops, bottoms)
    assert brute == word_form(rho, tops, bottoms).polynomial()
    assert brute.coeff(1) > 0


def test_a_class_over_the_budget_is_counted_in_bounded_memory():
    """(200, 2) has 20,301 words of 202 letters, about 4 budgets; the walk
    holds about 10 bytes per letter of one block at a time."""
    rho = (200, 2)
    tracemalloc.start()
    try:
        word_brute_poly(rho, parse_set("all"), parse_set("all"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * stats._LETTER_BUDGET


def test_brute_force_on_words_keeps_the_cap_message():
    rho = (4, 4, 4, 4)
    with pytest.raises(CapExceededError) as err:
        word_brute_poly(rho, parse_set("all"), parse_set("all"))
    count = multinomial(rho)
    assert str(err.value) == f"|R({rho})| = {count} exceeds the cap 1000000"

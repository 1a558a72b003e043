"""The sign-layout encoding of configurations against the plain array rules.

`involution` works on the layout (which gaps open with a '-', how many '+'s
each gap holds).  These tests read the module docstring's rule directly off
the item tuple, check that illegal arrays built item by item are refused
by the constructor, that parsed and enumerated configurations are the same
objects, and that configurations sharing one interned layout behave as if
each held its own.
"""

import random
import re
from collections import Counter
from itertools import combinations, permutations, product
from operator import add

import pytest

from descentpoly import configurations
from descentpoly.configurations import (
    MINUS,
    PLUS,
    Configuration,
    Flavor,
    MalformedConfigurationError,
    _flip,
    _layout,
    _required_mask,
    _sign_layouts,
    config_from_str,
    config_to_str,
    enumerate_configs,
    involution,
)
from descentpoly.sets import ALL, explicit_set, residue_set
from descentpoly.stats import DescentQuery, des_set
from descentpoly.words import enumerate_rearrangements


def _docstring_flip(config):
    """Flip each sign in turn, left to right; the first flip that the
    constructor accepts as legal wins."""
    items = config.items
    for idx, it in enumerate(items):
        if it not in (PLUS, MINUS):
            continue
        flipped = items[:idx] + (MINUS if it == PLUS else PLUS,) + items[idx + 1 :]
        try:
            Configuration(flipped, config.flavor, config.tops, config.bottoms)
        except MalformedConfigurationError:
            continue
        return flipped
    return items


def _all_configs(tops, bottoms, n=None, rho=None):
    size = n if n is not None else sum(rho)
    for flavor in Flavor:
        for s in range(size + 2):
            for r in range(size + 2):
                yield from enumerate_configs(flavor, s, r, tops, bottoms, n=n, rho=rho)


def _subsets(n):
    letters = range(1, n + 1)
    return [explicit_set(c) for k in range(n + 1) for c in combinations(letters, k)]


def _assert_docstring_rule(configs):
    checked = 0
    for c in configs:
        assert involution(c).items == _docstring_flip(c), str(c)
        checked += 1
    return checked


class TestInvolutionRule:
    def test_every_pair_of_subsets_of_three(self):
        subsets = _subsets(3)
        checked = sum(
            _assert_docstring_rule(_all_configs(tops, bottoms, n=3))
            for tops in subsets
            for bottoms in subsets
        )
        assert checked > 0

    def test_seeded_pairs_at_four(self):
        rng = random.Random(4)
        subsets = _subsets(4)
        for _ in range(3):
            tops, bottoms = rng.choice(subsets), rng.choice(subsets)
            assert _assert_docstring_rule(_all_configs(tops, bottoms, n=4)) > 0

    def test_words(self):
        subsets = _subsets(2)
        for tops in subsets:
            for bottoms in subsets:
                configs = _all_configs(tops, bottoms, rho=(2, 2))
                assert _assert_docstring_rule(configs) > 0


def _refused(items, tops, bottoms):
    """The constructor refuses items, naming the array as it is written."""
    text = "".join(map(str, items))
    with pytest.raises(MalformedConfigurationError, match=f"^{re.escape(text)}$"):
        Configuration(items, Flavor.STANDARD, tops, bottoms)


class TestDirectConstructor:
    tops = explicit_set([2, 3, 5, 6])
    bottoms = explicit_set([1, 3])

    def test_minus_after_a_sign(self):
        for items in [
            (5, "+", "-", 2, 4, 6, "+", 1, 3),
            (5, "+", "-", "-", 2, 4, 6, "+", 1, 3),
            ("-", "-", 5, 2, 4, 6, "+", 1, 3),
        ]:
            _refused(items, self.tops, self.bottoms)

    def test_required_gap_without_plus(self):
        # (6, 1) is a matching descent pair with no '+' between
        _refused(("-", 5, "+", 2, 4, 6, 1, 3), self.tops, self.bottoms)
        # the same array with the '+' in place is legal
        legal = Configuration(
            ("-", 5, "+", 2, 4, 6, "+", 1, 3), Flavor.STANDARD, self.tops, self.bottoms
        )
        assert involution(legal).items == ("+", 5, "+", 2, 4, 6, "+", 1, 3)


class TestConstructionPaths:
    @pytest.mark.parametrize(
        "tops, bottoms, n, rho",
        [
            ([2, 3, 6], [1, 2, 5], 4, None),
            ([1, 3, 4], [2, 4], 4, None),
            ([2], [1], None, (2, 2)),
        ],
    )
    def test_parsed_equals_enumerated(self, tops, bottoms, n, rho):
        tops, bottoms = explicit_set(tops), explicit_set(bottoms)
        for c in _all_configs(tops, bottoms, n=n, rho=rho):
            parsed = config_from_str(config_to_str(c), c.flavor, tops, bottoms)
            assert parsed == c
            assert hash(parsed) == hash(c)
            assert parsed.items == c.items
            assert parsed.sequence == c.sequence
            assert parsed.plus_count == c.plus_count == c.items.count("+")
            assert parsed.minus_count == c.minus_count == c.items.count("-")
            assert parsed.sign == c.sign
            assert str(parsed) == str(c)
            assert Configuration(c.items, c.flavor, tops, bottoms) == c


@pytest.mark.parametrize(
    "n_gaps, n_plus, required_mask",
    [(1, 0, 0), (1, 3, 1), (2, 0, 0), (4, 5, 0b1010), (5, 2, 0b111), (3, 1, 0b111)],
)
def test_sign_layouts_are_lexicographic_in_minus_gaps_then_plus_counts(
    n_gaps, n_plus, required_mask
):
    required = [required_mask >> g & 1 for g in range(n_gaps)]
    free = n_plus - sum(required)
    compositions = sorted(
        c for c in product(range(max(free, 0) + 1), repeat=n_gaps) if sum(c) == free
    )
    plus = [tuple(map(add, c, required)) for c in compositions]
    for n_minus in range(n_gaps + 1):
        minus = [
            sum(1 << g for g in gaps) for gaps in combinations(range(n_gaps), n_minus)
        ]
        layouts = _sign_layouts(n_gaps, n_plus, n_minus, required_mask)
        assert layouts == [(m, p) for m in minus for p in plus]


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize(
    "tops, bottoms",
    [
        (explicit_set([2, 3, 5]), explicit_set([1, 2, 4])),
        (residue_set(2, [0]), ALL),
        (ALL, residue_set(3, [1, 2])),
        (explicit_set([]), ALL),
    ],
)
def test_required_gaps_follow_the_matching_descents(flavor, tops, bottoms):
    """STANDARD asks for a '+' at each matching descent; OVERLINE after each
    potential top that is not a matching descent top, the last letter too."""
    query = DescentQuery(tops, bottoms)
    classes = [permutations(range(1, 6)), enumerate_rearrangements((1, 2, 2, 1))]
    for seq in (seq for walk in classes for seq in walk):
        descents = des_set(seq, query)
        if flavor is Flavor.STANDARD:
            gaps = descents
        else:
            gaps = {g for g, v in enumerate(seq, 1) if v in tops} - descents
        assert _required_mask(seq, flavor, tops, bottoms) == sum(1 << g for g in gaps)


class TestSharedLayouts:
    tops = explicit_set([2, 3, 5, 6])
    bottoms = explicit_set([1, 3])

    def _class(self):
        return enumerate_configs(Flavor.STANDARD, 2, 2, self.tops, self.bottoms, n=5)

    def test_equal_layouts_in_distinct_objects_compare_and_hash_alike(self):
        # clearing the table is what eviction does to a layout still in use
        first = self._class()
        _layout.cache_clear()
        second = self._class()
        assert len(first) == len(second) > 0
        for a, b in zip(first, second):
            assert a._layout is not b._layout
            assert a == b and b == a
            assert hash(a) == hash(b)
        assert len(set(first) | set(second)) == len(first)

    def test_self_inverse_across_a_cleared_table(self):
        configs = self._class()
        images = [involution(c) for c in configs]
        _layout.cache_clear()
        for c, image in zip(configs, images):
            back = involution(image)
            assert back == c
            assert hash(back) == hash(c)

    @pytest.mark.parametrize(
        "items, layout",
        [((5, "+", "-", 2, 4, 6, "+", 1, 3), None),
         (("-", 5, "+", 2, 4, 6, 1, 3), (1, (0, 1, 0, 0, 0, 0, 0)))],
        ids=["stray-minus", "missing-plus"],
    )
    def test_illegal_layout_raises_on_every_call_and_keeps_no_image(self, items, layout):
        """A stray '-' has no layout; a layout missing a '+' is interned by
        the constructor's check, but is never given an image."""
        seq = tuple(it for it in items if isinstance(it, int))
        required = _required_mask(seq, Flavor.STANDARD, self.tops, self.bottoms)
        for _ in range(3):
            _refused(items, self.tops, self.bottoms)
        if layout is not None:
            hits = _layout.cache_info().hits
            assert _layout(*layout, required).image is None
            assert _layout.cache_info().hits == hits + 1

    def test_intern_table_is_bounded(self):
        assert _layout.cache_info().maxsize is not None
        assert _layout.cache_info().maxsize > 0

    def test_flip_runs_once_per_distinct_layout(self, monkeypatch):
        calls = Counter()

        def counted(*layout):
            calls[layout] += 1
            return _flip(*layout)

        monkeypatch.setattr(configurations, "_flip", counted)
        _layout.cache_clear()
        configs = self._class()
        images = [involution(c) for c in configs]
        back = [involution(image) for image in images]
        assert back == configs
        layouts = {
            (c.minus_mask, c.plus_by_gap, c.required_mask) for c in configs + images
        }
        assert set(calls) == layouts
        assert max(calls.values()) == 1
        # sequences share layouts, so there are fewer flips than involutions
        assert sum(calls.values()) < 2 * len(configs)

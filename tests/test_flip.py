"""The flip on sign layouts against the loops it replaced, and the memos
around it.

`_flip(minus_mask, plus_by_gap, required_mask)` decides legality (the
`Configuration` constructor asks it) and the involution's image from the
layout alone.  The oracle below is the legality loop and the involution
loop as they read before the layout encoding, run on the bare layout.  `_flip` keeps no table of its own: the
interned layout keeps its image, and each memo left in `configurations`
must see hits on a small sweep.
"""

import re
from collections import Counter
from itertools import product

import pytest

from descentpoly import configurations
from descentpoly.configurations import (
    Configuration,
    Flavor,
    MalformedConfigurationError,
    _flip,
    _layout,
    _required_mask,
    config_from_str,
    enumerate_configs,
    fixed_point_from_seq,
    involution,
)
from descentpoly.sets import explicit_set
from descentpoly.verify import sweep_configs

MAX_GAPS = 6
MAX_PLUS = 4


def _oracle(minus_mask, plus_by_gap, required_mask):
    """None when a required gap lacks a '+', () at a fixed point, else the
    flipped layout: the first sign of the first gap that opens with a '-',
    holds two '+'s, or holds a '+' without being required."""
    required = required_mask
    gap = 0
    while required:
        if required & 1 and not plus_by_gap[gap]:
            return None
        required >>= 1
        gap += 1
    for gap, count in enumerate(plus_by_gap):
        bit = 1 << gap
        if minus_mask & bit:
            count += 1
        elif count > 1 or (count and not required_mask & bit):
            count -= 1
        else:
            continue
        flipped = list(plus_by_gap)
        flipped[gap] = count
        return minus_mask ^ bit, tuple(flipped)
    return ()


def _plus_layouts(gaps):
    return [p for p in product(range(MAX_PLUS + 1), repeat=gaps) if sum(p) <= MAX_PLUS]


@pytest.mark.parametrize("gaps", range(1, MAX_GAPS + 1))
def test_flip_matches_oracle_on_every_layout(gaps):
    masks = range(1 << gaps)
    checked = illegal = 0
    for plus in _plus_layouts(gaps):
        for required in masks:
            for minus in masks:
                expected = _oracle(minus, plus, required)
                assert _flip(minus, plus, required) == expected, (minus, plus, required)
                checked += 1
                illegal += expected is None
    assert checked > illegal > 0


TOPS = explicit_set([2, 3, 5, 6])
BOTTOMS = explicit_set([1, 3])


def test_illegal_configuration_raises_after_legal_neighbours_fill_the_memo():
    def config(*items):
        return Configuration(items, Flavor.STANDARD, TOPS, BOTTOMS)

    legal = config("-", 5, "+", 2, 4, 6, "+", 1, 3)
    for c in enumerate_configs(Flavor.STANDARD, 2, 2, TOPS, BOTTOMS, rho=(1,) * 6):
        involution(involution(c))
    involution(legal)
    assert _flip(0, legal.plus_by_gap, legal.required_mask) is not None
    # the same letters without the '+' that the matching descent (6, 1)
    # needs, and a '-' after a '+', which has no layout
    for items in [("-", 5, "+", 2, 4, 6, 1, 3), (5, "+", "-", 2, 4, 6, "+", 1, 3)]:
        text = "".join(map(str, items))
        with pytest.raises(MalformedConfigurationError, match=f"^{re.escape(text)}$"):
            config(*items)
        with pytest.raises(MalformedConfigurationError, match=f"^{re.escape(text)}$"):
            config_from_str(text, Flavor.STANDARD, TOPS, BOTTOMS)


def test_legal_is_flip_not_none():
    legal = illegal = 0
    for flavor in Flavor:
        for s in range(5):
            for r in range(5):
                for c in enumerate_configs(flavor, s, r, TOPS, BOTTOMS, n=3):
                    # the same letters and '-'s with every '+' taken out
                    bare = [it for it in c.items if it != "+"]
                    no_plus = (0,) * len(c.plus_by_gap)
                    assert _flip(c.minus_mask, c.plus_by_gap, c.required_mask) is not None
                    legal += 1
                    if _flip(c.minus_mask, no_plus, c.required_mask) is None:
                        illegal += 1
                        with pytest.raises(MalformedConfigurationError):
                            Configuration(bare, flavor, TOPS, BOTTOMS)
                    else:
                        legal += 1
                        assert Configuration(bare, flavor, TOPS, BOTTOMS).plus_count == 0
    assert legal > 0 and illegal > 0


def test_fixed_point_maps_to_the_same_object():
    for flavor in Flavor:
        for seq in [(3, 1, 2), (2, 3, 1), (5, 2, 4, 6, 1, 3)]:
            fp = fixed_point_from_seq(seq, flavor, TOPS, BOTTOMS)
            assert involution(fp) is fp


def test_parse_then_involution_flips_each_layout_once(monkeypatch):
    assert not hasattr(_flip, "cache_info")
    configs = enumerate_configs(Flavor.STANDARD, 2, 2, TOPS, BOTTOMS, n=4)[::7]
    texts = [str(c) for c in configs]
    images = [str(involution(c)) for c in configs]
    calls = Counter()

    def counted(*layout):
        calls[layout] += 1
        return _flip(*layout)

    monkeypatch.setattr(configurations, "_flip", counted)
    _layout.cache_clear()
    layouts = set()
    for text, image in zip(texts, images):
        c = config_from_str(text, Flavor.STANDARD, TOPS, BOTTOMS)
        assert str(involution(c)) == image
        layouts.add((c.minus_mask, c.plus_by_gap, c.required_mask))
    assert set(calls) == layouts
    assert set(calls.values()) == {1}


def test_each_memo_left_sees_hits_on_a_small_sweep():
    memos = {
        name: memo
        for name, memo in vars(configurations).items()
        if hasattr(memo, "cache_info")
    }
    assert {"_layout", "_required_mask"} <= set(memos)
    for memo in memos.values():
        memo.cache_clear()
    sweep_configs(4, pairs=6, seed=0)
    for name, memo in memos.items():
        assert memo.cache_info().hits > 0, name

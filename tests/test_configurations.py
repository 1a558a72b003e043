"""Signed configurations, the involution, and the staged counts."""

import pytest

from descentpoly.configurations import (
    Configuration,
    Flavor,
    MalformedConfigurationError,
    config_from_str,
    config_to_str,
    enumerate_configs,
    fixed_point_from_seq,
    involution,
    staged_count,
)
from descentpoly.perms import InputError
from descentpoly.sets import ALL, EVENS, ODDS, explicit_set
from descentpoly.stats import CapExceededError
from descentpoly.verify import sweep_configs


class TestSerialization:
    def test_round_trip(self):
        tops = explicit_set([2, 3, 5, 6])
        bottoms = explicit_set([1, 3])
        c = config_from_str("5+2-+46+13-", Flavor.STANDARD, tops, bottoms)
        assert config_to_str(c) == "5+2-+46+13-"
        assert c.sequence == (5, 2, 4, 6, 1, 3)
        assert c.plus_count == 3
        assert c.minus_count == 2
        assert c.sign == 1

    def test_repr_names_items_flavor_and_sets(self):
        c = config_from_str("1+2-", Flavor.STANDARD, ALL, explicit_set([1]))
        assert repr(c) == (
            "Configuration(items=(1, '+', 2, '-'), flavor=<Flavor.STANDARD: "
            "'standard'>, tops=AllIntegers(), bottoms=Explicit(members=(1,)))"
        )

    def test_wide_letters_use_commas(self):
        tops = explicit_set([11])
        bottoms = explicit_set([3])
        items = (11, "+", 3, 2, 1, 10, 4, 5, 6, 7, 8, 9)
        c = Configuration(items, Flavor.STANDARD, tops, bottoms)
        text = config_to_str(c)
        assert text == "11+3,2,1,10,4,5,6,7,8,9"
        back = config_from_str(text, Flavor.STANDARD, tops, bottoms)
        assert back == c

    def test_malformed_rejected(self):
        tops = explicit_set([2, 3, 5, 6])
        bottoms = explicit_set([1, 3])
        # '-' directly after another sign
        with pytest.raises(MalformedConfigurationError):
            config_from_str("5+--246+13", Flavor.STANDARD, tops, bottoms)
        # matching descent (6,1) with no '+' between
        with pytest.raises(MalformedConfigurationError):
            config_from_str("5+24613", Flavor.STANDARD, tops, bottoms)


class TestInvolution:
    def test_standard_example(self):
        tops = explicit_set([2, 3, 5, 6])
        bottoms = explicit_set([1, 3])
        c = config_from_str("5+2-+46+13-", Flavor.STANDARD, tops, bottoms)
        image = involution(c)
        assert config_to_str(image) == "5-2-+46+13-"
        assert involution(image) == c

    def test_standard_example_even_odd(self):
        c = config_from_str("986+17-++4253", Flavor.STANDARD, EVENS, ODDS)
        assert config_to_str(involution(c)) == "986+17+++4253"

    def test_overline_example(self):
        tops = explicit_set([2, 3, 6])
        bottoms = explicit_set([1, 2, 5])
        c = config_from_str("213+6-54", Flavor.OVERLINE, tops, bottoms)
        assert config_to_str(involution(c)) == "213+6+54"

    def test_fixed_points(self):
        fp = fixed_point_from_seq(
            (5, 2, 8, 9, 4, 1, 6, 3, 7),
            Flavor.STANDARD,
            explicit_set([2, 4, 6, 9]),
            explicit_set([1, 4, 7]),
        )
        assert config_to_str(fp) == "5289+4+1637"
        assert involution(fp) == fp
        fpo = fixed_point_from_seq(
            (9, 5, 8, 6, 2, 1, 4, 3, 7),
            Flavor.OVERLINE,
            explicit_set([2, 3, 4, 6, 8, 9]),
            explicit_set([1, 2, 3, 5]),
        )
        assert config_to_str(fpo) == "958+62143+7"
        assert involution(fpo) == fpo


class TestEnumeration:
    def test_counts_match_staged_products(self):
        tops = explicit_set([2, 3, 6])
        bottoms = explicit_set([1, 2, 5])
        configs = enumerate_configs(Flavor.OVERLINE, 1, 1, tops, bottoms, n=6)
        assert len(configs) == 1344
        assert staged_count(Flavor.OVERLINE, 1, 1, tops, bottoms, n=6) == 1344
        assert "213+6-54" in {config_to_str(c) for c in configs}

    def test_word_counts_match_staged_products(self):
        tops = explicit_set([2])
        bottoms = explicit_set([1])
        for s in range(3):
            for r in range(3):
                configs = enumerate_configs(
                    Flavor.STANDARD, s, r, tops, bottoms, rho=(2, 2)
                )
                assert len(configs) == staged_count(
                    Flavor.STANDARD, s, r, tops, bottoms, rho=(2, 2)
                )

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_configs(Flavor.STANDARD, 1, 1, EVENS, ODDS, n=9)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            enumerate_configs(Flavor.STANDARD, 1, 1, EVENS, ODDS)
        with pytest.raises(ValueError):
            staged_count(Flavor.STANDARD, 1, 1, EVENS, ODDS, n=4, rho=(2, 2))


class TestSweep:
    def test_random_sweep_small(self):
        # involution is a sign-reversing bijection away from its fixed points,
        # and both signed and fixed-point totals hit the brute-force counts
        assert sweep_configs(4, pairs=12, seed=7) > 0


@pytest.mark.parametrize("item", ["*", 2.5, None, "+-"])
def test_bad_item_raises_input_error_naming_it(item):
    with pytest.raises(InputError) as info:
        Configuration((1, item, 2), Flavor.STANDARD, ALL, ALL)
    assert str(info.value) == f"bad item {item!r} in configuration"

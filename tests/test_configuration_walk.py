"""Configurations walked one sequence at a time, and the letters a
configuration may hold.

`check_involution` checks the involution on each sign layout while it walks
each class and checks the class's count after; `sweep_configs` compares its
totals with brute force.  The sweep's counts, its failure record, and the
`configs --trace` records are pinned to what they were when the sweep still
held each class as one list of configurations.
"""

import hashlib
import json
import random
import re
from itertools import product
from math import factorial

import pytest

from descentpoly import configurations
from descentpoly.cli import main
from descentpoly.configurations import (
    Configuration,
    Flavor,
    MalformedConfigurationError,
    _layouts_by_sequence,
    _required_mask,
    check_involution,
    config_from_str,
    config_to_str,
    enumerate_configs,
)
from descentpoly.perms import InputError
from descentpoly.sets import ALL, EMPTY, explicit_set
from descentpoly.stats import CapExceededError
from descentpoly.verify import VerificationError, _random_pairs, sweep_configs


@pytest.mark.parametrize("text", ["0+", "0,3+", "1,,2", ",1,2", "1,2,", "1,+2"])
def test_letter_zero_and_empty_fields_are_rejected(text):
    for flavor in Flavor:
        with pytest.raises(InputError, match=re.escape(text) + "|bad letter 0"):
            config_from_str(text, flavor, ALL, ALL)


@pytest.mark.parametrize("text", ["1²", "1,2²"])
def test_non_ascii_digits_are_bad_characters(text):
    with pytest.raises(InputError, match="bad character '²'"):
        config_from_str(text, Flavor.STANDARD, ALL, ALL)


@pytest.mark.parametrize("letter", [0, -1])
def test_constructor_rejects_letters_below_one(letter):
    with pytest.raises(InputError, match=f"bad letter {letter}"):
        Configuration((letter, "+", 2), Flavor.STANDARD, ALL, ALL)


def test_wide_letters_still_parse():
    c = config_from_str("11,3+2", Flavor.STANDARD, explicit_set([11]), explicit_set([2]))
    assert c.sequence == (11, 3, 2)
    assert str(c) == "11,3+2"


@pytest.mark.parametrize("items", [(11, "+", 3), (10, "+")])
def test_wide_letters_with_no_comma_to_mark_them_are_not_written(items):
    c = Configuration(items, Flavor.STANDARD, EMPTY, EMPTY)
    with pytest.raises(InputError, match=re.escape(str(items))):
        config_to_str(c)


def _adjacent_letters(items) -> bool:
    return any(isinstance(a, int) and isinstance(b, int) for a, b in zip(items, items[1:]))


def _illegal(items, flavor, tops, bottoms) -> bool:
    """A '-' after a sign, or a gap the flavor asks a '+' of without one."""
    stray = any(b == "-" and a in ("+", "-") for a, b in zip(items, items[1:]))
    seq = [it for it in items if isinstance(it, int)]
    required = _required_mask(tuple(seq), flavor, tops, bottoms)
    gaps = [[]]
    for it in items:
        if isinstance(it, int):
            gaps.append([])
        else:
            gaps[-1].append(it)
    return stray or any(required >> g & 1 and "+" not in gap for g, gap in enumerate(gaps))


def test_seeded_configurations_round_trip_or_raise():
    """Letters up to 12: the string reads back as the same configuration,
    or config_to_str raises, exactly when a letter is above 9 and no two
    letters are adjacent.  An illegal array is refused by the constructor,
    whatever its letters."""
    rng = random.Random(25)
    gaps = ((), (), ("+",), ("-",), ("-", "+"), ("+", "+"), ("+", "-"))
    seen = {"raised": 0, "wide_round_trip": 0, "illegal": 0}
    for _ in range(600):
        items = []
        for letter in rng.sample(range(1, 13), rng.randint(1, 5)):
            items += rng.choice(gaps)
            items.append(letter)
        items += rng.choice(gaps)
        flavor = rng.choice(list(Flavor))
        tops = explicit_set(rng.sample(range(1, 13), 4))
        bottoms = explicit_set(rng.sample(range(1, 13), 4))
        if _illegal(items, flavor, tops, bottoms):
            seen["illegal"] += 1
            with pytest.raises(MalformedConfigurationError):
                Configuration(items, flavor, tops, bottoms)
            continue
        c = Configuration(items, flavor, tops, bottoms)
        wide = max(c.sequence) > 9
        if wide and not _adjacent_letters(items):
            seen["raised"] += 1
            with pytest.raises(InputError, match="no string reads back"):
                config_to_str(c)
        else:
            back = config_from_str(config_to_str(c), flavor, tops, bottoms)
            assert back == c and back.items == tuple(items)
            seen["wide_round_trip"] += wide
    assert min(seen.values()) > 20, seen


def test_walk_yields_each_sequence_once_in_order():
    tops, bottoms = explicit_set([2, 3]), explicit_set([1, 3])
    for flavor in Flavor:
        for s in range(-1, 6):
            for r in range(-1, 6):
                for n, rho in [(4, None), (None, (2, 1, 2))]:
                    args = (flavor, s, r, tops, bottoms)
                    if min(s, r) < 0:
                        with pytest.raises(InputError, match="must be >= 0"):
                            list(_layouts_by_sequence(*args, n, rho))
                        with pytest.raises(InputError, match="must be >= 0"):
                            enumerate_configs(*args, n=n, rho=rho)
                        continue
                    walk = list(_layouts_by_sequence(*args, n, rho))
                    seqs = [seq for seq, _ in walk]
                    assert seqs == sorted(set(seqs))
                    flat = [(seq, layout.minus_mask, layout.plus_by_gap)
                            for seq, layouts in walk for layout in layouts]
                    configs = enumerate_configs(*args, n=n, rho=rho)
                    assert flat == [(c.sequence, c.minus_mask, c.plus_by_gap)
                                    for c in configs]


# sweep_configs(max_n, pairs, seed) as returned while each class was one list
SWEEP_COUNTS = {(3, 20, 3): 12464, (4, 6, 2): 55978, (5, 4, 1): 97568}


@pytest.mark.parametrize("args", sorted(SWEEP_COUNTS))
def test_sweep_counts_unchanged(args):
    assert sweep_configs(*args) == SWEEP_COUNTS[args]


def test_sweep_builds_no_configuration_while_it_passes(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sweep built a configuration")

    monkeypatch.setattr(configurations, "_layout_config", refuse)
    monkeypatch.setattr(Configuration, "__init__", refuse)
    assert sweep_configs(4, pairs=6, seed=2) == SWEEP_COUNTS[(4, 6, 2)]


def test_illegal_enumerated_layout_is_a_verification_failure(monkeypatch):
    # an enumeration that forgets the required gaps lists illegal layouts
    honest = configurations._sign_layouts
    monkeypatch.setattr(configurations, "_sign_layouts",
                        lambda gaps, plus, minus, required: honest(gaps, plus, minus, 0))
    with pytest.raises(VerificationError) as err:
        sweep_configs(3, pairs=20, seed=3)
    assert str(err.value) == "enumerated configuration is illegal"
    assert err.value.payload == {"configuration": "-123"}


def test_broken_involution_reports_the_same_failure(monkeypatch):
    honest = configurations._image

    def one_way(layout):
        # '-'-signed layouts of five gaps or more (four letters or more)
        # with at least two '+'s stay put, so the first one found is not
        # mapped back
        stuck = (len(layout.plus_by_gap) >= 5 and layout.minus_count % 2
                 and sum(layout.plus_by_gap) >= 2)
        return layout if stuck else honest(layout)

    monkeypatch.setattr(configurations, "_image", one_way)
    with pytest.raises(VerificationError) as err:
        sweep_configs(5, pairs=4, seed=1)
    assert str(err.value) == "involution is not self-inverse"
    assert err.value.payload == {"configuration": "-1-234+", "image": "+1-234+"}


def _seeded_sets(n, seed):
    rng = random.Random(seed)
    return [explicit_set(x for x in range(1, n + 1) if rng.random() < 0.5)
            for _ in "xy"]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("seed", range(3))
def test_check_involution_yields_each_flavor_then_each_s(n, seed):
    tops, bottoms = _seeded_sets(n, seed)
    results = list(check_involution(n, tops, bottoms))
    assert [(flavor, s) for flavor, s, *_ in results] == [
        (flavor, s) for flavor in Flavor for s in range(n + 2)
    ]
    for flavor in Flavor:
        totals = [(signed, fixed) for f, _, signed, fixed, _ in results if f is flavor]
        assert all(signed == fixed for signed, fixed in totals)
        assert sum(fixed for _, fixed in totals) == factorial(n)


@pytest.mark.parametrize("seed", range(4))
def test_check_involution_counts_what_the_sweep_counts(seed):
    [(n, tops, bottoms)] = _random_pairs(5, 1, seed)
    layouts = sum(checked for *_, checked in check_involution(n, tops, bottoms))
    assert layouts == sweep_configs(5, pairs=1, seed=seed) > 0


@pytest.mark.parametrize("n, error", [(-1, InputError), (9, CapExceededError)])
def test_check_involution_refuses_a_size_the_walk_refuses(n, error):
    with pytest.raises(error):
        next(check_involution(n, ALL, ALL))


# (x, y) of the traced classes of S_3; every s and r of 0 and 1
TRACE_SETS = [("{2,3}", "{1}"), ("{1,3}", "{2,3}")]
# sha256 of `trace_records` and the number of records it joins
TRACE_DIGEST = "ef9349a0108c52488d9f8803a533be2f5a0d2def032717e4548db1416cba298a"
TRACE_RECORDS = 616


def trace_records(run):
    """`configs --list` on each traced class, then `configs --trace` on every
    configuration it lists: the records (exit code, stdout, stderr) with
    their elapsed time blanked, as one text, and their number.
    ``run(argv)`` returns the exit code, stdout and stderr of one CLI call."""
    records = []
    flavors = ("standard", "overline")
    for (x, y), flavor, s, r in product(TRACE_SETS, flavors, range(5), (0, 1)):
        base = ["configs", "--n", "3", "--s", str(s), "--r", str(r), "--x", x, "--y", y,
                "--flavor", flavor]
        listed = run(base + ["--list"])
        records.append(listed)
        for text in json.loads(listed[1])["result"]["configurations"]:
            records.append(run(base + ["--trace", text]))
    elapsed = re.compile(r'"elapsed_ms": [0-9.e-]+')
    text = "".join(
        f"{code}\n" + elapsed.sub('"elapsed_ms": 0', out) + err
        for code, out, err in records
    )
    return text, len(records)


def test_trace_records_unchanged(capsys):
    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    text, count = trace_records(run)
    assert count == TRACE_RECORDS
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_DIGEST

"""The cross-check sweeps themselves, at small sizes."""

from functools import partial

import pytest

from descentpoly import configurations, rook, stats, verify, words
from descentpoly.cli import EXIT_CAP, main
from descentpoly.configurations import Configuration
from descentpoly.sets import ALL
from descentpoly.stats import CapExceededError
from descentpoly.verify import SUITES, VerificationError, run_suite


def test_run_all_suites_small():
    counts = run_suite("all", 3, seed=1)
    assert set(counts) == set(SUITES)
    assert all(v > 0 for v in counts.values())


def test_single_suite():
    counts = run_suite("formulas", 4)
    assert counts == {"formulas": counts["formulas"]}
    assert counts["formulas"] > 0


@pytest.mark.parametrize("suite", ["configs", "rook"])
def test_random_pair_suites_at_max_n_0_check_nothing(suite):
    assert run_suite(suite, 0) == {suite: 0}


def test_verification_error_payload():
    err = VerificationError("boom", {"n": 3})
    assert isinstance(err, AssertionError)
    assert err.payload == {"n": 3}
    with pytest.raises(KeyError):
        run_suite("nonexistent", 3)


@pytest.mark.parametrize(
    "sweep, message, payload",
    [
        (verify.sweep_formulas, "closed formulas disagree with brute force",
         {"n": 1, "s": 0, "tops": "{}", "bottoms": "{}",
          "formula_alpha_beta": 1, "formula_beta_beta": 1, "brute": 2}),
        (verify.sweep_words, "word formulas disagree with enumeration",
         {"rho": [1], "s": 0, "tops": "{}", "bottoms": "{}",
          "word_formula_1": 1, "word_formula_2": 1, "brute": 2}),
    ],
    ids=["formulas", "words"],
)
def test_closed_form_sweep_failure_record(monkeypatch, sweep, message, payload):
    brute = verify._brute_distributions
    monkeypatch.setattr(verify, "_brute_distributions", lambda *a: brute(*a) + 1)
    with pytest.raises(VerificationError) as info:
        sweep(3)
    assert str(info.value) == message
    assert list(info.value.payload.items()) == list(payload.items())


def _plus_one(real):
    return lambda *args, **kwargs: real(*args, **kwargs) + 1


def _reversed(config):
    # an involution that keeps every sign: 1234 maps to 4321
    return Configuration(config.items[::-1], config.flavor, config.tops, config.bottoms)


CONFIG_CASE = [("flavor", "standard"), ("n", 4), ("s", 0)]
SETS = [("tops", "{2,3}"), ("bottoms", "{1,3,4}")]


@pytest.mark.parametrize(
    "module, name, patch, sweep, message, items",
    [
        (configurations, "staged_count", _plus_one(configurations.staged_count),
         verify.sweep_configs, "staged count disagrees with enumeration",
         CONFIG_CASE + [("r", 0)] + SETS + [("enumerated", 12), ("staged", 13)]),
        (stats, "brute_poly", _plus_one(stats.brute_poly),
         verify.sweep_configs, "signed configuration sum does not telescope",
         CONFIG_CASE + SETS + [("signed_total", 12), ("expected", 13)]),
        (configurations, "involution", lambda config: config,
         verify.sweep_configs, "fixed points do not match the descent count",
         [("flavor", "standard"), ("n", 4), ("s", 1)] + SETS
         + [("fixed_points", 132), ("brute", 12)]),
        (configurations, "involution", _reversed,
         verify.sweep_configs, "involution does not reverse sign",
         [("configuration", "1234"), ("image", "4321")]),
        (rook, "hits_via_foata", _plus_one(rook.hits_via_foata),
         verify.sweep_rook, "hit polynomial disagrees with brute force",
         [("n", 4)] + SETS + [("hits", [13, 12]), ("brute", [12, 12])]),
        (rook, "canonical_distinct_rows", lambda board: (board, ALL),
         verify.sweep_rook, "distinct-rows reduction changes the polynomial",
         [("n", 4)] + SETS + [("reduced_tops", "all")]),
    ],
    ids=["staged", "telescope", "fixed-points", "sign", "hits", "distinct-rows"],
)
def test_random_pair_sweep_failure_record(
    monkeypatch, module, name, patch, sweep, message, items
):
    monkeypatch.setattr(module, name, patch)
    with pytest.raises(VerificationError) as info:
        sweep(4, pairs=3)
    assert str(info.value) == message
    assert list(info.value.payload.items()) == items


def test_formulas_sweep_stops_at_the_word_cap(monkeypatch, capsys):
    capped = partial(words.enumerate_rearrangements, limit=100)
    monkeypatch.setattr(words, "enumerate_rearrangements", capped)
    with pytest.raises(CapExceededError):
        verify.sweep_formulas(5)
    assert main(["verify", "--suite", "formulas", "--max-n", "5"]) == EXIT_CAP
    assert "cap exceeded" in capsys.readouterr().err

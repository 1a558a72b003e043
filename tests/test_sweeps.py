"""The cross-check sweeps themselves, at small sizes."""

import pytest

from descentpoly import verify
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

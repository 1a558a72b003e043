"""The cross-check sweeps themselves, at small sizes."""

import json
import random
import tracemalloc
from functools import partial
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from descentpoly import (
    closed_forms, configurations, hypergeom, rook, stats, verify, words,
)
from descentpoly.cli import EXIT_CAP, EXIT_VERIFY_FAILED, main
from descentpoly.closed_forms import ClosedForm
from descentpoly.perms import InputError
from descentpoly.polynomials import IntPolynomial
from descentpoly.sets import ALL, residue_set
from descentpoly.stats import CapExceededError, DescentQuery
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


@pytest.mark.parametrize(
    "name, max_n, message",
    [("bogus", 3, "unknown suite 'bogus'; choose from formulas, configs, words, "
      "rook, foata, hypergeom, all")]
    + [(name, -1, "n must be >= 0, got -1") for name in [*SUITES, "all"]],
)
def test_run_suite_rejects_bad_input(name, max_n, message):
    with pytest.raises(InputError) as info:
        run_suite(name, max_n)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "sweep, at_zero, bound",
    [(verify.sweep_formulas, 0, "n"), (verify.sweep_words, 0, "n"),
     (verify.sweep_configs, 0, "n"), (verify.sweep_rook, 0, "n"),
     (verify.sweep_foata, 0, "n"), (hypergeom.sweep_pfaff, 1, "max_param"),
     (hypergeom.sweep_cor35, 0, "max_km"), (hypergeom.sweep_hypergeom, 858, "max_param")],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_every_sweep_refuses_a_negative_bound(sweep, at_zero, bound):
    """A library caller gets run_suite's InputError, naming the bound where
    it is not the n of S_n; a bound of 0 still answers (the Pfaff grid at 0
    is the one case a = b = n = c = 0)."""
    with pytest.raises(InputError, match=rf"^{bound} must be >= 0, got -1$"):
        sweep(-1)
    assert sweep(0) == at_zero


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


@pytest.mark.parametrize(
    "sweep, cases", [(verify.sweep_formulas, 1592), (verify.sweep_words, 2968)],
    ids=["formulas", "words"],
)
def test_closed_form_sweep_evaluates_each_distinct_form_once(monkeypatch, sweep, cases):
    """Each (X, Y) pair builds both of its forms, equal forms of one class
    share one polynomial, and every case is still checked once."""
    built, evaluated = {}, {}  # rho -> forms, in call order
    word_form, polynomial = words.word_form, ClosedForm.polynomial

    def recorded_form(rho, *args):
        form = word_form(rho, *args)
        built.setdefault(rho, []).append(form)
        evaluated.setdefault(rho, [])
        return form

    def recorded_polynomial(form):
        evaluated[next(reversed(built))].append(form)  # the class being swept
        return polynomial(form)

    monkeypatch.setattr(words, "word_form", recorded_form)
    monkeypatch.setattr(ClosedForm, "polynomial", recorded_polynomial)
    assert sweep(4) == cases
    for rho, forms in built.items():
        assert len(forms) == 2 * 4 ** len(rho)
        assert len(evaluated[rho]) == len(set(evaluated[rho])) == len(set(forms))
        assert set(evaluated[rho]) == set(forms)
    assert sum(map(len, evaluated.values())) < sum(map(len, built.values()))


def _bincount_per_bottoms_mask(d, xvec, yvecs):
    """The histograms, one np.bincount per bottoms mask."""
    s_matrix = np.tensordot(d, xvec, axes=([1], [0])) @ yvecs.T  # (K, #Y)
    width = int(s_matrix.max(initial=0)) + 1
    return np.array([np.bincount(column, minlength=width) for column in s_matrix.T])


@pytest.mark.parametrize(
    "rho", [(1,) * n for n in range(1, 7)] + list(verify._compositions(5)), ids=str
)
def test_brute_distributions_are_one_bincount_per_bottoms_mask(rho):
    seqs = list(words.enumerate_rearrangements(rho))
    d = verify._pair_matrix(seqs, len(rho))
    subsets = verify._subsets(len(rho))
    yvecs = np.stack([vec for vec, _ in subsets])
    short_rows = 0
    for xvec, xset in subsets:
        hist = verify._brute_distributions(d, len(rho), xvec, yvecs)
        assert hist.tolist() == _bincount_per_bottoms_mask(d, xvec, yvecs).tolist()
        some = yvecs[::-3]  # a few masks in another order, the full mask first
        assert (verify._brute_distributions(d, len(rho), xvec, some).tolist()
                == _bincount_per_bottoms_mask(d, xvec, some).tolist())
        if not xset.members:
            assert hist.tolist() == [[len(seqs)]] * len(subsets)  # width 1
        short_rows += int((hist[:, -1] == 0).sum())
    assert short_rows > 0 or len(rho) == 1  # rows that end before the widest one


@pytest.mark.parametrize("sweep", [verify.sweep_formulas, verify.sweep_words],
                         ids=["formulas", "words"])
@pytest.mark.parametrize("narrowest, s", [(2, 1), (3, 2)])
def test_closed_form_sweep_reports_the_first_bad_s(monkeypatch, sweep, narrowest, s):
    """A count off by one in the last column of every histogram at least
    ``narrowest`` wide is met first at s = narrowest - 1, for the tops
    {2, ..., s + 1} and no bottoms of S_(s+1) (or the word 1^(s+1))."""
    brute = verify._brute_distributions

    def last_column_off(*args):
        hist = brute(*args).copy()
        if hist.shape[1] >= narrowest:
            hist[:, -1] += 1
        return hist

    monkeypatch.setattr(verify, "_brute_distributions", last_column_off)
    with pytest.raises(VerificationError) as info:
        sweep(3)
    head = ("n", s + 1) if sweep is verify.sweep_formulas else ("rho", [1] * (s + 1))
    names = (("formula_alpha_beta", "formula_beta_beta")
             if sweep is verify.sweep_formulas else ("word_formula_1", "word_formula_2"))
    tops = "{" + ",".join(str(x) for x in range(2, s + 2)) + "}"
    assert list(info.value.payload.items()) == [
        head, ("s", s), ("tops", tops), ("bottoms", "{}"),
        (names[0], 0), (names[1], 0), ("brute", 1),
    ]


def _plus_one(real):
    return lambda *args, **kwargs: real(*args, **kwargs) + 1


def _bumped(poly):
    """poly + 1: one added to its constant term."""
    return IntPolynomial({**dict(poly.items()), 0: poly.coeff(0) + 1})


def _plus_one_poly(real):
    return lambda *args, **kwargs: _bumped(real(*args, **kwargs))


def _plus_one_with_route(real):
    """hits_with_route with one added to its polynomial; the route stays."""
    def patched(*args):
        poly, route = real(*args)
        return _bumped(poly), route
    return patched


def _foata_sweep(max_n, pairs):
    """sweep_foata at the table's sizes: ``pairs`` seeded queries per n."""
    return verify.sweep_foata(max_n, queries=pairs)


def _backwards(real):
    return lambda *args: real(*args)[::-1]


def _drop_last_cell(real):
    """board_from_query without its largest cell."""
    def board(n, query):
        cells = real(n, query).cells
        return rook.Board(n, cells - {max(cells, default=None)})
    return board


def _mirrored(layout):
    """A map on layouts that keeps every sign: gap g goes to gap G - 1 - g of
    the G gaps, which is its own inverse."""
    gaps = len(layout.plus_by_gap)
    minus = sum(1 << (gaps - 1 - g) for g in range(gaps) if layout.minus_mask >> g & 1)
    return configurations._layout(minus, layout.plus_by_gap[::-1], layout.required_mask)


BRIDGE_RECORD = [("omega", [2, 1, 3]), ("tops", "{2}"), ("bottoms", "{1}"),
                 ("diffs", "{1,2,3}"), ("excedences", 0), ("descents", 1)]
CONFIG_CASE = [("flavor", "standard"), ("n", 4), ("s", 0)]
SETS = [("tops", "{2,3}"), ("bottoms", "{1,3,4}")]


@pytest.mark.parametrize(
    "module, name, patch, sweep, message, items",
    [
        (configurations, "staged_count", _plus_one(configurations.staged_count),
         verify.sweep_configs, "staged count disagrees with enumeration",
         CONFIG_CASE + [("r", 0)] + SETS + [("enumerated", 12), ("staged", 13)]),
        (stats, "brute_poly", _plus_one_poly(stats.brute_poly),
         verify.sweep_configs, "signed configuration sum does not telescope",
         CONFIG_CASE + SETS + [("signed_total", 12), ("expected", 13)]),
        (configurations, "_image", lambda layout: layout,
         verify.sweep_configs, "fixed points do not match the descent count",
         [("flavor", "standard"), ("n", 4), ("s", 1)] + SETS
         + [("fixed_points", 132), ("brute", 12)]),
        (configurations, "_image", _mirrored,
         verify.sweep_configs, "involution does not reverse sign",
         [("configuration", "-1234"), ("image", "1234-")]),
        (rook, "hits_with_route", _plus_one_with_route(rook.hits_with_route),
         verify.sweep_rook, "hit polynomial disagrees with brute force",
         [("n", 4)] + SETS + [("hits", [13, 12]), ("brute", [12, 12])]),
        (rook, "canonical_distinct_rows", lambda board: (board, ALL),
         verify.sweep_rook, "distinct-rows reduction changes the polynomial",
         [("n", 4)] + SETS + [("reduced_tops", "all")]),
        (rook, "foata_inverse", _backwards(rook.foata_inverse),
         _foata_sweep, "cycle rewriting does not round-trip",
         [("omega", [1, 2]), ("image", [1, 2])]),
        (rook, "board_from_query", _drop_last_cell(rook.board_from_query),
         _foata_sweep, "descent/excedence bridge broken", BRIDGE_RECORD),
    ],
    ids=["staged", "telescope", "fixed-points", "sign", "hits", "distinct-rows",
         "round-trip", "bridge"],
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


@pytest.mark.parametrize(
    "broken_at, message, items",
    [
        ((3, 2, 1), "descent/excedence bridge broken", BRIDGE_RECORD),
        ((2, 1, 3), "cycle rewriting does not round-trip",
         [("omega", [2, 1, 3]), ("image", [2, 1, 3])]),
        ((1, 3, 2), "cycle rewriting does not round-trip",
         [("omega", [1, 3, 2]), ("image", [1, 3, 2])]),
    ],
    ids=["bridge-at-an-earlier-omega", "round-trip-at-the-same-omega",
         "round-trip-at-an-earlier-omega"],
)
def test_foata_sweep_reports_the_first_omega(monkeypatch, broken_at, message, items):
    # the broken board first fails the bridge at omega = 213 of S_3
    real = rook.foata_inverse

    def inverse(sigma):
        omega = real(sigma)
        return omega[::-1] if omega == broken_at else omega

    monkeypatch.setattr(rook, "board_from_query", _drop_last_cell(rook.board_from_query))
    monkeypatch.setattr(rook, "foata_inverse", inverse)
    with pytest.raises(VerificationError) as info:
        _foata_sweep(4, 3)
    assert str(info.value) == message
    assert list(info.value.payload.items()) == items


def test_bridge_failure_is_the_earliest_omega_over_all_queries(monkeypatch):
    # of these four queries, an earlier one first fails at omega = 213
    monkeypatch.setattr(rook, "board_from_query", _drop_last_cell(rook.board_from_query))
    with pytest.raises(VerificationError) as info:
        _foata_sweep(4, 4)
    assert list(info.value.payload.items()) == [
        ("omega", [1, 3, 2]), ("tops", "{3}"), ("bottoms", "{2}"),
        ("diffs", "{1,2,3}"), ("excedences", 0), ("descents", 1),
    ]


def test_broken_bridge_exits_1_with_a_json_record(monkeypatch, capsys):
    # several of the 20 queries fail at omega = 21; the first one is reported
    monkeypatch.setattr(rook, "board_from_query", _drop_last_cell(rook.board_from_query))
    assert main(["verify", "--suite", "foata", "--max-n", "5"]) == EXIT_VERIFY_FAILED
    record = json.loads(capsys.readouterr().out)
    assert record["result"] == {
        "failure": {"omega": [2, 1], "tops": "{2}", "bottoms": "{1}", "diffs": "{1}",
                    "excedences": 0, "descents": 1},
        "message": "descent/excedence bridge broken",
    }


def _seeded_queries(n, seed):
    """Explicit tops and bottoms with an explicit, a residue and the full Z."""
    rng = random.Random(seed)
    for diffs in (verify._random_subset(n, rng), residue_set(2, [1]), ALL):
        yield DescentQuery(verify._random_subset(n, rng),
                           verify._random_subset(n, rng), diffs)


def test_bridge_table_counts_are_the_public_statistics():
    perms = list(permutations(range(1, 7)))
    omegas = np.array(perms, dtype=np.int8)
    sigmas = np.array([rook.foata(omega) for omega in perms], dtype=np.int8)
    for query in _seeded_queries(6, seed=6):
        board = rook.board_from_query(6, query)
        tables = verify._bridge_tables(6, query, board)
        exc, des = verify._bridge_counts(omegas, sigmas, tables)
        assert exc.tolist() == [rook.u_excedences(omega, board) for omega in perms]
        assert des.tolist() == [
            len(stats.des_set(rook.foata(omega), query)) for omega in perms
        ]


def test_foata_sweep_holds_no_list_of_s_n():
    # a list of the 8! tuples of S_8 alone takes about 4.5 MB
    tracemalloc.start()
    try:
        assert verify.sweep_foata(8, queries=2) == 2 * sum(map(factorial, range(1, 9)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000



@pytest.mark.parametrize(
    "name, side, sweep, message, items",
    [
        ("verify_cor35", 0, hypergeom.sweep_cor35, "mod-(k+1) identity fails",
         [("k", 1), ("m", 1), ("s", 0), ("left", "2"), ("right", "1"), ("count", 1)]),
        ("_balanced_sides", 1, hypergeom.sweep_balanced,
         "balanced transformation fails",
         [("u", [0]), ("v", [1]), ("n", 2), ("s", 0), ("left", "1"), ("right", "2"),
          ("count", 1)]),
        ("_pfaff_lhs_pair", None, hypergeom.sweep_pfaff, "summation formula fails",
         [("n", 0), ("a", -5), ("b", -5), ("c", -10), ("lhs", "2"), ("rhs", "1")]),
        ("_pfaff_rhs_pair", None, hypergeom.sweep_pfaff, "summation formula fails",
         [("n", 0), ("a", -5), ("b", -5), ("c", -10), ("lhs", "1"), ("rhs", "2")]),
    ],
    ids=["cor35", "balanced", "pfaff_lhs", "pfaff_rhs"],
)
def test_hypergeom_sweep_failure_record(monkeypatch, name, side, sweep, message, items):
    real = getattr(hypergeom, name)

    def step(value):
        # a number plus 1; an integer pair (num, den) plus den/den
        if isinstance(value, tuple):
            return value[0] + value[1], value[1]
        return value + 1

    def skewed(*args):
        # one step on one of the returned sides, or on the one returned pair
        if side is None:
            return step(real(*args))
        sides = list(real(*args))
        sides[side] = step(sides[side])
        return tuple(sides)

    monkeypatch.setattr(hypergeom, name, skewed)
    with pytest.raises(VerificationError) as info:
        sweep()
    assert str(info.value) == message
    assert list(info.value.payload.items()) == items


def test_balanced_sweep_builds_one_tau_word_and_form_per_profile(monkeypatch):
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def call(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, call)

    counted(hypergeom, "tau_sequence")
    counted(closed_forms, "permutation_form")
    counted(ClosedForm, "polynomial")
    assert hypergeom.sweep_balanced() == 844
    assert calls == {"tau_sequence": 102, "permutation_form": 102, "polynomial": 102}


def test_balanced_sweep_reports_a_skewed_count(monkeypatch):
    """The count side of the balanced sweep is the form's polynomial: one
    added to its constant term fails the first profile at s = 0."""
    monkeypatch.setattr(ClosedForm, "polynomial", _plus_one_poly(ClosedForm.polynomial))
    with pytest.raises(VerificationError) as info:
        hypergeom.sweep_balanced()
    assert str(info.value) == "balanced transformation fails"
    assert list(info.value.payload.items()) == [
        ("u", [0]), ("v", [1]), ("n", 2), ("s", 0), ("left", "1"), ("right", "1"),
        ("count", 2),
    ]

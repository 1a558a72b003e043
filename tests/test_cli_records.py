"""One record path in the CLI: records, failure records and exit codes."""

import json
from fractions import Fraction

import pytest

from descentpoly import configurations, hypergeom, rook, sets, stats, verify, words
from descentpoly.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, main
from descentpoly.perms import InputError, check_size, parse_permutation
from descentpoly.sets import ALL, parse_set
from test_cli import _readme_commands, run

# (command, method, inputs) of each README command, as recorded before the
# handlers stopped building their own records.
README_RECORDS = {
    "poly --n 6 --x {2,3,4,6,7,9} --y {1,4,8} --method recursion": (
        "poly", "recursion", {"n": 6, "x": "{2,3,4,6,7,9}", "y": "{1,4,8}", "z": "all"},
    ),
    "poly --n 6 --x {2,3,4,6,7,9} --y {1,4,8} --method rook": (
        "poly", "rook", {"n": 6, "x": "{2,3,4,6,7,9}", "y": "{1,4,8}", "z": "all"},
    ),
    "poly --n 8 --x geq:5|{2} --y mod:2:1 --method rook": (
        "poly", "rook", {"n": 8, "x": "geq:5|{2}", "y": "mod:2:1", "z": "all"},
    ),
    "xyz --n 8 --x all --y all --z {1}": (
        "xyz", "rook", {"n": 8, "x": "all", "y": "all", "z": "{1}"},
    ),
    "xyz --n 30 --x mod:3:0,2 --y all --z {1,2,4}": (
        "xyz", "rook", {"n": 30, "x": "mod:3:0,2", "y": "all", "z": "{1,2,4}"},
    ),
    "word-poly --rho 2,3,1,2 --x {2,4} --y {1,2}": (
        "word-poly", "formula1", {"rho": [2, 3, 1, 2], "x": "{2,4}", "y": "{1,2}"},
    ),
    "board --n 8 --x {2,3,5,7,8} --y {1,2,4,5,6}": (
        "board", "direct",
        {"n": 8, "x": "{2,3,5,7,8}", "y": "{1,2,4,5,6}", "z": "all"},
    ),
    "foata --perm 61437258": (
        "foata", "cycle-rewriting", {"perm": "61437258", "inverse": False},
    ),
    "foata --perm 43612758 --inverse": (
        "foata", "cycle-rewriting", {"perm": "43612758", "inverse": True},
    ),
    "configs --n 6 --s 1 --r 1 --x {2,3,6} --y {1,2,5} --flavor overline "
    "--trace 213+6-54": (
        "configs", "enumeration",
        {"n": 6, "s": 1, "r": 1, "x": "{2,3,6}", "y": "{1,2,5}", "flavor": "overline"},
    ),
    "q-poly --n 6 --x mod:2:0": ("q-poly", "recursion", {"n": 6, "x": "mod:2:0"}),
    "hypergeom --suite pfaff --max 5": (
        "hypergeom", "exact", {"suite": "pfaff", "max": 5},
    ),
    "verify --suite all --max-n 4": ("verify", "sweep", {"suite": "all", "max_n": 4}),
}


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_records_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    record = json.loads(out)
    command, method, inputs = README_RECORDS[" ".join(argv)]
    assert record["command"] == command
    assert record["method"] == method
    assert record["inputs"] == inputs
    assert record["elapsed_ms"] >= 0


def test_text_record_lists_inputs_in_order(capsys):
    code, out, _ = run(capsys, "--format", "text", "foata", "--perm", "61437258")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[:5] == [
        "command: foata",
        "  perm: 61437258",
        "  inverse: False",
        "method: cycle-rewriting",
        "  image: 43612758",
    ]
    assert lines[5].startswith("elapsed_ms: ")


class TestHypergeomSuites:
    def test_balanced_runs_only_the_profiles(self, capsys):
        for bound in (1, 5):
            argv = ["hypergeom", "--suite", "balanced", "--max", str(bound)]
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            record = json.loads(out)
            assert record["result"]["cases_checked"] == hypergeom.sweep_balanced()
            assert record["inputs"] == {"suite": "balanced", "max": bound}

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_pfaff_and_cor35_run_the_verify_sweeps(self, capsys, bound):
        sweeps = {"pfaff": hypergeom.sweep_pfaff, "cor35": hypergeom.sweep_cor35}
        for suite, sweep in sweeps.items():
            argv = ["hypergeom", "--suite", suite, "--max", str(bound)]
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            assert json.loads(out)["result"]["cases_checked"] == sweep(bound)

    @pytest.mark.parametrize("bound, total", [(2, 998), (3, 1325), (5, 3338)])
    def test_sweep_hypergeom_is_the_three_parts(self, bound, total):
        pfaff, cor35 = hypergeom.sweep_pfaff(bound), hypergeom.sweep_cor35(2)
        parts = pfaff + cor35 + hypergeom.sweep_balanced()
        assert verify.sweep_hypergeom(bound) == parts == total


@pytest.fixture
def wrong_rhs(monkeypatch):
    """The summation formula's right side, off by one: the pair (num, den)
    becomes (num + den, den)."""
    real = hypergeom._pfaff_rhs_pair

    def plus_one(*args):
        num, den = real(*args)
        return num + den, den

    monkeypatch.setattr(hypergeom, "_pfaff_rhs_pair", plus_one)


FAILING = [
    (["verify", "--suite", "hypergeom", "--max-n", "3"],
     "verify", "sweep", {"suite": "hypergeom", "max_n": 3}),
    (["hypergeom", "--suite", "pfaff", "--max", "3"],
     "hypergeom", "exact", {"suite": "pfaff", "max": 3}),
]
FAILING_IDS = ["verify", "hypergeom"]


@pytest.mark.parametrize("argv, command, method, inputs", FAILING, ids=FAILING_IDS)
def test_verification_failure_exits_1_with_a_full_record(
    capsys, wrong_rhs, argv, command, method, inputs
):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_VERIFY_FAILED
    assert err == ""
    record = json.loads(out)
    assert record["command"] == command
    assert record["method"] == method
    assert record["inputs"] == inputs
    failure = record["result"]["failure"]
    assert set(failure) == {"n", "a", "b", "c", "lhs", "rhs"}
    assert Fraction(failure["rhs"]) == Fraction(failure["lhs"]) + 1
    assert record["result"]["message"] == "summation formula fails"


@pytest.mark.parametrize("argv, command, method, inputs", FAILING, ids=FAILING_IDS)
def test_verification_failure_in_text(capsys, wrong_rhs, argv, command, method, inputs):
    code, out, _ = run(capsys, "--format", "text", *argv)
    assert code == EXIT_VERIFY_FAILED
    lines = out.splitlines()
    assert lines[0] == f"command: {command}"
    assert lines[1:3] == [f"  {key}: {value}" for key, value in inputs.items()]
    assert lines[3] == f"method: {method}"
    assert "  failure:" in lines
    assert any(line.startswith("    lhs: ") for line in lines)
    assert any(line.startswith("    rhs: ") for line in lines)
    assert "  message: summation formula fails" in lines


def test_internal_value_error_propagates(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(stats, "recursion_bivar", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["poly", "--n", "4", "--x", "all", "--y", "all", "--method", "recursion"])
    monkeypatch.setattr(hypergeom, "sweep_cor35", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["hypergeom", "--suite", "cor35", "--max", "2"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["poly", "--n", "4", "--x", "nope", "--y", "all"],
         "usage error: cannot parse set syntax: 'nope' ("),
        (["poly", "--n", "4", "--x", "{0}", "--y", "all"], "'{0}'"),
        (["poly", "--n", "-1", "--x", "all", "--y", "all"],
         "argument --n: must be >= 0, got -1"),
        (["poly", "--n", "abc", "--x", "all", "--y", "all"],
         "argument --n: 'abc' is not an integer"),
        (["foata", "--perm", "12x"],
         "usage error: cannot parse permutation '12x': 'x' is not an integer"),
        (["foata", "--perm", "1134"], "not a permutation of 1..4: (1, 1, 3, 4)"),
        (["word-poly", "--rho", "2,a", "--x", "all", "--y", "all"],
         "usage error: cannot parse composition '2,a': 'a' is not an integer"),
        (["word-poly", "--rho", "2,-1", "--x", "all", "--y", "all"],
         "composition parts must be >= 0: (2, -1)"),
        (["configs", "--n", "3", "--s", "1", "--r", "1", "--x", "all", "--y", "all",
          "--trace", "1a2"], "bad character 'a' in configuration"),
        (["configs", "--n", "3", "--s", "1", "--r", "1", "--x", "all", "--y", "all",
          "--flavor", "overline", "--trace", "3-21"], "usage error: 3-21"),
        (["xyz", "--n", "4", "--x", "all", "--y", "all", "--z", ""],
         "usage error: cannot parse set syntax: ''"),
        (["board", "--n", "4", "--x", "all", "--y", "all", "--z", ""],
         "usage error: cannot parse set syntax: ''"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_bad_input_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


def test_input_errors_are_typed():
    flavor = configurations.Flavor.STANDARD
    for bad in (
        lambda: check_size(-1),
        lambda: parse_permutation("12x"),
        lambda: parse_permutation("1134"),
        lambda: parse_set("mod:3"),
        lambda: words.word_form((2, -1), ALL, ALL),
        lambda: configurations.config_from_str("1a2", flavor, ALL, ALL),
        lambda: configurations.config_from_str("3-21", flavor, ALL, ALL),
    ):
        with pytest.raises(InputError):
            bad()
    assert issubclass(configurations.MalformedConfigurationError, InputError)
    assert issubclass(InputError, ValueError)


@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda: sets.at_least(0), "half-line start must be >= 1"),
        (lambda: sets.residue_set(0, [0]), "modulus must be >= 1"),
        (lambda: sets.explicit_set([0]), "set members must be positive integers"),
        (lambda: rook.Board(3, {(1, 2)}), r"cell \(1, 2\) not strictly below the diagonal"),
    ],
    ids=["at_least", "residue_set", "explicit_set", "Board"],
)
def test_set_and_board_constructors_raise_input_error(bad, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        bad()


CONFIGS_N3 = ["configs", "--n", "3", "--s", "1", "--r", "1", "--x", "all", "--y", "all"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (CONFIGS_N3 + ["--trace", "9+"], "trace '9+' is not on the letters 1..3"),
        (CONFIGS_N3 + ["--trace", "2+1"], "trace '2+1' is not on the letters 1..3"),
        (CONFIGS_N3 + ["--trace", ""], "trace '' is not on the letters 1..3"),
        (CONFIGS_N3 + ["--trace", "9+12"], "not a permutation of 1..3: (9, 1, 2)"),
        (["verify", "--suite", "formulas", "--max-n", "-1"],
         "argument --max-n: must be >= 0, got -1"),
        (["hypergeom", "--max", "-1"], "argument --max: must be >= 0, got -1"),
        (["--max-brute", "-1", "poly", "--n", "3", "--x", "all", "--y", "all",
          "--method", "brute"], "argument --max-brute: must be >= 0, got -1"),
        (["configs", "--n", "3", "--s", "-1", "--r", "0", "--x", "all", "--y", "all"],
         "argument --s: must be >= 0, got -1"),
        (["configs", "--n", "3", "--s", "1", "--r", "-1", "--x", "all", "--y", "all"],
         "argument --r: must be >= 0, got -1"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_out_of_range_input_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


def test_verify_all_at_max_n_0_answers(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "0")
    assert code == EXIT_OK
    counts = json.loads(out)["result"]["cases_checked"]
    del counts["hypergeom"]
    assert counts == dict.fromkeys(("configs", "foata", "formulas", "rook", "words"), 0)


def test_trace_on_the_class_letters_still_answers(capsys):
    code, out, _ = run(capsys, *CONFIGS_N3, "--trace", "2+13")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["trace"] == {"input": "2+13", "image": "2+13"}


def test_empty_trace_at_n_0_maps_the_empty_configuration(capsys):
    code, out, _ = run(capsys, "configs", "--n", "0", "--s", "0", "--r", "0",
                       "--x", "all", "--y", "all", "--list", "--trace", "")
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["configurations"] == [""]
    assert result["trace"] == {"input": "", "image": ""}


BOARD_TEXT = [
    "command: board",
    "  n: 8",
    "  x: {2,3,5,7,8}",
    "  y: {1,2,4,5,6}",
    "  z: all",
    "method: direct",
    "  canonical_x: {2,3,4,5,7}",
    "  cells:",
    "    [2, 1] [3, 1] [3, 2] [5, 1] [5, 2] [5, 4] [7, 1] [7, 2] [7, 4] [7, 5] [7, 6]"
    " [8, 1] [8, 2] [8, 4] [8, 5] [8, 6]",
    "  grid:",
    "    # # . # # # . . # # . # # # . . . . . . . . . . # # . # . . . . . . . . . ."
    " . . # # . . . . . . # . . . . . . . . . . . . . . .",
    "  heights:",
    "    0 0 0 2 2 3 4 5",
    "  n: 8",
    "  structure:",
    "    0 -1 -2 -1 -2 -2 -2 -2",
]
CONFIGS_TEXT = [
    "command: configs",
    "  n: 3",
    "  s: 2",
    "  r: 1",
    "  x: {2,3}",
    "  y: {1,2}",
    "  flavor: standard",
    "method: enumeration",
    "  configurations:",
    "    -123+ -12+3 -1+23 -+123 1-23+ 1-2+3 1-+23 +1-23 12-3+ 12-+3 1+2-3 +12-3"
    " 123-+ 12+3- 1+23- +123- -13+2 1-3+2 13-+2 13+2- -2+13 2-+13 2+1-3 2+13-"
    " -23+1 2-3+1 23-+1 23+1- -3+12 3-+12 3+1-2 3+12-",
    "  count: 32",
    "  staged_count: 32",
]

# No configuration at all: the empty list prints as `[]`, as in the JSON.
CONFIGS_EMPTY_TEXT = [
    *CONFIGS_TEXT[:6],
    "  flavor: overline",
    "method: enumeration",
    "  configurations:",
    "    []",
    "  count: 0",
    "  staged_count: 0",
]

# The one configuration of S_0 is the empty array: it prints as `""`, as in
# the JSON, not as a line of bare indent.
CONFIGS_EMPTY_STRING_TEXT = [
    "command: configs",
    "  n: 0",
    "  s: 0",
    "  r: 0",
    "  x: all",
    "  y: all",
    "  flavor: standard",
    "method: enumeration",
    "  configurations:",
    '    ""',
    "  count: 1",
    "  staged_count: 1",
]


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["board", "--n", "8", "--x", "{2,3,5,7,8}", "--y", "{1,2,4,5,6}"], BOARD_TEXT),
        (["configs", "--n", "3", "--s", "2", "--r", "1", "--x", "{2,3}", "--y", "{1,2}",
          "--list"], CONFIGS_TEXT),
        (["configs", "--n", "3", "--s", "2", "--r", "1", "--x", "{2,3}", "--y", "{1,2}",
          "--flavor", "overline", "--list"], CONFIGS_EMPTY_TEXT),
        (["configs", "--n", "0", "--s", "0", "--r", "0", "--x", "all", "--y", "all",
          "--list"], CONFIGS_EMPTY_STRING_TEXT),
    ],
    ids=["board", "configs-list", "configs-empty-list", "configs-empty-string"],
)
def test_text_record_prints_lists_on_one_line(capsys, argv, lines):
    code, out, _ = run(capsys, "--format", "text", *argv)
    assert code == EXIT_OK
    *body, elapsed = out.splitlines()
    assert body == lines
    assert elapsed.startswith("elapsed_ms: ")


def test_half_line_below_1_exits_2_naming_the_token(capsys):
    code, out, err = run(capsys, "board", "--n", "5", "--x", "geq:0", "--y", "all")
    assert code == EXIT_USAGE
    assert out == ""
    assert "invalid set 'geq:0': half-line start must be >= 1" in err

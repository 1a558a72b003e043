"""Command-line interface: output formats, methods, and exit codes."""

import json
import shlex
import sys
from math import comb, factorial
from pathlib import Path

import pytest

from descentpoly.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def _digits(value: int) -> str:
    """str(value), however many digits it has."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestPoly:
    def test_methods_agree_on_pinned_example(self, capsys):
        results = {}
        for method in ("brute", "recursion", "formula1", "formula2", "rook"):
            record = run_json(
                capsys,
                "poly",
                "--n", "6",
                "--x", "{2,3,4,6,7,9}",
                "--y", "{1,4,8}",
                "--method", method,
            )
            results[method] = record["result"]["coefficients"]
            assert record["method"] == method
        reference = results["brute"]
        assert reference["2"] == "72"
        for method, coeffs in results.items():
            assert coeffs == reference, method

    def test_difference_set_restricted_to_brute_and_rook(self, capsys):
        brute = run_json(
            capsys, "poly", "--n", "6", "--x", "all", "--y", "all",
            "--z", "{1}", "--method", "brute",
        )
        rook = run_json(
            capsys, "xyz", "--n", "6", "--x", "all", "--y", "all",
            "--z", "{1}", "--method", "rook",
        )
        assert brute["result"]["coefficients"] == rook["result"]["coefficients"]
        code, _, err = run(
            capsys, "poly", "--n", "6", "--x", "all", "--y", "all",
            "--z", "{1}", "--method", "formula1",
        )
        assert code == EXIT_USAGE
        assert "does not support --z" in err

    def test_z_all_is_no_difference_set(self, capsys):
        argv = ["poly", "--n", "5", "--x", "all", "--y", "all", "--method", "recursion"]
        with_z = run_json(capsys, *argv, "--z", "all")
        without_z = run_json(capsys, *argv)
        assert with_z["inputs"]["z"] == "all"
        with_z["elapsed_ms"] = without_z["elapsed_ms"]
        assert with_z == without_z

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "text", "poly", "--n", "4", "--x", "all",
            "--y", "all", "--method", "recursion",
        )
        assert code == EXIT_OK
        assert "command: poly" in out
        assert "method: recursion" in out

    def test_coefficients_survive_json_as_strings(self, capsys):
        record = run_json(
            capsys, "poly", "--n", "30", "--x", "mod:2:0", "--y", "all",
            "--method", "recursion",
        )
        total = sum(int(v) for v in record["result"]["coefficients"].values())
        assert total == factorial(30)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_values_past_the_int_digit_limit_print(self, capsys, fmt):
        # 1599! has 4,431 digits, past Python's default limit of 4,300
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "--format", fmt, "poly", "--n", "1600",
                             "--x", "{1600}", "--y", "all", "--method", "rook")
        assert sys.get_int_max_str_digits() == limit
        assert (code, err) == (EXIT_OK, "")
        want = {"0": _digits(factorial(1599)), "1": _digits(1599 * factorial(1599))}
        if fmt == "json":
            assert json.loads(out)["result"]["coefficients"] == want
        else:
            assert f"    0: {want['0']}\n    1: {want['1']}\n" in out

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_a_cap_past_the_int_digit_limit_prints(self, capsys, fmt):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "--format", fmt, "word-poly", "--rho", "8000,8000",
                             "--x", "all", "--y", "all", "--method", "brute")
        assert sys.get_int_max_str_digits() == limit
        assert (code, out) == (EXIT_CAP, "")
        count = _digits(comb(16000, 8000))
        assert err == f"cap exceeded: |R((8000, 8000))| = {count} exceeds the cap 1000000\n"


class TestOtherCommands:
    def test_word_poly(self, capsys):
        brute = run_json(
            capsys, "word-poly", "--rho", "2,3,1,2", "--x", "{2,4}",
            "--y", "{1,2}", "--method", "brute",
        )
        f1 = run_json(
            capsys, "word-poly", "--rho", "2,3,1,2", "--x", "{2,4}",
            "--y", "{1,2}", "--method", "formula1",
        )
        assert brute["result"]["coefficients"] == f1["result"]["coefficients"]

    def test_board(self, capsys):
        record = run_json(
            capsys, "board", "--n", "8", "--x", "{2,3,5,7,8}",
            "--y", "{1,2,4,5,6}",
        )
        assert record["result"]["canonical_x"] == "{2,3,4,5,7}"
        assert len(record["result"]["grid"]) == 8

    def test_board_non_ferrers(self, capsys):
        record = run_json(
            capsys, "board", "--n", "4", "--x", "all", "--y", "all",
            "--z", "{1}",
        )
        assert record["result"]["canonical_x"] is None

    def test_foata(self, capsys):
        record = run_json(capsys, "foata", "--perm", "61437258")
        assert record["result"]["image"] == "43612758"
        back = run_json(capsys, "foata", "--perm", "43612758", "--inverse")
        assert back["result"]["image"] == "61437258"

    def test_foata_letters_above_nine_print_with_commas(self, capsys):
        perm, image = "10,1,4,3,7,2,5,8,9,6", "4,3,7,5,8,9,10,1,2,6"
        record = run_json(capsys, "foata", "--perm", perm)
        assert (record["inputs"]["perm"], record["result"]["image"]) == (perm, image)
        back = run_json(capsys, "foata", "--perm", image, "--inverse")
        assert back["result"]["image"] == perm

    def test_configs(self, capsys):
        record = run_json(
            capsys, "configs", "--n", "6", "--s", "1", "--r", "1",
            "--x", "{2,3,6}", "--y", "{1,2,5}", "--flavor", "overline",
            "--trace", "213+6-54",
        )
        assert record["result"]["count"] == 1344
        assert record["result"]["staged_count"] == 1344
        assert record["result"]["trace"]["image"] == "213+6+54"

    def test_qpoly(self, capsys):
        record = run_json(capsys, "q-poly", "--n", "4", "--x", "all")
        total = sum(int(v) for v in record["result"]["coefficients_q_x"].values())
        assert total == 24

    def test_hypergeom(self, capsys):
        record = run_json(capsys, "hypergeom", "--suite", "pfaff", "--max", "2")
        assert record["result"]["cases_checked"] > 0
        record = run_json(capsys, "hypergeom", "--suite", "cor35", "--max", "2")
        assert record["result"]["cases_checked"] > 0

    def test_verify(self, capsys):
        record = run_json(capsys, "verify", "--suite", "formulas", "--max-n", "3")
        assert record["result"]["cases_checked"]["formulas"] > 0


class TestExitCodes:
    def test_bad_set_syntax(self, capsys):
        code, _, err = run(
            capsys, "poly", "--n", "4", "--x", "nope", "--y", "all",
        )
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys, "poly", "--n", "12", "--x", "all", "--y", "all",
            "--method", "brute",
        )
        assert code == EXIT_CAP
        assert "cap exceeded" in err

    def test_lowered_cap_flag(self, capsys):
        code, _, _ = run(
            capsys, "--max-brute", "4", "poly", "--n", "5", "--x", "all",
            "--y", "all", "--method", "brute",
        )
        assert code == EXIT_CAP

    @pytest.mark.parametrize(
        "cap, rho, message",
        [
            (["--max-brute", "3"], "3,3", "|R((3, 3))| = 20 exceeds the cap 6"),
            ([], "4,4,4,4", "|R((4, 4, 4, 4))| = 63063000 exceeds the cap 1000000"),
        ],
        ids=["3! words", "default"],
    )
    def test_word_brute_force_walks_at_most_k_factorial_words(
        self, capsys, cap, rho, message
    ):
        code, out, err = run(capsys, *cap, "word-poly", "--rho", rho, "--x", "{2,3}",
                             "--y", "{1}", "--method", "brute")
        assert (code, out) == (EXIT_CAP, "")
        assert err == f"cap exceeded: {message}\n"

    @pytest.mark.parametrize("cap", ["4", "10", "1000000"])
    def test_word_brute_force_under_the_cap_flag(self, capsys, cap):
        # 4! = 24 >= 20 words; a large K clips to the 10⁶-word cap at once
        record = run_json(capsys, "--max-brute", cap, "word-poly", "--rho", "3,3",
                          "--x", "{2,3}", "--y", "{1}", "--method", "brute")
        assert record["result"] == {"coefficients": {"0": "1", "1": "9", "2": "9", "3": "1"}}


class TestInputChecks:
    @pytest.mark.parametrize(
        "method", ["brute", "recursion", "formula1", "formula2", "rook"]
    )
    def test_empty_and_negative_n(self, capsys, method):
        argv = ["poly", "--x", "all", "--y", "all", "--method", method]
        record = run_json(capsys, *argv, "--n", "0")
        assert record["result"]["coefficients"] == {"0": "1"}
        code, _, err = run(capsys, *argv, "--n", "-3")
        assert code == EXIT_USAGE
        assert "--n" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["xyz", "--x", "all", "--y", "all", "--z", "{1}"],
            ["q-poly", "--x", "all"],
            ["board", "--x", "all", "--y", "all"],
            ["configs", "--s", "0", "--r", "0", "--x", "all", "--y", "all"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_n_rejected_by_every_command(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--n", "-1")
        assert code == EXIT_USAGE
        assert "--n" in err

    @pytest.mark.parametrize("token", ["mod:3", "{a}", "geq:", "mod:3:5"])
    def test_bad_set_token_is_named(self, capsys, token):
        code, _, err = run(capsys, "poly", "--n", "4", "--x", token, "--y", "all")
        assert code == EXIT_USAGE
        assert repr(token) in err


def _readme_commands():
    """The argv of every command in the README's "Command line" block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = []
    for line in block.splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            program, *argv = shlex.split(line)
            assert program == "descentpoly"
            commands.append(argv)
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands(capsys, argv):
    record = run_json(capsys, *argv)
    assert {"command", "inputs", "result", "method"} <= record.keys()


def test_xyz_records_its_own_command(capsys):
    argv = next(argv for argv in _readme_commands() if argv[0] == "xyz")
    record = run_json(capsys, *argv)
    assert record["command"] == "xyz"
    assert record["method"] == "rook"
    assert record["result"]["rook_path"] == "frontier"

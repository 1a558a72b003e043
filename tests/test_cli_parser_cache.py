"""The parser is built once per process, and payloads are emitted unsorted.

Neither may change what a command prints: one call must not leak into the
next, and the emitters must sort keys on their own.  The parser writes out
the `verify --suite` choices by hand, so a test pins them to the sweeps.
"""

import argparse
import json
import random

from descentpoly.cli import (
    EXIT_OK,
    EXIT_USAGE,
    _emit,
    _poly_payload,
    build_parser,
    main,
)
from descentpoly.polynomials import IntPolynomial
from descentpoly.verify import SUITES

POLY_ARGV = ["poly", "--n", "5", "--x", "{2,3,5}", "--y", "{1,3,4}"]
NINE_ARGV = ["poly", "--n", "9", "--x", "{2,4,5,7,9}", "--y", "{1,3,4,6,8}"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_verify_suite_choices_are_the_sweeps_and_all():
    # the parser cannot read verify.SUITES without loading numpy at start-up
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    (suite,) = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
    assert set(suite.choices) == set(SUITES) | {"all"}
    assert len(suite.choices) == len(SUITES) + 1


def test_method_default_survives_an_explicit_method(capsys):
    code, out, _ = run(capsys, POLY_ARGV + ["--method", "brute"])
    assert code == EXIT_OK and json.loads(out)["method"] == "brute"
    code, out, _ = run(capsys, POLY_ARGV)
    assert code == EXIT_OK and json.loads(out)["method"] == "recursion"


def test_format_default_survives_text(capsys):
    code, text, _ = run(capsys, ["--format", "text"] + POLY_ARGV)
    assert code == EXIT_OK and text.startswith("command: poly\n")
    code, out, _ = run(capsys, POLY_ARGV)
    assert code == EXIT_OK and json.loads(out)["command"] == "poly"


def test_xyz_default_is_rook_after_poly(capsys):
    run(capsys, POLY_ARGV + ["--method", "formula2"])
    code, out, _ = run(
        capsys, ["xyz", "--n", "5", "--x", "all", "--y", "all", "--z", "{1}"]
    )
    record = json.loads(out)
    assert code == EXIT_OK
    assert (record["command"], record["method"]) == ("xyz", "rook")


def test_usage_exit_leaves_the_next_call_whole(capsys):
    code, out, _ = run(capsys, ["poly", "--n", "5", "--x", "all"])
    assert (code, out) == (EXIT_USAGE, "")
    code, out, _ = run(capsys, POLY_ARGV)
    record = json.loads(out)
    assert code == EXIT_OK
    assert record["inputs"] == {"n": 5, "x": "{2,3,5}", "y": "{1,3,4}", "z": "all"}
    assert record["result"] == {
        "coefficients": {"0": "24", "1": "72", "2": "24"}
    }


def _record(result):
    return {"command": "poly", "inputs": {"n": 3}, "method": "recursion",
            "result": result, "elapsed_ms": 0.5}


def _emitted(capsys, record, fmt):
    _emit(record, fmt)
    return capsys.readouterr().out


def test_unsorted_payloads_print_the_sorted_bytes(capsys):
    rng = random.Random(5)
    exponents = list(range(12))
    rng.shuffle(exponents)
    poly = IntPolynomial({e: 10**e + 1 for e in exponents})
    assert list(poly.items()) != sorted(poly.items())
    q_keys = [(eq, ex) for eq in range(12) for ex in (0, 2, 11)]
    rng.shuffle(q_keys)
    cases = [
        ({"coefficients": _poly_payload(poly)},
         {"coefficients": {str(e): str(c) for e, c in sorted(poly.items())}}),
        ({"coefficients_q_x": {f"{eq},{ex}": str(eq + ex) for eq, ex in q_keys}},
         {"coefficients_q_x": {f"{eq},{ex}": str(eq + ex) for eq, ex in sorted(q_keys)}}),
    ]
    for unsorted, presorted in cases:
        for fmt in ("json", "text"):
            assert _emitted(capsys, _record(unsorted), fmt) == _emitted(
                capsys, _record(presorted), fmt
            )


def test_stdout_is_already_canonical_json(capsys):
    for argv in (
        ["q-poly", "--n", "8", "--x", "mod:2:0"],
        NINE_ARGV + ["--method", "recursion"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

"""The route table of the polynomial commands `poly`, `xyz` and `word-poly`.

Every (command, method) pair gives the brute-force coefficients and names
itself in the record, only the methods that `xyz` offers take --z, the
parser's choices are pinned, and the README's table is the one in cli.py.
"""

import argparse
import json
from pathlib import Path

import pytest

from descentpoly.cli import EXIT_OK, EXIT_USAGE, POLY_COMMANDS, build_parser, main
from descentpoly.sets import parse_set
from descentpoly.stats import DescentQuery, brute_poly
from descentpoly.words import word_brute_poly

X, Y, Z = "{2,3,5,6}", "{1,2,4}", "{1,3}"
# a half-line in a union, odd bottoms, and a half-line of differences
X8, Y8, Z8 = "geq:5|{2}", "mod:2:1", "geq:2"
PINNED = {
    "poly": (("brute", "recursion", "formula1", "formula2", "rook"), "recursion"),
    "xyz": (("brute", "rook"), "rook"),
    "word-poly": (("brute", "formula1", "formula2"), "formula1"),
}
Z_METHODS = ("brute", "rook")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def _payload(poly):
    return {str(e): str(c) for e, c in poly.items()}


def _subparser(name) -> argparse.ArgumentParser:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def test_choices_and_defaults_are_pinned():
    assert list(POLY_COMMANDS) == list(PINNED)
    assert POLY_COMMANDS["xyz"].methods == Z_METHODS
    for name, (choices, default) in PINNED.items():
        method = next(a for a in _subparser(name)._actions if a.dest == "method")
        assert (tuple(method.choices), method.default) == (choices, default), name
        assert (POLY_COMMANDS[name].methods, POLY_COMMANDS[name].default) == PINNED[name]


@pytest.mark.parametrize(
    "command, method", [(c, m) for c in ("poly", "xyz") for m in PINNED[c][0]]
)
def test_each_method_gives_the_brute_force_coefficients(capsys, command, method):
    for n, x, y, z in ((6, X, Y, Z), (8, X8, Y8, Z8)):
        cases = [((), DescentQuery(parse_set(x), parse_set(y)))]
        if method in Z_METHODS:
            cases.append((("--z", z), DescentQuery(parse_set(x), parse_set(y), parse_set(z))))
        for z_argv, query in cases:
            record = run_json(
                capsys, command, "--n", str(n), "--x", x, "--y", y, *z_argv,
                "--method", method,
            )
            assert record["result"]["coefficients"] == _payload(brute_poly(n, query))
            assert (record["command"], record["method"]) == (command, method)


@pytest.mark.parametrize("method", ["recursion", "formula1", "formula2"])
def test_poly_methods_xyz_lacks_reject_z(capsys, method):
    assert method not in POLY_COMMANDS["xyz"].methods
    code, out, err = run(
        capsys, "poly", "--n", "6", "--x", X, "--y", Y, "--z", "{1}", "--method", method
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert f"method {method} does not support --z" in err


def test_xyz_has_no_recursion(capsys):
    code, out, err = run(capsys, "xyz", "--n", "6", "--x", X, "--y", Y,
                         "--method", "recursion")
    assert (code, out) == (EXIT_USAGE, "")
    assert "invalid choice: 'recursion'" in err


@pytest.mark.parametrize("method", PINNED["word-poly"][0])
@pytest.mark.parametrize("x, y", [("all", "all"), ("{1,3}", "{1,2}"), ("{3}", "mod:2:1")])
def test_word_methods_match_the_word_walk_with_a_zero_part(capsys, method, x, y):
    rho = (2, 0, 1)
    record = run_json(capsys, "word-poly", "--rho", "2,0,1", "--x", x, "--y", y,
                      "--method", method)
    expected = word_brute_poly(rho, parse_set(x), parse_set(y))
    assert record["result"]["coefficients"] == _payload(expected)
    assert (record["inputs"]["rho"], record["method"]) == ([2, 0, 1], method)


def _readme_table() -> dict:
    """The README's route table: command -> (class, methods, default, --z methods)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = readme.split("## Command line", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| command | class |"))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        names = [
            tuple(p.strip().strip("`") for p in c.split(",")) if c.startswith("`") else ()
            for c in cells
        ]
        (command,), klass, methods, default, z_methods = names
        rows[command] = (klass, methods, default, z_methods)
    return rows


def test_readme_table_is_the_route_table():
    rows = _readme_table()
    assert list(rows) == list(POLY_COMMANDS)
    for name, command in POLY_COMMANDS.items():
        dests = {a.dest for a in _subparser(name)._actions}
        takes_z = "z" in dests
        expected_z = tuple(m for m in command.methods if m in POLY_COMMANDS["xyz"].methods)
        assert rows[name] == (
            ("--rho",) if "rho" in dests else ("--n",),
            command.methods,
            (command.default,),
            expected_z if takes_z else (),
        ), name

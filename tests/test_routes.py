"""Which library functions a served route enters that no `verify` sweep does.

`verify.run_suite(k, 4)` runs for each suite k that compares routes
(formulas, words, configs, rook), and each (command, method) of
POLY_COMMANDS runs its `routes.ROUTES` row once on a small query: n = 6
for `poly`, the non-Ferrers difference set {1,3} for `xyz`, ρ = (2,1,2)
for `word-poly`.  Each runs under a `sys.settrace` hook that only records
the code objects called, with the package's cached functions emptied
first; names are resolved afterwards, to the top-level function or method
of `src/descentpoly` whose lines hold each code object (`routes` itself
does not count).  What a row enters and no sweep does must be
exactly UNCHECKED, one reason per function.

The granularity is one function: a function that some sweep enters counts
as checked whichever of its branches the row takes, so `xyz brute` reads
clean although no sweep draws a difference set.  A sweep that compares one
of these routes shrinks UNCHECKED; nothing may grow it without a reason.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import descentpoly
from descentpoly import verify
from descentpoly.cli import POLY_COMMANDS
from descentpoly.routes import ROUTES
from descentpoly.sets import explicit_set
from descentpoly.stats import DEFAULT_BRUTE_CAP, DescentQuery

PACKAGE = Path(descentpoly.__file__).parent
SUITES = ("formulas", "words", "configs", "rook")
TOPS, BOTTOMS = explicit_set([2, 3, 5, 6]), explicit_set([1, 2, 4])
# (n, rho, query) per command: n is None for a word class
INPUTS = {
    "poly": (6, (1,) * 6, DescentQuery(TOPS, BOTTOMS)),
    "xyz": (6, (1,) * 6, DescentQuery(TOPS, BOTTOMS, explicit_set([1, 3]))),
    "word-poly": (None, (2, 1, 2), DescentQuery(TOPS, BOTTOMS)),
}

UNCHECKED = {
    ("poly", "recursion"): {
        "stats.recursion_bivar": "the insertion recursion, poly's default, is in no sweep",
        **dict.fromkeys(
            [f"polynomials.BivarPolynomial.{name}"
             for name in ["specialize_second", "_specialize", "_smallest"]],
            "set y = 1 in the recursion's two-variable answer",
        ),
    },
    ("xyz", "rook"): {
        "rook.rook_route": "no sweep draws a difference set for the rook route",
        "rook.rook_numbers": "the frontier DP of a non-Ferrers board is in no sweep",
    },
    ("word-poly", "brute"): {
        "words.word_brute_poly": "the word sweep walks its classes with "
                                 "enumerate_rearrangements, not the blocked walk",
    },
}


def _top_level_spans():
    """filename -> [(first line, last line, qualified name)] of each function
    at module level or in a module-level class, decorators included."""
    spans = {}
    for path in PACKAGE.glob("*.py"):
        rows = spans[str(path)] = []
        for node in ast.parse(path.read_text()).body:
            owner, members = "", [node]
            if isinstance(node, ast.ClassDef):
                owner, members = node.name + ".", node.body
            for fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    rows.append((first, fn.end_lineno, f"{path.stem}.{owner}{fn.name}"))
    return spans


def _clear_caches():
    for info in pkgutil.iter_modules(descentpoly.__path__):
        module = importlib.import_module(f"descentpoly.{info.name}")
        for value in vars(module).values():
            getattr(value, "cache_clear", lambda: None)()


def _traced(call, spans) -> set:
    """The package's top-level functions that call() enters, but those of
    routes."""
    codes = set()

    def hook(frame, event, arg):
        codes.add(frame.f_code)

    _clear_caches()
    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        call()
    finally:
        sys.settrace(previous)
    names = set()
    for code in codes:
        for first, last, name in spans.get(code.co_filename, ()):
            if first <= code.co_firstlineno <= last and not name.startswith("routes."):
                names.add(name)
    return names


@pytest.fixture(scope="module")
def entered():
    """(the functions the sweeps enter, {(command, method): functions})."""
    spans = _top_level_spans()
    checked = set()
    for suite in SUITES:
        checked |= _traced(lambda: verify.run_suite(suite, 4), spans)
    rows = {}
    for command, spec in POLY_COMMANDS.items():
        n, rho, query = INPUTS[command]
        for method in spec.methods:
            run = ROUTES[method].run
            rows[command, method] = _traced(
                lambda: run(n, rho, query, DEFAULT_BRUTE_CAP), spans)
    return checked, rows


def test_unchecked_functions_are_the_pinned_gaps(entered):
    checked, rows = entered
    gaps = {row: names - checked for row, names in rows.items() if names - checked}
    assert gaps == {row: set(reasons) for row, reasons in UNCHECKED.items()}
    assert all(reason for reasons in UNCHECKED.values() for reason in reasons.values())


def test_the_xyz_query_takes_the_frontier_path():
    n, rho, query = INPUTS["xyz"]
    _, facts = ROUTES["rook"].run(n, rho, query, DEFAULT_BRUTE_CAP)
    assert facts["rook_path"] == "frontier"

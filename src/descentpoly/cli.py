"""Command-line interface.

Every subcommand emits an OutputRecord, as JSON (default) or as aligned
text; both formats carry the same payload.  Polynomial coefficients are
serialized as decimal strings so arbitrary-precision values survive any
JSON parser.  Python's limit on the digits of an int printed as a string
(4,300 by default) is lifted while a command runs and prints, and restored
when `main` returns; argument parsing keeps it.

Exit codes: 0 success, 1 verification failure, 2 usage error or invalid
input, 3 cap exceeded.  Any other exception is an internal error and is
not caught.  Only `verify` and the brute force of `poly`, `xyz` and
`word-poly` load numpy; `verify` and `hypergeom` are imported inside the
commands that run their sweeps.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from math import factorial
from typing import NamedTuple

from . import configurations, rook, stats, words
from .perms import InputError, VerificationError, check_permutation
from .perms import format_permutation, parse_int, parse_permutation
from .polynomials import IntPolynomial
from .sets import ALL, parse_set
from .stats import CapExceededError, DescentQuery

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _poly_payload(poly: IntPolynomial) -> dict:
    return {str(e): str(c) for e, c in poly.items()}


def _emit(record: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
        return
    print(f"command: {record['command']}")
    for key, value in record["inputs"].items():
        print(f"  {key}: {value}")
    print(f"method: {record['method']}")
    _emit_text_value(record["result"], indent="  ")
    print(f"elapsed_ms: {record['elapsed_ms']}")


def _emit_text_value(value, indent=""):
    """A result dict, keys sorted; each list in it prints on one line, an
    empty one as `[]` and an empty string in one as `""`, as in the JSON
    record."""
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            inner = value[key]
            if isinstance(inner, (dict, list)):
                print(f"{indent}{key}:")
                _emit_text_value(inner, indent + "  ")
            else:
                print(f"{indent}{key}: {inner}")
    else:
        print(indent + (" ".join(str(v) or '""' for v in value) if value else "[]"))


def _query(args, inputs: dict) -> DescentQuery:
    """The query of --x/--y, and of --z where the command has it, with its inputs."""
    tops = parse_set(args.x)
    bottoms = parse_set(args.y)
    inputs.update(x=str(tops), y=str(bottoms))
    diffs = ALL
    if "z" in args:
        diffs = ALL if args.z is None else parse_set(args.z)
        inputs["z"] = str(diffs)
    return DescentQuery(tops, bottoms, diffs)


class PolyCommand(NamedTuple):
    help: str
    methods: tuple  # the --method choices, in the order --help lists them
    default: str


# The polynomial commands.  S_n is the word class 1ⁿ, so one handler serves
# all three; only the methods that `xyz` offers take a difference set.
POLY_COMMANDS = {
    "poly": PolyCommand("descent polynomial of S_n",
                        ("brute", "recursion", "formula1", "formula2", "rook"), "recursion"),
    "xyz": PolyCommand("alias for poly with a difference set", ("brute", "rook"), "rook"),
    "word-poly": PolyCommand("descent polynomial of a word class",
                             ("brute", "formula1", "formula2"), "formula1"),
}


# Each cmd_* writes its inputs into `inputs` before it computes, so that a
# failure record carries them, and returns its result; `main` builds the
# record.


def cmd_poly(args, inputs: dict) -> dict:
    """poly, xyz and word-poly on the class ρ, which is 1ⁿ for --n.  The
    record names the subcommand that ran; rook adds the rook path it took."""
    if "rho" in args:
        rho = tuple(parse_int(t, f"composition {args.rho!r}") for t in args.rho.split(","))
        inputs["rho"] = list(rho)
    else:
        rho = (1,) * args.n
        inputs["n"] = args.n
    query = _query(args, inputs)
    method = args.method
    if query.diffs is not ALL and method not in POLY_COMMANDS["xyz"].methods:
        raise InputError(f"method {method} does not support --z")
    route = {}
    if method in ("formula1", "formula2"):
        form = words.word_form(rho, query.tops, query.bottoms, method == "formula2")
        poly = form.polynomial()
    elif method == "recursion":
        poly = stats.recursion_bivar(args.n, query.tops, query.bottoms).specialize_second(1)
    elif method == "rook":
        poly, route = rook.hits_with_route(args.n, query)
    elif "rho" in args:
        # at most min(k!, 10⁶) words; k is clipped first, since 10! > 10⁶
        limit = min(factorial(min(args.max_brute, 10)), words.DEFAULT_WORD_CAP)
        poly = words.word_brute_poly(rho, query.tops, query.bottoms, limit)
    else:
        poly = stats.brute_poly(args.n, query, limit=args.max_brute)
    return {"coefficients": _poly_payload(poly), **route}


def cmd_board(args, inputs: dict) -> dict:
    inputs["n"] = args.n
    board = rook.board_from_query(args.n, _query(args, inputs))
    try:
        heights, structure = rook.height_structure(board)
        canonical_x = str(rook.canonical_distinct_rows(board)[1])
    except rook.NotFerrersError:
        heights = structure = canonical_x = None
    return {
        "n": board.n,
        "cells": sorted([i, j] for i, j in board.cells),
        "grid": board.ascii_grid().split("\n"),
        "heights": heights,
        "structure": structure,
        "canonical_x": canonical_x,
    }


def cmd_foata(args, inputs: dict) -> dict:
    perm = parse_permutation(args.perm)
    inputs.update(perm=format_permutation(perm), inverse=bool(args.inverse))
    image = rook.foata_inverse(perm) if args.inverse else rook.foata(perm)
    return {"image": format_permutation(image)}


def cmd_configs(args, inputs: dict) -> dict:
    tops = parse_set(args.x)
    bottoms = parse_set(args.y)
    flavor = configurations.Flavor(args.flavor)
    inputs.update(n=args.n, s=args.s, r=args.r, x=str(tops), y=str(bottoms),
                  flavor=flavor.value)
    configs = configurations.enumerate_configs(
        flavor, args.s, args.r, tops, bottoms, n=args.n
    )
    staged = configurations.staged_count(flavor, args.s, args.r, tops, bottoms, n=args.n)
    result = {
        "count": len(configs),
        "staged_count": staged,
        "configurations": [str(c) for c in configs] if args.list else None,
    }
    if args.trace is not None:
        c = configurations.config_from_str(args.trace, flavor, tops, bottoms)
        if len(c.sequence) != args.n:
            raise InputError(f"trace {args.trace!r} is not on the letters 1..{args.n}")
        check_permutation(c.sequence)
        result["trace"] = {"input": str(c), "image": str(configurations.involution(c))}
    return result


def cmd_qpoly(args, inputs: dict) -> dict:
    tops = parse_set(args.x)
    inputs.update(n=args.n, x=str(tops))
    payload = {
        f"{eq},{s}": str(v)
        for s, p in enumerate(stats._q_lists(args.n, tops))
        for eq, v in enumerate(p)
        if v
    }
    return {"coefficients_q_x": payload}


def cmd_hypergeom(args, inputs: dict) -> dict:
    from . import hypergeom

    inputs.update(suite=args.suite, max=args.max)
    if args.suite == "balanced":
        return {"cases_checked": hypergeom.sweep_balanced()}
    sweep = hypergeom.sweep_pfaff if args.suite == "pfaff" else hypergeom.sweep_cor35
    return {"cases_checked": sweep(args.max)}


def cmd_verify(args, inputs: dict) -> dict:
    from . import verify

    inputs.update(suite=args.suite, max_n=args.max_n)
    counts = verify.run_suite(args.suite, args.max_n, seed=args.seed)
    return {"cases_checked": counts}


def _size(text: str) -> int:
    """argparse type for --n, --s, --r, --max, --max-n and --max-brute: an
    integer >= 0.  argparse names the option before the message."""
    try:
        size = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if size < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {size}")
    return size


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="descentpoly",
        description="Exact descent-pair-counting polynomials for permutations "
        "and words, with cross-verified formulas.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument(
        "--max-brute", type=_size, default=stats.DEFAULT_BRUTE_CAP, metavar="K",
        help="brute force walks at most K! sequences: S_n for n <= K, and a word "
        "class of at most min(K!, 10^6) words (default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_sets(p, with_z=False):
        p.add_argument("--x", required=True, help="tops set")
        p.add_argument("--y", required=True, help="bottoms set")
        if with_z:
            p.add_argument("--z", default=None, help="difference set")

    for name, command in POLY_COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name == "word-poly":
            p.add_argument("--rho", required=True, help="composition, e.g. 2,3,1")
        else:
            p.add_argument("--n", type=_size, required=True)
        add_sets(p, with_z=name != "word-poly")
        p.add_argument("--method", choices=command.methods, default=command.default)
        p.set_defaults(func=cmd_poly)

    p = sub.add_parser("board", help="descent board, heights, structure")
    p.add_argument("--n", type=_size, required=True)
    add_sets(p, with_z=True)
    p.set_defaults(func=cmd_board, method="direct")

    p = sub.add_parser("foata", help="cycle-rewriting bijection")
    p.add_argument("--perm", required=True)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=cmd_foata, method="cycle-rewriting")

    p = sub.add_parser("configs", help="signed configurations and involution")
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--s", type=_size, required=True)
    p.add_argument("--r", type=_size, required=True)
    add_sets(p)
    p.add_argument("--flavor", choices=("standard", "overline"), default="standard")
    p.add_argument("--list", action="store_true")
    p.add_argument("--trace", default=None, help="configuration string to map")
    p.set_defaults(func=cmd_configs, method="enumeration")

    p = sub.add_parser("q-poly", help="q-refined descent polynomial")
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--x", required=True)
    p.set_defaults(func=cmd_qpoly, method="recursion")

    p = sub.add_parser("hypergeom", help="hypergeometric identity suites")
    p.add_argument("--suite", choices=("pfaff", "balanced", "cor35"), default="pfaff")
    p.add_argument("--max", type=_size, default=5, metavar="M",
                   help="pfaff: a, b in [-M, 0], n <= M, c in [-2M, M]; "
                        "cor35: k, m <= M; balanced: not read (fixed profiles)")
    p.set_defaults(func=cmd_hypergeom, method="exact")

    p = sub.add_parser("verify", help="cross-check sweeps")
    p.add_argument(
        "--suite",
        choices=("formulas", "configs", "words", "rook", "foata", "hypergeom", "all"),
        default="all",
    )
    p.add_argument("--max-n", type=_size, default=4)
    p.set_defaults(func=cmd_verify, method="sweep")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        sys.set_int_max_str_digits(digits)


def _run(args) -> int:
    """Run the parsed command and print its record, or its error."""
    t0 = time.monotonic()
    inputs: dict = {}
    code = EXIT_OK
    try:
        result = args.func(args, inputs)
    except VerificationError as err:
        result = {"failure": err.payload, "message": str(err)}
        code = EXIT_VERIFY_FAILED
    except InputError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as err:
        print(f"cap exceeded: {err}", file=sys.stderr)
        return EXIT_CAP
    record = {
        "command": args.subcommand,
        "inputs": inputs,
        "result": result,
        "method": args.method,
        "elapsed_ms": round((time.monotonic() - t0) * 1000, 3),
    }
    _emit(record, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())

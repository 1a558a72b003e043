"""Command-line interface.

Every subcommand emits an OutputRecord, as JSON (default) or as aligned
text; both formats carry the same payload.  Polynomial coefficients are
serialized as decimal strings so arbitrary-precision values survive any
JSON parser.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import closed_forms, configurations, hypergeom, rook, stats, verify, words
from .perms import check_size, format_permutation, parse_permutation
from .polynomials import IntPolynomial
from .sets import ALL, parse_set
from .stats import CapExceededError, DescentQuery

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class UsageError(Exception):
    pass


def _poly_payload(poly: IntPolynomial) -> dict:
    return {str(e): str(c) for e, c in sorted(poly.items())}


def _record(command: str, inputs: dict, result: dict, method: str, t0: float) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "method": method,
        "elapsed_ms": round((time.monotonic() - t0) * 1000, 3),
    }


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
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            inner = value[key]
            if isinstance(inner, (dict, list)):
                print(f"{indent}{key}:")
                _emit_text_value(inner, indent + "  ")
            else:
                print(f"{indent}{key}: {inner}")
    elif isinstance(value, list):
        print(indent + " ".join(str(v) for v in value))
    else:
        print(f"{indent}{value}")


def _poly_by_method(args, query: DescentQuery, limit: int) -> tuple[IntPolynomial, dict]:
    """The polynomial, and for --method rook the rook path it took."""
    method = args.method
    has_z = not isinstance(query.diffs, type(ALL))
    if method in ("recursion", "formula1", "formula2") and has_z:
        raise UsageError(f"method {method} does not support --z")
    if method == "brute":
        return stats.brute_poly(args.n, query, limit=limit), {}
    if method == "recursion":
        bivar = stats.recursion_bivar(args.n, query.tops, query.bottoms)
        return bivar.specialize_second(1), {}
    if method in ("formula1", "formula2"):
        form = closed_forms.permutation_form(
            args.n, query.tops, query.bottoms, second=method == "formula2"
        )
        return form.polynomial(), {}
    if method == "rook":
        return rook.hits_with_route(args.n, query)
    raise UsageError(f"unknown method {method!r}")


def cmd_poly(args) -> int:
    """poly and xyz: the record names the subcommand that ran."""
    t0 = time.monotonic()
    tops = parse_set(args.x)
    bottoms = parse_set(args.y)
    diffs = parse_set(args.z) if args.z else ALL
    query = DescentQuery(tops, bottoms, diffs)
    poly, route = _poly_by_method(args, query, args.max_brute)
    inputs = {"n": args.n, "x": str(tops), "y": str(bottoms), "z": str(diffs)}
    result = {"coefficients": _poly_payload(poly), **route}
    record = _record(args.subcommand, inputs, result, args.method, t0)
    _emit(record, args.format)
    return EXIT_OK


def cmd_word_poly(args) -> int:
    t0 = time.monotonic()
    rho = tuple(int(tok) for tok in args.rho.split(","))
    tops = parse_set(args.x)
    bottoms = parse_set(args.y)
    if args.method == "brute":
        poly = words.word_brute_poly(rho, tops, bottoms)
    else:
        second = args.method == "formula2"
        poly = words.word_form(rho, tops, bottoms, second).polynomial()
    inputs = {"rho": list(rho), "x": str(tops), "y": str(bottoms)}
    record = _record(
        "word-poly", inputs, {"coefficients": _poly_payload(poly)}, args.method, t0
    )
    _emit(record, args.format)
    return EXIT_OK


def cmd_board(args) -> int:
    t0 = time.monotonic()
    tops = parse_set(args.x)
    bottoms = parse_set(args.y)
    diffs = parse_set(args.z) if args.z else ALL
    board = rook.board_from_query(args.n, DescentQuery(tops, bottoms, diffs))
    result: dict = {
        "n": board.n,
        "cells": sorted([i, j] for i, j in board.cells),
        "grid": board.ascii_grid().split("\n"),
    }
    try:
        heights, structure = rook.height_structure(board)
        _, canon_tops = rook.canonical_distinct_rows(board)
        result["heights"] = heights
        result["structure"] = structure
        result["canonical_x"] = str(canon_tops)
    except rook.NotFerrersError:
        result["heights"] = None
        result["structure"] = None
        result["canonical_x"] = None
    record = _record(
        "board",
        {"n": args.n, "x": str(tops), "y": str(bottoms), "z": str(diffs)},
        result,
        "direct",
        t0,
    )
    _emit(record, args.format)
    return EXIT_OK


def cmd_foata(args) -> int:
    t0 = time.monotonic()
    perm = parse_permutation(args.perm)
    image = rook.foata_inverse(perm) if args.inverse else rook.foata(perm)
    record = _record(
        "foata",
        {"perm": format_permutation(perm), "inverse": bool(args.inverse)},
        {"image": format_permutation(image)},
        "cycle-rewriting",
        t0,
    )
    _emit(record, args.format)
    return EXIT_OK


def cmd_configs(args) -> int:
    t0 = time.monotonic()
    tops = parse_set(args.x)
    bottoms = parse_set(args.y)
    flavor = configurations.Flavor(args.flavor)
    configs = configurations.enumerate_configs(
        flavor, args.s, args.r, tops, bottoms, n=args.n
    )
    staged = configurations.staged_count(flavor, args.s, args.r, tops, bottoms, n=args.n)
    result = {
        "count": len(configs),
        "staged_count": staged,
        "configurations": [str(c) for c in configs] if args.list else None,
    }
    if args.trace:
        c = configurations.config_from_str(args.trace, flavor, tops, bottoms)
        result["trace"] = {"input": str(c), "image": str(configurations.involution(c))}
    record = _record(
        "configs",
        {
            "n": args.n,
            "s": args.s,
            "r": args.r,
            "x": str(tops),
            "y": str(bottoms),
            "flavor": flavor.value,
        },
        result,
        "enumeration",
        t0,
    )
    _emit(record, args.format)
    return EXIT_OK


def cmd_qpoly(args) -> int:
    t0 = time.monotonic()
    tops = parse_set(args.x)
    poly = stats.q_recursion(args.n, tops)
    payload = {
        f"{eq},{ex}": str(c) for (eq, ex), c in sorted(poly.items())
    }
    record = _record(
        "q-poly",
        {"n": args.n, "x": str(tops)},
        {"coefficients_q_x": payload},
        "recursion",
        t0,
    )
    _emit(record, args.format)
    return EXIT_OK


def cmd_hypergeom(args) -> int:
    t0 = time.monotonic()
    try:
        if args.suite == "pfaff":
            checked = 0
            for a in range(-args.max, 1):
                for b in range(-args.max, 1):
                    for n in range(args.max + 1):
                        for c in range(-2 * args.max, args.max + 1):
                            try:
                                lhs = hypergeom.pfaff_saalschutz_lhs(n, a, b, c)
                                rhs = hypergeom.pfaff_saalschutz_rhs(n, a, b, c)
                            except hypergeom.IllPosedSeriesError:
                                continue
                            if lhs != rhs:
                                raise verify.VerificationError(
                                    "summation formula fails",
                                    {"n": n, "a": a, "b": b, "c": c},
                                )
                            checked += 1
        elif args.suite == "cor35":
            checked = 0
            for k in range(1, args.max + 1):
                for m in range(1, args.max + 1):
                    for s in range(k * m + 1):
                        left, right, count = hypergeom.verify_cor35(k, m, s)
                        if not (left == right == count):
                            raise verify.VerificationError(
                                "mod-(k+1) identity fails",
                                {"k": k, "m": m, "s": s},
                            )
                        checked += 1
        else:
            checked = verify.sweep_hypergeom(args.max)
    except verify.VerificationError as err:
        _emit(
            _record("hypergeom", {"suite": args.suite}, {"failure": err.payload},
                    "exact", t0),
            args.format,
        )
        return EXIT_VERIFY_FAILED
    record = _record(
        "hypergeom", {"suite": args.suite, "max": args.max},
        {"cases_checked": checked}, "exact", t0
    )
    _emit(record, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    try:
        counts = verify.run_suite(args.suite, args.max_n, seed=args.seed)
    except verify.VerificationError as err:
        record = _record(
            "verify",
            {"suite": args.suite, "max_n": args.max_n},
            {"failure": err.payload, "message": str(err)},
            "sweep",
            t0,
        )
        _emit(record, args.format)
        return EXIT_VERIFY_FAILED
    record = _record(
        "verify",
        {"suite": args.suite, "max_n": args.max_n},
        {"cases_checked": counts},
        "sweep",
        t0,
    )
    _emit(record, args.format)
    return EXIT_OK


def _size(text: str) -> int:
    """argparse type for --n: a non-negative integer."""
    try:
        return check_size(int(text))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descentpoly",
        description="Exact descent-pair-counting polynomials for permutations "
        "and words, with cross-verified formulas.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--max-brute", type=int, default=stats.DEFAULT_BRUTE_CAP)
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_sets(p, with_z=False):
        p.add_argument("--x", required=True, help="tops set")
        p.add_argument("--y", required=True, help="bottoms set")
        if with_z:
            p.add_argument("--z", default=None, help="difference set")

    p = sub.add_parser("poly", help="descent polynomial of S_n")
    p.add_argument("--n", type=_size, required=True)
    add_sets(p, with_z=True)
    p.add_argument(
        "--method",
        choices=("brute", "recursion", "formula1", "formula2", "rook"),
        default="recursion",
    )
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("xyz", help="alias for poly with a difference set")
    p.add_argument("--n", type=_size, required=True)
    add_sets(p, with_z=True)
    p.add_argument("--method", choices=("brute", "rook"), default="rook")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("word-poly", help="descent polynomial of a word class")
    p.add_argument("--rho", required=True, help="composition, e.g. 2,3,1")
    add_sets(p)
    p.add_argument(
        "--method", choices=("brute", "formula1", "formula2"), default="formula1"
    )
    p.set_defaults(func=cmd_word_poly)

    p = sub.add_parser("board", help="descent board, heights, structure")
    p.add_argument("--n", type=_size, required=True)
    add_sets(p, with_z=True)
    p.set_defaults(func=cmd_board)

    p = sub.add_parser("foata", help="cycle-rewriting bijection")
    p.add_argument("--perm", required=True)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=cmd_foata)

    p = sub.add_parser("configs", help="signed configurations and involution")
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    add_sets(p)
    p.add_argument("--flavor", choices=("standard", "overline"), default="standard")
    p.add_argument("--list", action="store_true")
    p.add_argument("--trace", default=None, help="configuration string to map")
    p.set_defaults(func=cmd_configs)

    p = sub.add_parser("q-poly", help="q-refined descent polynomial")
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--x", required=True)
    p.set_defaults(func=cmd_qpoly)

    p = sub.add_parser("hypergeom", help="hypergeometric identity suites")
    p.add_argument("--suite", choices=("pfaff", "balanced", "cor35"), default="pfaff")
    p.add_argument("--max", type=int, default=5)
    p.set_defaults(func=cmd_hypergeom)

    p = sub.add_parser("verify", help="cross-check sweeps")
    p.add_argument(
        "--suite",
        choices=("formulas", "configs", "words", "rook", "foata", "hypergeom", "all"),
        default="all",
    )
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as err:
        print(f"cap exceeded: {err}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

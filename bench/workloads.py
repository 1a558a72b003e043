"""The three workloads: inputs drawn from a seed, the timed calls, the checks.

A workload is a fixed list of operations, one round.  Each operation is one
call through a public entry point of descentpoly (``cli.main`` with argv,
or ``configurations.enumerate_configs`` and ``configurations.involution``),
followed by a check against answers from ``reference``, which never reads
package output.  References are computed on first use, so building the
operations is only drawing the inputs.  ``items`` is the number of checked
outputs an operation yields, taken from its reference.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import Callable

import reference as ref
from reference import expect


class Failure(Exception):
    """The package refused or reported a failed verification."""

    def __init__(self, what: str, payload: dict):
        super().__init__(what)
        self.payload = {"check": what, **payload}


@dataclass
class Op:
    family: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    items: Callable[[], int] = lambda: 1
    board_n: int = 0  # board size of an xyz query, for the permanent's masks


# --- sets as the CLI spells them, with the benchmark's own membership ---------


@dataclass(frozen=True)
class Residues:
    modulus: int
    residues: tuple

    def __contains__(self, z):
        return z >= 1 and z % self.modulus in self.residues

    def __str__(self):
        return f"mod:{self.modulus}:" + ",".join(map(str, sorted(self.residues)))


@dataclass(frozen=True)
class Members:
    members: frozenset

    def __contains__(self, z):
        return z in self.members

    def __str__(self):
        return "{" + ",".join(map(str, sorted(self.members))) + "}"


class Everything:
    def __contains__(self, z):
        return z >= 1

    def __str__(self):
        return "all"


ALL = Everything()


def matcher(x, y, z=ALL):
    return lambda a, b: a > b and a in x and b in y and (a - b) in z


def random_members(rng, universe, size):
    return Members(frozenset(rng.sample(list(universe), size)))


# --- calling the CLI ----------------------------------------------------------


def cli_call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_result(output, argv):
    code, out, err = output
    if code != 0:
        raise Failure("nonzero exit code", {
            "argv": argv, "exit_code": code,
            "stderr": err[-500:], "stdout": out[-2000:],
        })
    return json.loads(out)["result"]


def coefficient_list(payload: dict) -> list[int]:
    coeffs = [0] * (max(map(int, payload), default=0) + 1)
    for e, c in payload.items():
        coeffs[int(e)] = int(c)
    return ref.trim(coeffs)


def cli_op(main, family, argv, check, **kw):
    argv = list(argv)

    def checked(output):
        observed = check(cli_result(output, argv)) or {}
        return {"output_bytes": len(output[1]), **observed}

    return Op(family, " ".join(argv), lambda: cli_call(main, argv), checked, **kw)


def off_by_one(reference):
    """A reference made wrong on purpose: its first number plus one."""
    def wrong():
        value = reference()
        if isinstance(value, int):
            return value + 1
        head = value[0] + 1 if isinstance(value[0], int) else off_by_one(lambda: value[0])()
        return type(value)([head, *value[1:]])
    return cache(wrong)


def poly_check(expected=None, n=None, cells=None):
    """Compare coefficients with a lazy reference list and/or board moments."""
    def check(result):
        got = coefficient_list(result["coefficients"])
        if expected is not None:
            want = expected()
            expect(got == want, "coefficients equal the reference",
                   expected=[str(c) for c in want], got=[str(c) for c in got])
        if cells is not None:
            ref.check_moments(got, n, cells())
    return check


# --- frontier-queries -------------------------------------------------------

BIG_N = 200  # every Ferrers route answers the full polynomial in about 1 s
BRUTE_N = 9  # 9! = 362,880 permutations, about 1.5 s by brute force
DP_N = 12  # the general-board subset DP's cap
PERMANENT_N = 14  # the permanent's cap, about 2 s
Q_N = 40  # about 1 s and about 570 KB of JSON
# word classes as shuffled multisets of part sizes: the shuffle varies the
# input while the cost of each formula stays within about 10 %
WORD_PARTS = (3, 4, 5, 6, 7) * 4  # 100 letters
SMALL_WORD_PARTS = (2, 2, 2, 3)  # 7,560 words for the brute-force route
# residue pairs mod 4 on which the q-recursion costs the same within 10 %
Q_RESIDUES = ((0, 2), (0, 3), (1, 2), (1, 3))


def _non_ferrers_xyz(rng, n):
    """X, Y of size 2n/3 and Z of size 3 in [1, 6] whose board is not Ferrers."""
    while True:
        x = random_members(rng, range(2, n + 1), 2 * n // 3)
        y = random_members(rng, range(1, n), 2 * n // 3)
        z = random_members(rng, range(1, 7), 3)
        cells = ref.board(n, matcher(x, y, z))
        if cells and not ref.is_ferrers(cells):
            return x, y, z, cells


def _shuffled(rng, parts):
    parts = list(parts)
    rng.shuffle(parts)
    return tuple(parts)


def frontier_queries(pkg, seed, wrong=False):
    rng = random.Random(seed)
    main = pkg.cli.main
    ops = []

    def poly(family, n, x, y, methods, check, z=None, command="poly", **kw):
        for method in methods:
            argv = [command, "--n", str(n), "--x", str(x), "--y", str(y)]
            if z is not None:
                argv += ["--z", str(z)]
            ops.append(cli_op(main, family, argv + ["--method", method], check, **kw))

    # Ferrers boards at n = 200: a seeded pair of residue classes, the
    # Eulerian numbers and the even-tops product
    x = Residues(6, tuple(rng.sample(range(6), 3)))
    y = Residues(5, tuple(rng.sample(range(5), 2)))
    poly("poly", BIG_N, x, y, ("recursion", "formula1", "formula2", "rook"),
         poly_check(cache(lambda: ref.insertion_poly(
             BIG_N, x.__contains__, y.__contains__)),
             BIG_N, cache(lambda: ref.board(BIG_N, matcher(x, y)))))
    poly("poly", BIG_N, ALL, ALL, ("recursion", "rook"),
         poly_check(cache(lambda: ref.eulerian(BIG_N)),
                    BIG_N, cache(lambda: ref.board(BIG_N, matcher(ALL, ALL)))))
    poly("poly", BIG_N, Residues(2, (0,)), ALL, ("recursion", "rook"),
         poly_check(cache(lambda: ref.even_tops(BIG_N // 2))))
    # every route at the brute-force size, against the benchmark's own walk
    x9 = random_members(rng, range(2, BRUTE_N + 1), 5)
    y9 = random_members(rng, range(1, BRUTE_N), 5)
    poly("poly", BRUTE_N, x9, y9,
         ("brute", "recursion", "formula1", "formula2", "rook"),
         poly_check(cache(lambda: ref.brute_poly(BRUTE_N, matcher(x9, y9)))))

    # words: a long composition checked by its moments, a short one exactly
    wx = Residues(3, tuple(rng.sample(range(3), 2)))
    wy = Residues(2, (rng.randrange(2),))
    for rho, methods, walked in (
        (_shuffled(rng, WORD_PARTS), ("formula1", "formula2"), False),
        (_shuffled(rng, SMALL_WORD_PARTS), ("brute", "formula1", "formula2"), True),
    ):
        walk = cache(lambda rho=rho: ref.word_brute(rho, matcher(wx, wy)))

        def check(result, rho=rho, walk=walk, walked=walked):
            got = coefficient_list(result["coefficients"])
            ref.check_word_moments(got, rho, matcher(wx, wy))
            if walked:
                expect(got == walk(), "word coefficients equal the own walk",
                       expected=walk(), got=got)

        for method in methods:
            argv = ["word-poly", "--rho", ",".join(map(str, rho)),
                    "--x", str(wx), "--y", str(wy), "--method", method]
            ops.append(cli_op(main, "word-poly", argv, check))

    # difference sets: non-Ferrers boards on the subset DP, the permanent,
    # and at n = 9 brute force and the DP against the own hit-number walk
    for n in (DP_N, PERMANENT_N):
        zx, zy, zz, cells = _non_ferrers_xyz(rng, n)
        poly("xyz", n, zx, zy, ("rook",), poly_check(None, n, lambda c=cells: c),
             z=zz, command="xyz", board_n=n)
    zx, zy, zz, cells = _non_ferrers_xyz(rng, BRUTE_N)
    poly("xyz", BRUTE_N, zx, zy, ("brute", "rook"),
         poly_check(cache(lambda: ref.hit_walk(BRUTE_N, set(cells)))),
         z=zz, command="xyz", board_n=BRUTE_N)

    # q-refinement: x = 1 gives [n]_q!, q = 1 the X-descent polynomial
    qx = Residues(4, rng.choice(Q_RESIDUES))
    mahonian = cache(lambda: ref.mahonian(Q_N))
    if wrong:
        mahonian = off_by_one(mahonian)
    by_x = cache(lambda: ref.insertion_poly(Q_N, qx.__contains__, ALL.__contains__))

    def q_check(result):
        q_side, x_side = [0] * len(mahonian()), [0] * len(by_x())
        for key, c in result["coefficients_q_x"].items():
            eq, ex = map(int, key.split(","))
            c = int(c)
            expect(c > 0 and eq < len(q_side) and ex < len(x_side),
                   "q-coefficient in range", key=key)
            q_side[eq] += c
            x_side[ex] += c
        expect(q_side == mahonian(), "x = 1 gives [n]_q!")
        expect(x_side == by_x(), "q = 1 gives the descent polynomial")

    ops.append(cli_op(main, "q-poly", ["q-poly", "--n", str(Q_N), "--x", str(qx)],
                      q_check))
    return ops


# --- involution-sweep -------------------------------------------------------

# (n, |X|, |Y|) of the sampled pairs: fixed sizes keep the work per round
# close to the same for every seed; the members are drawn from the seed
INVOLUTION_PAIRS = (
    (2, 1, 1), (3, 1, 2), (3, 2, 2),
    (4, 1, 2), (4, 2, 1), (4, 2, 2), (4, 2, 3), (4, 3, 2), (4, 3, 3),
)


def involution_sweep(pkg, seed, wrong=False):
    """One operation per (pair, flavor, s, r), so one list is alive at a time;
    the last r of each (pair, flavor, s) checks the sums over r."""
    rng = random.Random(seed)
    conf = pkg.configurations
    ops = []
    for n, nx, ny in INVOLUTION_PAIRS:
        x = random_members(rng, range(1, n + 1), nx)
        y = random_members(rng, range(1, n + 1), ny)
        tops = pkg.sets.explicit_set(x.members)
        bottoms = pkg.sets.explicit_set(y.members)
        for flavor in conf.Flavor:
            for s in range(n + 2):
                expected = cache(lambda n=n, x=x, y=y, f=flavor.value, s=s:
                                 _sweep_reference(n, x, y, f, s))
                if wrong and not ops:
                    expected = off_by_one(expected)
                tally = {}
                for r in range(n + 2):
                    ops.append(Op(
                        "configs", f"n={n} x={x} y={y} {flavor.value} s={s} r={r}",
                        _sweep_call(conf, flavor, s, r, n, tops, bottoms),
                        _sweep_check(expected, r, r == n + 1, tally),
                        items=lambda e=expected, r=r: e()[0][r],
                    ))
    return ops


def _sweep_reference(n, x, y, flavor, s):
    """Configurations per r by stars and bars, and the descent count for s."""
    in_x, in_y = x.__contains__, y.__contains__
    required = [len(ref.required_plus_gaps(seq, flavor, in_x, in_y))
                for seq in permutations(range(1, n + 1))]
    counts = [sum(ref.layout_count(n, q, ref.minus_signs(flavor, n, in_x, s, r), r)
                  for q in required) for r in range(n + 2)]
    descents = ref.brute_poly(n, matcher(x, y))
    return counts, descents[s] if s < len(descents) else 0


def _sweep_call(conf, flavor, s, r, n, tops, bottoms):
    def run():
        configs = conf.enumerate_configs(flavor, s, r, tops, bottoms, n=n)
        images = [conf.involution(c) for c in configs]
        return configs, images, [conf.involution(c) for c in images]
    return run


def _sweep_check(expected, r, last, tally):
    def check(output):
        counts, descents = expected()
        if r == 0:
            tally.update(fixed=0, signed=0)
        configs, images, back = output
        expect(len(configs) == counts[r], "stars-and-bars count",
               r=r, expected=counts[r], got=len(configs))
        fixed = 0
        for c, image, again in zip(configs, images, back):
            expect(again == c, "involution is self-inverse", config=str(c))
            minus = c.items.count("-")
            if image is c or image == c:
                fixed += 1
            else:
                expect(abs(image.items.count("-") - minus) == 1,
                       "one sign flips off fixed points",
                       config=str(c), image=str(image))
            tally["signed"] += -1 if minus % 2 else 1
        tally["fixed"] += fixed
        if last:
            expect(tally["fixed"] == descents, "fixed points count the descents",
                   expected=descents, got=tally["fixed"])
            expect(tally["signed"] == descents, "signed sum counts the descents",
                   expected=descents, got=tally["signed"])
        return {"configs": len(configs), "fixed": fixed}
    return check


# --- exhaustive-sweeps ------------------------------------------------------

# sizes where one suite takes 0.5-1.7 s, so per-call overhead dominates.
# The rook suite draws each of its 100 sizes from the seed and its cost
# follows the number of largest ones, so it stays small (0.1 s) next to the
# foata suite, whose cost the seed does not change.
SWEEPS = (
    ("verify_formulas", "formulas", 6, ref.formula_cases),
    ("verify_words", "words", 5, ref.word_cases),
    ("verify_bridge", "rook", 6, lambda n: 100),
    ("verify_bridge", "foata", 7, lambda n: ref.foata_cases(n, 20)),
    ("verify_hypergeom", "hypergeom", 8, ref.hypergeom_cases),
)


def exhaustive_sweeps(pkg, seed, wrong=False):
    ops = []
    for family, suite, max_n, cases in SWEEPS:
        expected = cache(lambda cases=cases, max_n=max_n: cases(max_n))
        if wrong and not ops:
            expected = off_by_one(expected)

        def check(result, suite=suite, expected=expected):
            got = result["cases_checked"][suite]
            expect(got == expected(), "closed case count",
                   suite=suite, expected=expected(), got=got)
            return {"cases": got}

        argv = ["--seed", str(seed), "verify", "--suite", suite,
                "--max-n", str(max_n)]
        ops.append(cli_op(pkg.cli.main, family, argv, check, items=expected))
    return ops


WORKLOADS = {
    "frontier-queries": frontier_queries,
    "involution-sweep": involution_sweep,
    "exhaustive-sweeps": exhaustive_sweeps,
}

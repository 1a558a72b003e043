"""Cross-checking sweeps: every quantity computed at least two ways.

Each sweep raises VerificationError (with a machine-readable payload) on
the first disagreement and returns the number of cases checked otherwise.
The brute-force side of the big sweeps is vectorized with numpy: descent
pairs of each permutation (or word) are recorded once as a multiplicity
matrix, then each tops subset is one matrix product, a doubling over the
bottoms and one histogram away from the counts under every bottoms subset.
The configurations sweep compares the totals of the layout-by-layout
``configurations.check_involution`` with brute force.
The closed-form sweeps walk every class R(rho) one way, with
``words.enumerate_rearrangements``, S_n as rho = 1^n, so a class past its
cap of 10^6 sequences raises CapExceededError (from n = 10 for S_n).
The Foata sweep keeps S_n and its cycle rewritings as int8 rows, at most
FOATA_CHUNK at a time, and reads the bridge's excedence and descent counts
from per-query tables.
The closed-form sweeps build two ``ClosedForm`` tuples per (X, Y) pair and
key each class's coefficient lists by them.
The hypergeometric suite is ``hypergeom.sweep_hypergeom``, free of numpy.
"""

from __future__ import annotations

import random
from itertools import islice, permutations
from math import factorial

import numpy as np

from . import configurations, rook, stats, words
from .hypergeom import sweep_hypergeom
from .perms import InputError, VerificationError, check_size
from .sets import ALL, explicit_set
from .stats import DescentQuery

__all__ = [
    "VerificationError",
    "sweep_formulas",
    "sweep_configs",
    "sweep_words",
    "sweep_rook",
    "sweep_foata",
    "sweep_hypergeom",
    "SUITES",
    "run_suite",
]


def _pair_matrix(seqs, m: int) -> np.ndarray:
    """D[k, a-1, b-1] = multiplicity of the adjacent pair (a, b), a > b."""
    d = np.zeros((len(seqs), m, m), dtype=np.int64)
    for k, seq in enumerate(seqs):
        for a, b in zip(seq, seq[1:]):
            if a > b:
                d[k, a - 1, b - 1] += 1
    return d


def _subsets(m: int):
    """All subsets of [m] as (mask vector, Explicit set) pairs."""
    out = []
    for bits in range(1 << m):
        vec = np.array([(bits >> i) & 1 for i in range(m)], dtype=np.int64)
        out.append((vec, explicit_set(i + 1 for i in range(m) if (bits >> i) & 1)))
    return out


def _brute_distributions(d: np.ndarray, m: int, xvec: np.ndarray, yvecs: np.ndarray):
    """Descent-count histograms for one tops mask against many bottoms masks.

    Returns an array H with H[y, s] = number of sequences having s matching
    descents under (xvec, yvecs[y]), for s up to the largest count under any
    bottoms mask, which the full mask reaches.  One ``np.bincount`` counts
    all 2^m masks: mask j (bit b - 1 for bottom b) puts the sequences'
    counts in bins j * width + s, and those bin numbers are built by
    doubling, one bottom at a time.
    """
    per_bottom = np.ascontiguousarray((xvec @ d).T)  # (m, K)
    width = int(per_bottom.sum(axis=0).max(initial=0)) + 1
    bins = np.zeros((1 << m, d.shape[0]), dtype=np.int64)
    for b, column in enumerate(per_bottom):
        half = 1 << b
        np.add(bins[:half], column + half * width, out=bins[half : 2 * half])
    hist = np.bincount(bins.ravel(), minlength=(1 << m) * width).reshape(-1, width)
    return hist[yvecs @ (1 << np.arange(m))]


def _sweep_closed_forms(message: str, names: tuple[str, str], classes) -> int:
    """Both closed forms against brute force for each (head, rho) of
    ``classes``: the class R(rho), walked by ``words.enumerate_rearrangements``
    (so past its cap this raises CapExceededError), every (X, Y) pair of
    subsets of the letters 1..len(rho), every s up to the word length.  Both
    forms are ``words.word_form(rho, X, Y, second)``, and equal forms of one
    class share one ``.polynomial()``.  Its coefficients s = 0..L, L the word
    length, and the brute-force row padded to the same width are compared as
    whole lists, each s a case; a failure reports ``head``, the first s that
    disagrees and the two values under ``names``."""
    checked = 0
    for head, rho in classes:
        seqs = list(words.enumerate_rearrangements(rho))
        m = len(rho)
        width = len(seqs[0]) + 1
        d = _pair_matrix(seqs, m)
        subsets = _subsets(m)
        yvecs = np.stack([vec for vec, _ in subsets])
        coeffs = {}  # equal forms of this class share one coefficient list
        for xvec, xset in subsets:
            hist = _brute_distributions(d, m, xvec, yvecs)
            pad = [0] * (width - hist.shape[1])
            for row, (_, yset) in zip(hist.tolist(), subsets):
                row += pad
                lists = []
                for second in (False, True):
                    form = words.word_form(rho, xset, yset, second)
                    found = coeffs.get(form)
                    if found is None:
                        poly = form.polynomial()
                        found = coeffs[form] = [poly.coeff(s) for s in range(width)]
                    lists.append(found)
                c1, c2 = lists
                if not (c1 == c2 == row):
                    s = next(s for s in range(width) if not (c1[s] == c2[s] == row[s]))
                    raise VerificationError(
                        message,
                        {
                            **head,
                            "s": s,
                            "tops": str(xset),
                            "bottoms": str(yset),
                            names[0]: c1[s],
                            names[1]: c2[s],
                            "brute": row[s],
                        },
                    )
                checked += width
    return checked


def sweep_formulas(max_n: int) -> int:
    """Both closed formulas against brute force, all (X, Y) pairs, all s:
    S_n is the word class 1^n."""
    check_size(max_n)
    return _sweep_closed_forms(
        "closed formulas disagree with brute force",
        ("formula_alpha_beta", "formula_beta_beta"),
        (({"n": n}, (1,) * n) for n in range(1, max_n + 1)),
    )


def _random_subset(n: int, rng: random.Random):
    return explicit_set(i for i in range(1, n + 1) if rng.random() < 0.5)


def _random_pairs(max_n: int, pairs: int, seed: int):
    """``pairs`` seeded draws of (n, X, Y), 1 <= n <= max_n; none if max_n < 1."""
    rng = random.Random(seed)
    for _ in range(pairs if max_n >= 1 else 0):
        n = rng.randint(1, max_n)
        yield n, _random_subset(n, rng), _random_subset(n, rng)


def sweep_configs(max_n: int, pairs: int = 50, seed: int = 0) -> int:
    """``configurations.check_involution`` on each seeded (n, X, Y) draw,
    its signed totals and fixed points against brute force, s by s."""
    checked = 0
    for n, xset, yset in _random_pairs(check_size(max_n), pairs, seed):
        brute = stats.brute_poly(n, DescentQuery(xset, yset))
        walk = configurations.check_involution(n, xset, yset)
        for flavor, s, signed_total, fixed_total, layouts in walk:
            case = {"flavor": flavor.value, "n": n, "s": s,
                    "tops": str(xset), "bottoms": str(yset)}
            count = brute.coeff(s)
            if signed_total != count:
                raise VerificationError(
                    "signed configuration sum does not telescope",
                    {**case, "signed_total": signed_total, "expected": count},
                )
            if fixed_total != count:
                raise VerificationError(
                    "fixed points do not match the descent count",
                    {**case, "fixed_points": fixed_total, "brute": count},
                )
            checked += layouts
    return checked


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def sweep_words(max_n: int) -> int:
    """Both word formulas against enumeration, all compositions and pairs."""
    check_size(max_n)
    return _sweep_closed_forms(
        "word formulas disagree with enumeration",
        ("word_formula_1", "word_formula_2"),
        (({"rho": list(rho)}, rho)
         for n in range(1, max_n + 1) for rho in _compositions(n)),
    )


def sweep_rook(max_n: int, pairs: int = 100, seed: int = 0) -> int:
    """Hit numbers against brute force, plus the distinct-rows reduction."""
    checked = 0
    for n, xset, yset in _random_pairs(check_size(max_n), pairs, seed):
        case = {"n": n, "tops": str(xset), "bottoms": str(yset)}
        query = DescentQuery(xset, yset)
        brute = stats.brute_poly(n, query)
        hits = rook.hits_with_route(n, query)[0]
        if hits != brute:
            raise VerificationError(
                "hit polynomial disagrees with brute force",
                {**case, "hits": hits.coeff_list(), "brute": brute.coeff_list()},
            )
        board = rook.board_from_query(n, query)
        _, canon_tops = rook.canonical_distinct_rows(board)
        reduced = stats.brute_poly(n, DescentQuery(canon_tops, ALL))
        if reduced != brute:
            raise VerificationError(
                "distinct-rows reduction changes the polynomial",
                {**case, "reduced_tops": str(canon_tops)},
            )
        checked += 1
    return checked


FOATA_CHUNK = 40320  # 8!: the most rows of S_n sweep_foata holds at once


def _bridge_tables(n: int, query: DescentQuery, board: rook.Board) -> tuple:
    """The board's excedence table exc[i, j] = ((i, j) in board.cells) and
    the query's descent table des[a, b] = query.matches(a, b), 0 <= i, j,
    a, b <= n."""
    exc = np.zeros((n + 1, n + 1), dtype=np.int8)
    for i, j in board.cells:
        exc[i, j] = 1
    return exc, np.array(query.match_table(n), dtype=np.int8)


def _bridge_counts(omegas: np.ndarray, sigmas: np.ndarray, tables: tuple) -> tuple:
    """Per row k: the rooks of omegas[k] on the board (omega_j = i is the
    cell (i, j)) and the matching descents of sigmas[k], both gathered from
    the ``_bridge_tables`` pair ``tables``."""
    exc, des = tables
    columns = np.arange(1, omegas.shape[1] + 1)
    return (exc[omegas, columns].sum(axis=1),
            des[sigmas[:, :-1], sigmas[:, 1:]].sum(axis=1))


def _check_bridge(omegas: np.ndarray, sigmas: np.ndarray, tests, tables):
    """Raise the bridge failure of the first row, then the first query, at
    which the excedences of omega differ from the descents of sigma."""
    bad = [np.flatnonzero(np.not_equal(*_bridge_counts(omegas, sigmas, pair)))
           for pair in tables]
    first = min(((int(rows[0]), q) for q, rows in enumerate(bad) if rows.size),
                default=None)
    if first is None:
        return
    k, q = first
    exc, des = _bridge_counts(omegas[k : k + 1], sigmas[k : k + 1], tables[q])
    query = tests[q]
    raise VerificationError(
        "descent/excedence bridge broken",
        {
            "omega": omegas[k].tolist(),
            "tops": str(query.tops),
            "bottoms": str(query.bottoms),
            "diffs": str(query.diffs),
            "excedences": int(exc[0]),
            "descents": int(des[0]),
        },
    )


def sweep_foata(max_n: int, queries: int = 20, seed: int = 0) -> int:
    """Round trips and the descent/excedence bridge over all of S_n.

    Each omega of S_n, in ``itertools.permutations`` order, is rewritten
    once, sigma = foata(omega), and must round-trip.  omega and sigma are
    written row by row into int8 arrays of at most FOATA_CHUNK rows, and for
    each query every row's excedences on the query's board are compared with
    sigma's matching descents by numpy gathers from two small tables.  The
    failure reported is the first one met walking omega, then the queries;
    at one omega the round trip comes before the bridge.
    """
    rng = random.Random(seed)
    checked = 0
    for n in range(1, check_size(max_n) + 1):
        tests = [
            DescentQuery(_random_subset(n, rng), _random_subset(n, rng),
                         _random_subset(n, rng))
            for _ in range(queries)
        ]
        tables = [_bridge_tables(n, query, rook.board_from_query(n, query))
                  for query in tests]
        walk = permutations(range(1, n + 1))
        rows = min(factorial(n), FOATA_CHUNK)
        omegas = np.empty((rows, n), dtype=np.int8)
        sigmas = np.empty((rows, n), dtype=np.int8)
        for _ in range(factorial(n) // rows):
            for k, omega in enumerate(islice(walk, rows)):
                sigma = rook.foata(omega)
                if rook.foata_inverse(sigma) != omega:
                    _check_bridge(omegas[:k], sigmas[:k], tests, tables)
                    raise VerificationError(
                        "cycle rewriting does not round-trip",
                        {"omega": list(omega), "image": list(sigma)},
                    )
                omegas[k], sigmas[k] = omega, sigma
            _check_bridge(omegas, sigmas, tests, tables)
            checked += rows * queries
    return checked


SUITES = {
    "formulas": lambda max_n, seed: sweep_formulas(max_n),
    "configs": lambda max_n, seed: sweep_configs(max_n, seed=seed),
    "words": lambda max_n, seed: sweep_words(max_n),
    "rook": lambda max_n, seed: sweep_rook(max_n, seed=seed),
    "foata": lambda max_n, seed: sweep_foata(max_n, seed=seed),
    "hypergeom": lambda max_n, seed: sweep_hypergeom(max_n),
}


def run_suite(name: str, max_n: int, seed: int = 0) -> dict:
    """Cases checked per suite: ``name`` is a key of SUITES or "all".
    InputError names an unknown suite or a negative ``max_n``."""
    check_size(max_n)
    if name == "all":
        return {key: fn(max_n, seed) for key, fn in SUITES.items()}
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}, all")
    return {name: SUITES[name](max_n, seed)}

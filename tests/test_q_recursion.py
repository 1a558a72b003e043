"""The prefix-sum q-recursion against a recursion on lists of q-coefficients,
the palindromes it relies on, and the q-poly record built from it."""

import json
import random
from itertools import zip_longest

import pytest

from descentpoly.cli import EXIT_OK, main
from descentpoly.perms import check_size
from descentpoly.polynomials import BivarPolynomial, IntPolynomial
from descentpoly.sets import explicit_set, parse_set
from descentpoly.stats import _q_lists, q_recursion

NAMED_TOPS = ["all", "{}", "mod:2:0", "mod:3:1", "mod:4:0,2"]


def _q_int(m):
    """[m]_q = 1 + q + ... + q^(m-1) as a list of q-coefficients."""
    return [1] * m


def _times(p, q):
    """Product of two lists of q-coefficients, by convolution."""
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _oracle(n, tops):
    """The insertion recursion with one list of q-coefficients per power of
    x, multiplying by q-integers term by term."""
    by_s = {0: [1]}
    for m in range(check_size(n)):
        new = {}

        def add(s, p):
            if any(p):
                old = new.get(s, [])
                new[s] = [a + b for a, b in zip_longest(old, p, fillvalue=0)]

        in_tops = (m + 1) in tops
        for s, c in by_s.items():
            if in_tops:
                add(s, _times(c, _q_int(s + 1)))
                add(s + 1, [0] * (s + 1) + _times(c, _q_int(m - s)))
            else:
                if s > 0:
                    add(s - 1, _times(c, _q_int(s)))
                add(s, [0] * s + _times(c, _q_int(m + 1 - s)))
        by_s = new
    return BivarPolynomial(
        {(eq, s): v for s, p in by_s.items() for eq, v in enumerate(p)}
    )


def _tops_sets():
    rng = random.Random(7)
    seeded = [
        explicit_set(i for i in range(1, 13) if rng.random() < 0.5) for _ in range(3)
    ]
    return [parse_set(t) for t in NAMED_TOPS] + seeded


def _q_factorial(n):
    out = [1]
    for k in range(1, n + 1):
        out = _times(out, _q_int(k))
    return IntPolynomial.from_coeffs(out)


@pytest.mark.parametrize("n", range(0, 13))
def test_whole_polynomial_matches_dict_recursion(n):
    for tops in _tops_sets():
        assert q_recursion(n, tops) == _oracle(n, tops)


@pytest.mark.parametrize("n", range(0, 10))
def test_x_equal_one_gives_q_factorial(n):
    for tops in _tops_sets():
        assert q_recursion(n, tops).specialize_second(1) == _q_factorial(n)


def test_empty_permutation_gives_one():
    for tops in _tops_sets():
        assert q_recursion(0, tops) == BivarPolynomial({(0, 0): 1})


@pytest.mark.parametrize("n", range(0, 13))
def test_every_q_list_is_a_palindrome_about_its_centre(n):
    """c[s] is palindromic about (K_n + s·n)/2, K_n the sum of the j < n
    with j + 1 not in tops."""
    for tops in _tops_sets():
        k = sum(j for j in range(n) if j + 1 not in tops)
        for s, p in enumerate(_q_lists(n, tops)):
            centre2 = k + s * n
            assert p and p[-1] and len(p) <= centre2 + 1, (n, tops, s)
            padded = p + [0] * (centre2 + 1 - len(p))
            assert padded == padded[::-1], (n, tops, s)


@pytest.mark.parametrize("n", range(13, 31))
def test_larger_n_matches_dict_recursion(n):
    rng = random.Random(n)
    seeded = explicit_set(i for i in range(1, n + 1) if rng.random() < 0.5)
    for tops in [parse_set("{}"), parse_set("all"), parse_set("mod:4:0,2"), seeded]:
        assert q_recursion(n, tops) == _oracle(n, tops), (n, tops)


@pytest.mark.parametrize("x", ["{}", "all", "mod:4:0,2"])
@pytest.mark.parametrize("n", [0, 1, 2, 8, 40])
def test_q_poly_record_is_the_one_built_from_q_recursion(capsys, n, x):
    assert main(["q-poly", "--n", str(n), "--x", x]) == EXIT_OK
    out = capsys.readouterr().out
    tops = parse_set(x)
    poly = q_recursion(n, tops)
    record = {
        "command": "q-poly",
        "inputs": {"n": n, "x": str(tops)},
        "result": {
            "coefficients_q_x": {f"{eq},{ex}": str(c) for (eq, ex), c in poly.items()}
        },
        "method": "recursion",
        "elapsed_ms": json.loads(out)["elapsed_ms"],
    }
    assert out == json.dumps(record, indent=2, sort_keys=True) + "\n"

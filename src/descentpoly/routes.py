"""The routes of the polynomial commands, one row per ``--method`` name.

``ROUTES[name].run(n, rho, query, max_brute)`` answers S_n, with rho = 1ⁿ,
or the word class R(rho) when n is None, and returns the IntPolynomial with
the facts of the path taken: the rook path for ``rook`` (see
``rook.rook_route``), {} for the others.  Brute force walks at most
max_brute! sequences.  A row with ``words`` serves word classes, one with
``diffs`` takes a difference set.  Each row looks its library function up
when it runs, so a patched function is the one called.
"""

from __future__ import annotations

from math import factorial
from typing import Callable, NamedTuple

from . import rook, stats, words

__all__ = ["Route", "ROUTES"]


class Route(NamedTuple):
    run: Callable  # (n, rho, query, max_brute) -> (IntPolynomial, facts)
    words: bool
    diffs: bool


def _brute(n, rho, query, max_brute):
    if n is not None:
        return stats.brute_poly(n, query, limit=max_brute), {}
    # at most min(k!, 10⁶) words; k is clipped first, since 10! > 10⁶
    limit = min(factorial(min(max_brute, 10)), words.DEFAULT_WORD_CAP)
    return words.word_brute_poly(rho, query.tops, query.bottoms, limit), {}


def _formula(n, rho, query, max_brute, second=False):
    return words.word_form(rho, query.tops, query.bottoms, second).polynomial(), {}


# in the order --help lists the methods
ROUTES = {
    "brute": Route(_brute, words=True, diffs=True),
    "recursion": Route(
        lambda n, rho, query, max_brute: (
            stats.recursion_bivar(n, query.tops, query.bottoms).specialize_second(1), {}),
        words=False, diffs=False),
    "formula1": Route(_formula, words=True, diffs=False),
    "formula2": Route(lambda *args: _formula(*args, second=True), words=True, diffs=False),
    "rook": Route(lambda n, rho, query, max_brute: rook.hits_with_route(n, query),
                  words=False, diffs=True),
}

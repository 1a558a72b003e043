"""Exact descent-pair-counting polynomials for permutations and words.

For permutations of 1..n and prescribed sets of allowed descent tops,
bottoms, and differences, this package computes the polynomial whose
x^s coefficient counts the permutations (or words) with exactly s
matching descents — by brute force, by insertion recursion, by two
alternating-sum closed formulas, and by rook/hit-number reduction — and
cross-verifies the different routes against each other.
"""

from .closed_forms import (
    formula_alpha_beta,
    formula_beta_beta,
    formula_X_only_1,
)
from .polynomials import BivarPolynomial, IntPolynomial, binom, poch
from .sets import ALL, EMPTY, EVENS, ODDS, IntegerSet, explicit_set, parse_set
from .stats import (
    DescentQuery,
    brute_bivar,
    brute_poly,
    des_set,
    q_recursion,
    recursion_bivar,
)

__all__ = [
    "ALL",
    "EMPTY",
    "EVENS",
    "ODDS",
    "IntegerSet",
    "explicit_set",
    "parse_set",
    "IntPolynomial",
    "BivarPolynomial",
    "binom",
    "poch",
    "DescentQuery",
    "des_set",
    "brute_poly",
    "brute_bivar",
    "recursion_bivar",
    "q_recursion",
    "formula_alpha_beta",
    "formula_beta_beta",
    "formula_X_only_1",
]

__version__ = "0.1.0"

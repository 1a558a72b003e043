"""Alternating-sum closed formulas for descent-pair counts.

Two independent formulas compute the same coefficient: one indexed by how
many non-top elements sit above each top (the alpha/beta form), one purely
by below-counts (the beta/beta form).  Both are coefficients of one
generating function, read from the bottom and from the top degree.
Product factors in the second may be zero or negative for individual
terms; all arithmetic is exact so the cancellations are exact too.

The whole polynomial is prefactor · (1 − x)^(N+1) · Σ_r w_r x^r, truncated
at its top degree D.  ``ClosedForm.polynomial`` builds the weights w_0..w_D
and multiplies by (1 − x) N + 1 times, each time one list of subtractions:
the repeated differences of Stanley, EC1 §4.3, which read A(x) off
Σ_r f(r) x^r = A(x)/(1 − x)^(d+1).  ``terms`` and ``coefficient`` keep the
binomial sum of one coefficient, Σ_(r≤k) (−1)^(k−r) C(N+1, k−r) w_r.

Kitaev and Remmel's sums are these forms at X = kℕ, Y = all (tops) or at
X = all, Y = kℕ (bottoms), and the Eulerian sum is them at X = Y = all.
"""

from __future__ import annotations

from math import comb, factorial, prod
from operator import sub
from typing import NamedTuple

from .perms import InputError, check_size
from .polynomials import IntPolynomial, binom
from .sets import ALL, IntegerSet, residue_set

__all__ = [
    "ClosedForm",
    "permutation_form",
    "formula_alpha_beta",
    "formula_alpha_beta_terms",
    "formula_beta_beta",
    "formula_beta_beta_terms",
    "formula_X_only_1",
    "rectangle_product",
    "kn_top_formulas",
    "kn_bottom_formulas",
]


def _signed_binom(n: int, k: int) -> int:
    """The x^k coefficient of (1 − x)^(n+1)."""
    return (-1) ** k * binom(n + 1, k)


class ClosedForm(NamedTuple):
    """P · (1 − x)^(N+1) · Σ_r w_r x^r with w_r = C(c + r, r) · Π_x f_x(r).

    c is the mass of the N letters outside the tops set and P the
    multinomial of their multiplicities (c! for permutations).  Each
    potential top x comes as (ρ_x, o_x) with f_x(r) = C(r + o_x, ρ_x), so
    S_n is the word class ρ = 1ⁿ, whose factors are r + o_x.  The
    alpha/beta form reads x^s; the beta/beta form (``second``) reads
    x^(L−s), L = Σ ρ_x.

    A form is a tuple (c, prefactor, offsets, second), so building,
    comparing and hashing one is tuple work; it also equals a plain tuple
    of the same four fields.
    """

    c: int
    prefactor: int
    offsets: tuple[tuple[int, int], ...]
    second: bool = False

    @classmethod
    def from_sets(cls, masses, tops, bottoms, second) -> "ClosedForm":
        """Letters 1..m of multiplicities ``masses``, in one pass of prefix
        counts: β_X(x), β_Y(x) are the non-top and non-bottom mass below x,
        and α_X(x) = c − β_X(x) is the non-top mass above a top x.  The
        prefactor is the multinomial of the non-top masses, built in the same
        pass as Π C(β_X(x) + ρ_x, ρ_x) over the non-tops x."""
        is_top, is_bottom = tops.__contains__, bottoms.__contains__
        rows = []
        below_x = below_y = 0
        prefactor = 1
        for x, mass in enumerate(masses, 1):
            if is_top(x):
                rows.append((mass, below_x, below_y))
            else:
                below_x += mass
                prefactor *= comb(below_x, mass)
            if not is_bottom(x):
                below_y += mass
        # f_x(r) = r + β_X(x) − β_Y(x) if second, else ρ_x + r + α_X(x) + β_Y(x)
        c = below_x
        offsets = [(p, bx - by if second else p + c - bx + by) for p, bx, by in rows]
        return cls(c, prefactor, tuple(offsets), second)

    @property
    def top_mass(self) -> int:
        return sum(p for p, _ in self.offsets)

    @property
    def n(self) -> int:
        return self.c + self.top_mass

    def weight(self, r: int) -> int:
        """C(c + r, r) · Π_x C(r + o_x, ρ_x)."""
        factors = prod([comb(r + o, p) if r + o >= 0 else 0 for p, o in self.offsets])
        return comb(self.c + r, r) * factors

    def _degree(self, s: int) -> int:
        return self.top_mass - s if self.second else s

    def terms(self, s: int) -> list[int]:
        """The signed terms whose sum, times the prefactor, is coefficient s."""
        k, n = self._degree(s), self.n
        return [_signed_binom(n, k - r) * self.weight(r) for r in range(k + 1)]

    def coefficient(self, s: int) -> int:
        if min(s, self._degree(s)) < 0:
            return 0
        return self.prefactor * sum(self.terms(s))

    def polynomial(self) -> IntPolynomial:
        """Coefficients s = 0..N (formula 1) or 0..L (formula 2) at once.

        The weights w_0..w_D, times (1 − x)^(N+1) truncated at degree D: N + 1
        passes of p_k ← p_k − p_(k−1), subtractions only."""
        top = self.top_mass if self.second else self.n
        p = [self.weight(r) for r in range(top + 1)]
        for _ in range(self.n + 1):
            p[1:] = map(sub, p[1:], p[:-1])
        if self.prefactor != 1:
            p = [self.prefactor * v for v in p]
        return IntPolynomial.from_coeffs(p[::-1] if self.second else p)


def permutation_form(
    n: int, tops: IntegerSet, bottoms: IntegerSet, second: bool = False
) -> ClosedForm:
    """The alpha/beta form for S_n, or the beta/beta form if ``second``: the
    word form of ρ = 1ⁿ."""
    return ClosedForm.from_sets((1,) * check_size(n), tops, bottoms, second)


def formula_alpha_beta_terms(
    n: int, s: int, tops: IntegerSet, bottoms: IntegerSet
) -> tuple[int, list[int]]:
    """Returns (prefactor, signed inner terms); their product-sum is the count."""
    form = permutation_form(n, tops, bottoms)
    return form.prefactor, form.terms(s)


def formula_alpha_beta(n: int, s: int, tops: IntegerSet, bottoms: IntegerSet) -> int:
    return permutation_form(n, tops, bottoms).coefficient(s)


def formula_beta_beta_terms(
    n: int, s: int, tops: IntegerSet, bottoms: IntegerSet
) -> tuple[int, list[int]]:
    form = permutation_form(n, tops, bottoms, second=True)
    return form.prefactor, form.terms(s)


def formula_beta_beta(n: int, s: int, tops: IntegerSet, bottoms: IntegerSet) -> int:
    return permutation_form(n, tops, bottoms, second=True).coefficient(s)


def formula_X_only_1(n: int, s: int, tops: IntegerSet) -> int:
    """Specialization with every bottom allowed (below-counts vanish)."""
    return formula_alpha_beta(n, s, tops, ALL)


def rectangle_product(m: int, u: int, v: int, s: int) -> int:
    """Product form for tops {u+2, u+4, ..., u+2m} in S_{2m+u+v}."""
    return (
        binom(m, s)
        * binom(m + u + v, v + s)
        * factorial(m + u)
        * factorial(m + v)
    )


def _multiples_of(k: int, m: int, j: int) -> tuple[int, IntegerSet]:
    """n = km + j and the set kℕ, whose members in [1, n] are k, 2k, ..., mk."""
    if not 0 <= j <= k - 1:
        raise InputError("need 0 <= j <= k-1")
    return k * m + j, residue_set(k, (0,))


def kn_top_formulas(k: int, m: int, j: int, s: int) -> tuple[int, int]:
    """Both alternating sums for tops = multiples of k, n = km+j: the
    general forms at X = kℕ, Y = all."""
    n, mults = _multiples_of(k, m, j)
    return formula_alpha_beta(n, s, mults, ALL), formula_beta_beta(n, s, mults, ALL)


def kn_bottom_formulas(k: int, m: int, j: int, s: int) -> tuple[int, int]:
    """Both alternating sums for bottoms = multiples of k, n = km+j: the
    general forms at X = all, Y = kℕ."""
    n, mults = _multiples_of(k, m, j)
    return formula_alpha_beta(n, s, ALL, mults), formula_beta_beta(n, s, ALL, mults)

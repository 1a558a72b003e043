"""Exact integer-coefficient polynomials in one or two variables.

Coefficients are Python ints (arbitrary precision); zero coefficients are
never stored.  Both classes are deliberately small and share one private
sparse-dict body: the routes compute on plain lists of ints and build each
one-variable answer by IntPolynomial.from_coeffs, so the classes need no
more than construction, reading coefficients, equality and (for the
two-variable class) specialization of one variable.
"""

from __future__ import annotations

from itertools import chain, starmap
from math import comb, perm

__all__ = ["IntPolynomial", "BivarPolynomial", "poch", "binom", "multinomial"]


def poch(a: int, r: int) -> int:
    """Rising factorial a (a+1) ... (a+r-1); empty product for r = 0.

    In closed form: (a+r-1)!/(a-1)! for a > 0, zero when the factors cross
    0, and (-1)^r (-a)!/(-a-r)! when every factor is negative or r = 0."""
    if r < 0:
        raise ValueError("rising factorial needs r >= 0")
    if a > 0:
        return perm(a + r - 1, r)
    if a + r > 0:
        return 0
    return (-1) ** r * perm(-a, r)


def binom(p: int, q: int) -> int:
    """Binomial coefficient with the vanishing convention: 0 when p < 0.

    Alternating-sum formulas below rely on negative upper indices killing
    their terms, so p < 0 is data, not an error.
    """
    if q < 0:
        raise ValueError("binomial needs q >= 0")
    if p < 0 or q > p:
        return 0
    return comb(p, q)


def multinomial(parts) -> int:
    """(ρ_1 + … + ρ_k)! / (ρ_1! … ρ_k!), as the running product of the
    binomials C(ρ_1 + … + ρ_i, ρ_i)."""
    total, count = 0, 1
    for part in parts:
        total += part
        count *= comb(total, part)
    return count


class _Sparse:
    """The body both types share: nonzero coefficients by exponent key, from
    a dict or (key, coefficient) pairs.  A subclass gives the smallest
    exponent in its keys (_smallest) and the spelling of a term (_term)."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        for e, v in coeffs.items() if isinstance(coeffs, dict) else coeffs or ():
            if v:
                c[e] = v
        if c and self._smallest(c) < 0:
            raise ValueError("negative exponent")
        self._c = c

    def items(self):
        return self._c.items()

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        return " + ".join(starmap(self._term, sorted(self._c.items()))) or "0"


class IntPolynomial(_Sparse):
    """Polynomial in one variable with integer coefficients."""

    __slots__ = ()
    _smallest = staticmethod(min)

    @classmethod
    def from_coeffs(cls, seq) -> "IntPolynomial":
        return cls(enumerate(seq))

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return max(self._c, default=-1)

    def coeff_list(self) -> list[int]:
        return [self.coeff(e) for e in range(self.degree + 1)]

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPolynomial({0: other})
        return _Sparse.__eq__(self, other)

    __hash__ = _Sparse.__hash__

    @staticmethod
    def _term(e: int, v: int) -> str:
        power = "x" if e == 1 else f"x^{e}"
        return str(v) if e == 0 else power if v == 1 else f"{v}*{power}"


class BivarPolynomial(_Sparse):
    """Polynomial in two variables, keys (e1, e2) for the exponent pair.

    Used with (x, y) exponents for the two-variable descent polynomials and
    with (q, x) exponents for the q-refined ones; callers pick the reading.
    """

    __slots__ = ()

    @staticmethod
    def _smallest(keys) -> int:
        return min(chain.from_iterable(keys))

    def coeff(self, e1: int, e2: int) -> int:
        return self._c.get((e1, e2), 0)

    def specialize_first(self, value: int) -> IntPolynomial:
        """Substitute the first variable, leaving a polynomial in the second."""
        return self._specialize(value, 0)

    def specialize_second(self, value: int) -> IntPolynomial:
        """Substitute the second variable, leaving a polynomial in the first."""
        return self._specialize(value, 1)

    def _specialize(self, value: int, gone: int) -> IntPolynomial:
        """Substitute value for the variable at index gone of each key."""
        out = {}
        for key, c in self._c.items():
            e = key[1 - gone]
            out[e] = out.get(e, 0) + c * value ** key[gone]
        return IntPolynomial(out)

    @staticmethod
    def _term(e: tuple[int, int], v: int) -> str:
        e1, e2 = e
        return str(v) + (f"*u^{e1}" if e1 else "") + (f"*v^{e2}" if e2 else "")

"""Exact integer-coefficient polynomials in one or two variables.

Coefficients are Python ints (arbitrary precision); zero coefficients are
never stored.  These are deliberately small sparse-dict classes: the whole
package depends on exact arithmetic, and the routes compute on plain lists
of ints.  The classes need no more than construction, reading coefficients,
equality and (for the two-variable class) specialization of one variable.
"""

from __future__ import annotations

from math import comb, factorial, perm, prod

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
    parts = list(parts)
    return factorial(sum(parts)) // prod(map(factorial, parts))


class IntPolynomial:
    """Polynomial in one variable with integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in dict(coeffs).items():
                if v:
                    if e < 0:
                        raise ValueError("negative exponent")
                    c[e] = v
        self._c = c

    @classmethod
    def from_coeffs(cls, seq) -> "IntPolynomial":
        return cls({e: v for e, v in enumerate(seq)})

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return max(self._c, default=-1)

    def coeff_list(self) -> list[int]:
        return [self.coeff(e) for e in range(self.degree + 1)]

    def items(self):
        return self._c.items()

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPolynomial({0: other})
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        if not self._c:
            return "0"
        terms = []
        for e in sorted(self._c):
            v = self._c[e]
            if e == 0:
                terms.append(str(v))
            elif e == 1:
                terms.append(f"{v}*x" if v != 1 else "x")
            else:
                terms.append(f"{v}*x^{e}" if v != 1 else f"x^{e}")
        return " + ".join(terms)


class BivarPolynomial:
    """Polynomial in two variables, keys (e1, e2) for the exponent pair.

    Used with (x, y) exponents for the two-variable descent polynomials and
    with (q, x) exponents for the q-refined ones; callers pick the reading.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for (e1, e2), v in dict(coeffs).items():
                if v:
                    if e1 < 0 or e2 < 0:
                        raise ValueError("negative exponent")
                    c[(e1, e2)] = v
        self._c = c

    def coeff(self, e1: int, e2: int) -> int:
        return self._c.get((e1, e2), 0)

    def items(self):
        return self._c.items()

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarPolynomial):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def specialize_first(self, value: int) -> IntPolynomial:
        """Substitute the first variable, leaving a polynomial in the second."""
        out = {}
        for (e1, e2), c in self._c.items():
            out[e2] = out.get(e2, 0) + c * value**e1
        return IntPolynomial(out)

    def specialize_second(self, value: int) -> IntPolynomial:
        """Substitute the second variable, leaving a polynomial in the first."""
        out = {}
        for (e1, e2), c in self._c.items():
            out[e1] = out.get(e1, 0) + c * value**e2
        return IntPolynomial(out)

    def __repr__(self) -> str:
        if not self._c:
            return "0"
        terms = []
        for e1, e2 in sorted(self._c):
            v = self._c[(e1, e2)]
            part = str(v)
            if e1:
                part += f"*u^{e1}"
            if e2:
                part += f"*v^{e2}"
            terms.append(part)
        return " + ".join(terms)

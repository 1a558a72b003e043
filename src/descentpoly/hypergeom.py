"""Terminating hypergeometric series with integer parameters, exactly, and
the sweeps that check their identities against descent counts.

Every series handled here has all-negative-integer parameters and unit
argument, so it terminates: some numerator Pochhammer hits zero.  The
evaluation sums in integers, one numerator over one denominator, and the
private helpers pass that (numerator, denominator) pair on unreduced, so
the sweeps compare sides by cross-multiplication and build a Fraction only
for a failure record; the Pfaff right side is such a pair too.  The public
functions turn each pair into a single reduced Fraction.  Each sweep raises
VerificationError on the first disagreement and returns the number of
cases checked otherwise; none of them needs numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod
from typing import NamedTuple

from . import closed_forms
from .closed_forms import formula_alpha_beta, formula_beta_beta
from .perms import InputError, VerificationError, check_size
from .polynomials import poch
from .sets import ALL, IntegerSet, explicit_set

__all__ = [
    "HypergeometricSpec",
    "IllPosedSeriesError",
    "eval_terminating",
    "UVProfile",
    "tau_sequence",
    "verify_balanced_identity",
    "pfaff_saalschutz_lhs",
    "pfaff_saalschutz_rhs",
    "verify_cor35",
    "sweep_pfaff",
    "sweep_cor35",
    "sweep_balanced",
    "sweep_hypergeom",
]


class IllPosedSeriesError(ValueError):
    """A denominator Pochhammer would vanish at or before termination."""


class HypergeometricSpec(NamedTuple):
    """Parameters of an (m+1)F_m series at argument 1: the tuple
    (numerator, denominator), so building, comparing and hashing one is
    tuple work."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def termination_index(self) -> int:
        """Last index r with a nonzero term: min of -a over parameters a <= 0."""
        nonpos = [-a for a in self.numerator if a <= 0]
        if not nonpos:
            raise IllPosedSeriesError(
                "series does not terminate: no non-positive numerator parameter"
            )
        return min(nonpos)

    def validate(self) -> int:
        """The termination index, once no denominator vanishes before it."""
        r_max = self.termination_index()
        for b in self.denominator:
            # (b)_r is zero for r > -b when b <= 0
            if b <= 0 and -b < r_max:
                raise IllPosedSeriesError(
                    f"denominator parameter {b} vanishes before termination at {r_max}"
                )
        return r_max


def _sum_pair(spec: HypergeometricSpec) -> tuple[int, int]:
    """The series' exact sum as an unreduced pair (numerator, denominator).

    Term r is term r-1 times n_r / d_r, n_r = prod (a + r - 1) over the
    numerator and d_r = r prod (b + r - 1) over the denominator, and
    validate() rules out d_r = 0.  The partial sums stay one integer
    numerator over den = d_1 ... d_r: acc <- acc d_r + n_1 ... n_r.
    """
    acc = den = term = 1
    numerator, denominator = spec.numerator, spec.denominator
    for r in range(1, spec.validate() + 1):
        step = r
        for b in denominator:
            step *= b + r - 1
        for a in numerator:
            term *= a + r - 1
        acc = acc * step + term
        den *= step
    return acc, den


def eval_terminating(spec: HypergeometricSpec) -> Fraction:
    """The series' exact sum, reduced."""
    return Fraction(*_sum_pair(spec))


@dataclass(frozen=True)
class UVProfile:
    """A weakly increasing array u of offsets and positive lengths v.

    Row i covers columns u_i .. u_i + v_i - 1; f(i) is the column count.
    """

    u: tuple[int, ...]
    v: tuple[int, ...]

    def __post_init__(self):
        if len(self.u) != len(self.v) or not self.u:
            raise InputError("u and v must be nonempty and equally long")
        if any(x < 0 for x in self.u) or any(x < 1 for x in self.v):
            raise InputError("need u_i >= 0 and v_i >= 1")
        if any(a > b for a, b in zip(self.u, self.u[1:])):
            raise InputError("u must be weakly increasing")

    @property
    def k(self) -> int:
        return len(self.u)

    def f(self, i: int) -> int:
        return sum(1 for uj, vj in zip(self.u, self.v) if uj <= i <= uj + vj - 1)

    @property
    def M(self) -> int:
        return max(uj + vj - 1 for uj, vj in zip(self.u, self.v))

    def min_n(self) -> int:
        # large enough both for the leading-zero pad (a >= M) and for the
        # trailing block layout
        return sum(self.v) + max(
            self.M,
            max(uj + vj for uj, vj in zip(self.u, self.v)) - self.u[0],
        )


def tau_sequence(profile: UVProfile, n: int) -> tuple[str, IntegerSet]:
    """The binary word and its support set driving the balanced identity.

    Blocks of 1s of sizes f(M), f(M-1), ..., f(u_1), separated by single
    0s, padded with a - M leading 0s and u_1 trailing 0s, where
    a = n - sum(v).  The leading-pad size makes the total length exactly n.
    """
    if n < profile.min_n():
        raise InputError(f"need n >= {profile.min_n()} for this profile")
    a = n - sum(profile.v)
    u1, big = profile.u[0], profile.M
    bits = "0" * (a - big)
    bits += "0".join("1" * profile.f(i) for i in range(big, u1 - 1, -1))
    bits += "0" * u1
    assert len(bits) == n
    members = explicit_set(i for i, ch in enumerate(bits, start=1) if ch == "1")
    return bits, members


def _check_balanced(spec: HypergeometricSpec):
    top = sum(spec.numerator)
    bottom = sum(spec.denominator)
    if top + 1 != bottom:
        raise ValueError(
            f"series is not balanced: top sum {top}, bottom sum {bottom}"
        )


def _side_pair(prefactor: int, spec: HypergeometricSpec) -> tuple[int, int]:
    """prefactor times the balanced series, as an unreduced integer pair."""
    if prefactor == 0:
        return 0, 1
    _check_balanced(spec)
    num, den = _sum_pair(spec)
    return prefactor * num, den


def _balanced_sides(
    profile: UVProfile, n: int, s: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Both balanced series of the transformation, each an unreduced integer
    pair (numerator, denominator).  The caller checks n against the profile
    (``tau_sequence`` does) and builds the count they equal."""
    u, v, k = profile.u, profile.v, profile.k
    a = n - sum(v)
    left_pre = poch(s + 1, a) * prod(poch(s + u[i] + 1, v[i]) for i in range(k))
    left_spec = HypergeometricSpec(
        numerator=(-(n + 1), -s) + tuple(-(s + u[i]) for i in range(k)),
        denominator=(-(s + a),) + tuple(-(s + u[i] + v[i]) for i in range(k)),
    )
    right_pre = (
        (-1) ** n
        * poch(-n + s, a)
        * prod(poch(-n + s + u[i], v[i]) for i in range(k))
    )
    right_spec = HypergeometricSpec(
        numerator=(-(n + 1), -n + s + a)
        + tuple(-n + s + u[i] + v[i] for i in range(k)),
        denominator=(-n + s,) + tuple(-n + s + u[i] for i in range(k)),
    )
    return _side_pair(left_pre, left_spec), _side_pair(right_pre, right_spec)


def verify_balanced_identity(
    profile: UVProfile, n: int, s: int
) -> tuple[Fraction, Fraction, int]:
    """Both balanced series of the transformation, plus the descent count
    they equal.  Returns (left, right, P); callers assert all three agree.
    """
    _, members = tau_sequence(profile, n)
    left, right = _balanced_sides(profile, n, s)
    return Fraction(*left), Fraction(*right), formula_alpha_beta(n, s, members, ALL)


def _pfaff_lhs_pair(n: int, a: int, b: int, c: int) -> tuple[int, int]:
    """The Pfaff-Saalschutz series 3F2(-n, a, b; c, 1 + a + b - c - n; 1)
    as an unreduced integer pair."""
    return _sum_pair(
        HypergeometricSpec(numerator=(-n, a, b), denominator=(c, a + b - c - n + 1))
    )


def pfaff_saalschutz_lhs(n: int, a: int, b: int, c: int) -> Fraction:
    return Fraction(*_pfaff_lhs_pair(n, a, b, c))


def _pfaff_rhs_pair(n: int, a: int, b: int, c: int) -> tuple[int, int]:
    """The Pfaff-Saalschutz value (c - a)_n (c - b)_n / ((c)_n (c - a - b)_n)
    as an unreduced integer pair."""
    den = poch(c, n) * poch(c - a - b, n)
    if den == 0:
        raise IllPosedSeriesError("vanishing denominator Pochhammer")
    return poch(c - a, n) * poch(c - b, n), den


def pfaff_saalschutz_rhs(n: int, a: int, b: int, c: int) -> Fraction:
    return Fraction(*_pfaff_rhs_pair(n, a, b, c))


def verify_cor35(k: int, m: int, s: int) -> tuple[Fraction, Fraction, int]:
    """The two sides of the mod-(k+1) specialization, k, m >= 1: the balanced
    transformation at u = 0ᵏ, v = mᵏ, whose τ-word has the tops {i : i mod
    (k+1) != 1} in S_{(k+1)m}.  The count comes from the beta/beta form."""
    if k < 1 or m < 1:
        raise InputError("need k >= 1 and m >= 1")
    n = (k + 1) * m
    profile = UVProfile((0,) * k, (m,) * k)
    _, members = tau_sequence(profile, n)
    left, right = _balanced_sides(profile, n, s)
    return Fraction(*left), Fraction(*right), formula_beta_beta(n, s, members, ALL)


def sweep_pfaff(max_param: int = 5) -> int:
    """The Pfaff-Saalschutz formula for integers a, b in [-max_param, 0],
    n in [0, max_param] and c in [-2 max_param, max_param], if well posed."""
    checked = 0
    for a in range(-check_size(max_param, "max_param"), 1):
        for b in range(-max_param, 1):
            for n in range(max_param + 1):
                for c in range(-2 * max_param, max_param + 1):
                    try:  # a case needs both sides; the cheap one goes first
                        rnum, rden = _pfaff_rhs_pair(n, a, b, c)
                        num, den = _pfaff_lhs_pair(n, a, b, c)
                    except IllPosedSeriesError:
                        continue
                    if num * rden != rnum * den:
                        raise VerificationError(
                            "summation formula fails",
                            {"n": n, "a": a, "b": b, "c": c,
                             "lhs": str(Fraction(num, den)),
                             "rhs": str(Fraction(rnum, rden))},
                        )
                    checked += 1
    return checked


def sweep_cor35(max_km: int = 2) -> int:
    """The mod-(k+1) identity for k, m <= max_km and every s."""
    checked = 0
    for k in range(1, check_size(max_km, "max_km") + 1):
        for m in range(1, max_km + 1):
            for s in range(k * m + 1):
                left, right, count = verify_cor35(k, m, s)
                if not (left == right == count):
                    raise VerificationError(
                        "mod-(k+1) identity fails",
                        {"k": k, "m": m, "s": s, "left": str(left),
                         "right": str(right), "count": count},
                    )
                checked += 1
    return checked


def sweep_balanced() -> int:
    """The balanced transformation on every (u, v) profile with k <= 2 and
    entries <= 3, at the profile's least n and every s.  Each profile builds
    its τ-word, the alpha/beta form of its tops and that form's polynomial
    once; at each s both sides, integer pairs (num, den), must satisfy
    num == count * den, count the polynomial's coefficient of x^s."""
    checked = 0
    for k in (1, 2):
        for u in combinations_with_replacement(range(4), k):
            for v in product(range(1, 4), repeat=k):
                profile = UVProfile(u, v)
                n = profile.min_n()
                _, members = tau_sequence(profile, n)
                counts = closed_forms.permutation_form(n, members, ALL).polynomial()
                for s in range(n + 1):
                    left, right = _balanced_sides(profile, n, s)
                    count = counts.coeff(s)
                    if left[0] != count * left[1] or right[0] != count * right[1]:
                        raise VerificationError(
                            "balanced transformation fails",
                            {"u": list(profile.u), "v": list(profile.v), "n": n,
                             "s": s, "left": str(Fraction(*left)),
                             "right": str(Fraction(*right)), "count": count},
                        )
                    checked += 1
    return checked


def sweep_hypergeom(max_param: int = 5) -> int:
    """Summation formula grid, the mod-(k+1) identity, and balanced profiles."""
    return sweep_pfaff(max_param) + sweep_cor35(2) + sweep_balanced()

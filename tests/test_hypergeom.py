"""Terminating hypergeometric series and the balanced-transformation checks."""

import random
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest

from descentpoly.hypergeom import (
    HypergeometricSpec,
    IllPosedSeriesError,
    UVProfile,
    _side_pair,
    eval_terminating,
    pfaff_saalschutz_lhs,
    pfaff_saalschutz_rhs,
    tau_sequence,
    verify_balanced_identity,
    verify_cor35,
)
from descentpoly.perms import InputError
from descentpoly.polynomials import poch
from descentpoly.verify import sweep_hypergeom


def cor35_as_printed(k, m, s):
    """Both sides of the mod-(k+1) corollary written out for n = (k+1)m:
    poch(s+1, m)^(k+1) and poch(km+1-s, m)^(k+1) times their series."""
    n = (k + 1) * m
    left = HypergeometricSpec(
        numerator=(-(n + 1),) + (-s,) * (k + 1),
        denominator=(-(m + s),) * (k + 1),
    )
    right = HypergeometricSpec(
        numerator=(-(n + 1),) + (-(k * m - s),) * (k + 1),
        denominator=(-((k + 1) * m - s),) * (k + 1),
    )
    return (
        poch(s + 1, m) ** (k + 1) * eval_terminating(left),
        poch(k * m + 1 - s, m) ** (k + 1) * eval_terminating(right),
    )


def term_by_term(spec):
    """The series summed one normalised Fraction term at a time."""
    total, term = Fraction(0), Fraction(1)
    for r in range(spec.termination_index() + 1):
        if r:
            term *= Fraction(
                prod(a + r - 1 for a in spec.numerator),
                r * prod(b + r - 1 for b in spec.denominator),
            )
        total += term
    return total


def pfaff_grid(max_param):
    for a, b in product(range(-max_param, 1), repeat=2):
        for n in range(max_param + 1):
            for c in range(-2 * max_param, max_param + 1):
                yield HypergeometricSpec((-n, a, b), (c, a + b - c - n + 1))


ORACLE_SPECS = [
    *pfaff_grid(5),
    *(HypergeometricSpec((-n, b), (c,))
      for n in range(5) for b in range(-4, 1) for c in range(1, 5)),
    HypergeometricSpec((-3,), ()),
    HypergeometricSpec((-2, -7), (-7,)),
]


class TestEvaluation:
    def test_matches_the_term_by_term_sum(self):
        ill_posed = 0
        for spec in ORACLE_SPECS:
            try:
                spec.validate()
            except IllPosedSeriesError:
                with pytest.raises(IllPosedSeriesError):
                    eval_terminating(spec)
                ill_posed += 1
                continue
            value = eval_terminating(spec)
            assert type(value) is Fraction
            assert value == term_by_term(spec), spec
        assert 0 < ill_posed < len(ORACLE_SPECS)

    def test_matches_the_pochhammer_sum_on_a_seeded_grid(self):
        """Sum_r prod (a)_r / (r! prod (b)_r), one Fraction term at a time;
        an ill-posed spec raises with the message its first fault gives."""
        rng = random.Random(1729)
        specs = [
            HypergeometricSpec(
                tuple(rng.randint(-6, 3) for _ in range(rng.randint(1, 4))),
                tuple(rng.randint(-6, 4) for _ in range(rng.randint(0, 3))),
            )
            for _ in range(600)
        ]
        seen = {"r_max = 0": 0, "negative denominator": 0, "ill-posed": 0}
        for spec in specs:
            nonpos = [-a for a in spec.numerator if a <= 0]
            r_max = min(nonpos, default=None)
            early = [b for b in spec.denominator if b <= 0 and r_max is not None
                     and -b < r_max]
            if r_max is None or early:
                message = (
                    "series does not terminate: no non-positive numerator parameter"
                    if r_max is None else
                    f"denominator parameter {early[0]} vanishes before "
                    f"termination at {r_max}"
                )
                with pytest.raises(IllPosedSeriesError) as info:
                    eval_terminating(spec)
                assert str(info.value) == message
                seen["ill-posed"] += 1
                continue
            expected = sum(
                Fraction(
                    prod(poch(a, r) for a in spec.numerator),
                    factorial(r) * prod(poch(b, r) for b in spec.denominator),
                )
                for r in range(r_max + 1)
            )
            value = eval_terminating(spec)
            assert type(value) is Fraction
            assert value == expected, spec
            seen["r_max = 0"] += r_max == 0
            seen["negative denominator"] += min(spec.denominator, default=0) < 0
        assert all(seen.values()), seen

    def test_binomial_theorem_special_case(self):
        # 1F0(-n; ; 1) at unit argument is (1-1)^n = 0 for n >= 1
        assert eval_terminating(HypergeometricSpec((-3,), ())) == 0
        # 2F1(-n, b; b; 1) with matching parameters also telescopes to 0
        assert eval_terminating(HypergeometricSpec((-2, -7), (-7,))) == 0

    def test_chu_vandermonde(self):
        # 2F1(-n, b; c; 1) = (c-b)_n / (c)_n
        from descentpoly.polynomials import poch

        for n in range(5):
            for b in range(-4, 1):
                for c in range(1, 5):
                    lhs = eval_terminating(HypergeometricSpec((-n, b), (c,)))
                    rhs = Fraction(poch(c - b, n), poch(c, n))
                    assert lhs == rhs

    def test_ill_posed_rejected(self):
        with pytest.raises(IllPosedSeriesError):
            eval_terminating(HypergeometricSpec((1, 2), (3,)))  # never terminates
        with pytest.raises(IllPosedSeriesError):
            # denominator (-1)_r vanishes at r = 2, before termination at 3
            eval_terminating(HypergeometricSpec((-3, 1), (-1,)))

    def test_unbalanced_side_rejected_unless_its_prefactor_is_zero(self):
        unbalanced = HypergeometricSpec((-1,), (1,))
        with pytest.raises(ValueError, match="top sum -1, bottom sum 1"):
            _side_pair(1, unbalanced)
        assert _side_pair(0, unbalanced) == (0, 1)


class TestPfaffSaalschutz:
    def test_exact_grid(self):
        checked = 0
        for a in range(-4, 1):
            for b in range(-4, 1):
                for n in range(5):
                    for c in range(-8, 5):
                        try:
                            lhs = pfaff_saalschutz_lhs(n, a, b, c)
                            rhs = pfaff_saalschutz_rhs(n, a, b, c)
                        except IllPosedSeriesError:
                            continue
                        assert lhs == rhs
                        checked += 1
        assert checked > 100


class TestProfiles:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            UVProfile((1, 0), (1, 1))  # u must be weakly increasing
        with pytest.raises(ValueError):
            UVProfile((0,), (0,))  # v must be positive

    def test_pinned_tau_sequence(self):
        profile = UVProfile((0, 1, 1, 5), (2, 3, 1, 2))
        bits, members = tau_sequence(profile, 16)
        assert bits == "0010100101011101"
        assert members.members == (3, 5, 8, 10, 12, 13, 14, 16)

    def test_tau_needs_enough_room(self):
        profile = UVProfile((0, 1, 1, 5), (2, 3, 1, 2))
        with pytest.raises(ValueError):
            tau_sequence(profile, profile.min_n() - 1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: UVProfile((), ()), "u and v must be nonempty and equally long"),
            (lambda: UVProfile((0,), (0,)), "need u_i >= 0 and v_i >= 1"),
            (lambda: UVProfile((1, 0), (1, 1)), "u must be weakly increasing"),
            (lambda: tau_sequence(UVProfile((0,), (1,)), 1), "need n >= 2 for this profile"),
        ],
        ids=["lengths", "ranges", "order", "room"],
    )
    def test_bad_profiles_raise_input_error(self, build, message):
        with pytest.raises(InputError) as info:
            build()
        assert str(info.value) == message


class TestBalancedIdentity:
    def test_pinned_profile_all_s(self):
        profile = UVProfile((0, 1, 1, 5), (2, 3, 1, 2))
        for s in range(17):
            left, right, count = verify_balanced_identity(profile, 16, s)
            assert left == right == count

    def test_small_profiles(self):
        for u, v in [((0,), (1,)), ((0,), (3,)), ((1, 2), (2, 1)), ((0, 0), (1, 2))]:
            profile = UVProfile(u, v)
            n = profile.min_n()
            for s in range(n + 1):
                left, right, count = verify_balanced_identity(profile, n, s)
                assert left == right == count

    def test_mod_specialization(self):
        for k in (1, 2):
            for m in (1, 2):
                for s in range(k * m + 1):
                    left, right, count = verify_cor35(k, m, s)
                    assert left == right == count

    def test_sweep(self):
        assert sweep_hypergeom(3) > 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_mod_specialization_as_printed(self, k, m):
        for s in range(k * m + 1):
            left, right, count = verify_cor35(k, m, s)
            assert (left, right) == cor35_as_printed(k, m, s)
            assert left == count

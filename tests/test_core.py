"""Sets, permutations, and exact polynomial arithmetic."""

import random
from math import factorial, prod

import pytest

from descentpoly.perms import (
    InputError,
    all_permutations,
    check_permutation,
    cycles,
    format_permutation,
    from_cycles,
    parse_permutation,
)
from descentpoly.polynomials import (
    BivarPolynomial,
    IntPolynomial,
    binom,
    multinomial,
    poch,
)
from descentpoly.sets import (
    ALL,
    EMPTY,
    EVENS,
    ODDS,
    Explicit,
    ResidueClasses,
    at_least,
    explicit_set,
    parse_set,
    residue_set,
)
from descentpoly.stats import DescentQuery, brute_poly


class TestSets:
    def test_membership_and_restriction(self):
        s = explicit_set([2, 3, 5])
        assert 2 in s and 4 not in s and 0 not in s
        assert s.restrict(4) == (2, 3)
        assert s.complement_in(4) == (1, 4)
        assert EVENS.restrict(7) == (2, 4, 6)
        assert ODDS.restrict(4) == (1, 3)
        assert at_least(4).restrict(6) == (4, 5, 6)
        assert ALL.restrict(3) == (1, 2, 3)
        assert EMPTY.restrict(5) == ()

    def test_nonpositive_integers_never_members(self):
        for s in (ALL, EVENS, ODDS, at_least(1), explicit_set([1])):
            assert 0 not in s and -2 not in s

    def test_explicit_membership_is_the_positive_members(self):
        rng = random.Random(7)
        for size in (0, 1, 5, 12):
            members = rng.sample(range(1, 40), size)
            s = explicit_set(members)
            for z in (0, -1, -rng.randrange(2, 50), True, False,
                      *members, *range(-3, 45)):
                assert (z in s) == (z >= 1 and z in members), (members, z)

    def test_parse_round_trip(self):
        for text in ("all", "{2,3,5}", "mod:2:0", "geq:4", "{1}|mod:3:0,1", "{}"):
            s = parse_set(text)
            assert parse_set(str(s)).restrict(12) == s.restrict(12)

    @pytest.mark.parametrize(
        "build, normalise, message",
        [
            (Explicit, explicit_set, "members must be sorted and distinct"),
            (
                lambda v: ResidueClasses(3, v),
                lambda v: residue_set(3, v),
                "residues must be sorted and distinct",
            ),
        ],
        ids=["explicit", "residues"],
    )
    @pytest.mark.parametrize("values", [(2, 1), (1, 1)], ids=["unsorted", "repeated"])
    def test_constructors_need_sorted_distinct_values(
        self, build, normalise, message, values
    ):
        with pytest.raises(InputError, match=message):
            build(values)
        assert build(tuple(sorted(set(values)))) == normalise(values)

    def test_parse_examples(self):
        assert parse_set("mod:2:0").restrict(6) == (2, 4, 6)
        assert parse_set("{2,3,5}|geq:8").restrict(9) == (2, 3, 5, 8, 9)
        with pytest.raises(ValueError):
            parse_set("mod:0:1")
        with pytest.raises(ValueError):
            parse_set("bogus:3")


class TestPerms:
    def test_check_and_parse(self):
        assert parse_permutation("54213") == (5, 4, 2, 1, 3)
        assert parse_permutation("10,3,1,2,4,5,6,7,8,9")[0] == 10
        assert format_permutation((5, 4, 2, 1, 3)) == "54213"
        with pytest.raises(ValueError):
            check_permutation((1, 1, 2))
        with pytest.raises(ValueError):
            check_permutation((0, 1))

    def test_cycles_round_trip(self):
        for p in all_permutations(5):
            assert from_cycles(cycles(p), 5) == p

    def test_all_permutations_count(self):
        assert len(list(all_permutations(4))) == 24


class TestScalars:
    def test_poch(self):
        assert poch(3, 4) == 3 * 4 * 5 * 6
        assert poch(-2, 3) == 0
        assert poch(-2, 2) == 2
        assert poch(7, 0) == 1

    def test_poch_closed_form_matches_its_product(self):
        for a in range(-30, 31):
            for r in range(-30, 31):
                if r < 0:
                    with pytest.raises(ValueError, match="r >= 0"):
                        poch(a, r)
                else:
                    assert poch(a, r) == prod(a + i for i in range(r)), (a, r)

    def test_binom(self):
        assert binom(7, 3) == 35
        assert binom(-1, 2) == 0  # negative upper index vanishes by convention
        assert binom(3, 0) == 1
        assert binom(2, 5) == 0
        with pytest.raises(ValueError):
            binom(3, -1)

    def test_multinomial(self):
        assert multinomial((2, 2, 2, 2)) == 2520
        assert multinomial((0, 3)) == 1

    @pytest.mark.parametrize(
        "parts", [(), (0,), (0, 2, 0), (1,) * 9, (3, 2, 2, 2), (8000, 8000)],
        ids=lambda parts: str(parts[:4]) + ("…" if len(parts) > 4 else ""),
    )
    def test_multinomial_is_the_factorial_quotient(self, parts):
        quotient = factorial(sum(parts)) // prod(map(factorial, parts))
        assert multinomial(parts) == quotient
        assert multinomial(iter(parts)) == quotient  # one pass over any iterable


class TestPolynomials:
    def test_arithmetic(self):
        p = IntPolynomial({0: 1, 1: 2})
        assert p.degree == 1
        assert IntPolynomial().degree == -1

    def test_bivariate(self):
        b = BivarPolynomial({(1, 0): 2, (0, 1): 3})
        assert b.specialize_second(1).coeff_list() == [3, 2]
        assert b.specialize_first(2).coeff_list() == [4, 3]
        assert (b.coeff(1, 0), b.coeff(0, 1), b.coeff(1, 1)) == (2, 3, 0)
        assert b and not BivarPolynomial() and not BivarPolynomial({(2, 2): 0})

    def test_value_semantics_and_spelling(self):
        assert brute_poly(0, DescentQuery(ALL, ALL)) == 1
        assert len({IntPolynomial({0: 1, 2: 3}), IntPolynomial({2: 3, 0: 1})}) == 1
        pair = {BivarPolynomial({(1, 0): 2}), BivarPolynomial({(1, 0): 2, (0, 1): 0})}
        assert len(pair) == 1
        assert repr(IntPolynomial({0: 1, 2: 3})) == "1 + 3*x^2"
        assert repr(IntPolynomial({1: 1, 2: 1, 3: 2})) == "x + x^2 + 2*x^3"
        assert repr(IntPolynomial({1: 5})) == "5*x"
        b = BivarPolynomial({(0, 0): 1, (2, 1): 5, (0, 3): 4})
        assert repr(b) == "1 + 4*v^3 + 5*u^2*v^1"

    def test_both_types_share_one_sparse_body(self):
        for one, other in ((IntPolynomial(), BivarPolynomial()),
                           (IntPolynomial({0: 1}), BivarPolynomial({(0, 0): 1}))):
            assert one != other and other != one
            assert one == type(one)(dict(one.items()))
        assert hash(IntPolynomial({0: 1, 2: 3})) == hash(IntPolynomial({2: 3, 0: 1, 5: 0}))
        assert hash(BivarPolynomial({(1, 2): 3})) == hash(BivarPolynomial({(1, 2): 3, (0, 0): 0}))
        assert IntPolynomial({-1: 0}) == IntPolynomial() == 0
        assert not IntPolynomial({-1: 0}) and repr(IntPolynomial({-1: 0})) == "0"
        for make, key in ((IntPolynomial, -1), (BivarPolynomial, (-1, 0)),
                          (BivarPolynomial, (0, -1)), (BivarPolynomial, (2, -1))):
            with pytest.raises(ValueError, match="negative exponent"):
                make({key: 1})
        p = IntPolynomial.from_coeffs([0, 2, 0, 0])
        assert p == IntPolynomial({1: 2}) and p.degree == 1 and p.coeff_list() == [0, 2]
        b = BivarPolynomial({(0, 0): 1, (2, 1): 5, (0, 3): 4, (1, 2): -3})
        assert b.specialize_first(2) == IntPolynomial({0: 1, 1: 20, 2: -6, 3: 4})
        assert b.specialize_second(3) == IntPolynomial({0: 109, 1: -27, 2: 15})
        assert b.specialize_first(0) == IntPolynomial({0: 1, 3: 4})
        assert b.specialize_second(0) == IntPolynomial({0: 1})


def test_from_cycles_fills_in_the_fixed_points():
    assert from_cycles([[1, 3]], 4) == (3, 2, 1, 4)
    assert from_cycles([[2, 4, 3]], 5) == (1, 4, 2, 3, 5)
    assert from_cycles([], 3) == (1, 2, 3)

from fractions import Fraction
from math import gcd, isqrt

import pytest

from fwpp.diophantine import NonIntegral, derive_equation, mutate_solution, slice_roots
from fwpp.fwps import is_well_formed
from fwpp.pell357 import (
    EQUATION,
    NotASolution,
    component_of,
    family_a1_fixed,
    family_a2_fixed,
    is_solution,
    scan_components,
    solution_weights,
)


def brute_force_solutions(bound):
    """Independent oracle: full grid scan of 12 a0 a1 a2 = 3 a0^2 + 5 a1^2
    + 7 a2^2 with every entry at most the bound."""
    return {
        (a0, a1, a2)
        for a0 in range(1, bound + 1)
        for a1 in range(1, bound + 1)
        for a2 in range(1, bound + 1)
        if is_solution((a0, a1, a2))
    }


def quadratic_oracle(a1, a2):
    """(N, roots) from 5 a1^2 (a2^2 - 1) + 7 a2^2 (a1^2 - 1) = 3 N^2 with
    N >= 0, the roots of the quadratic in a0 being 2 a1 a2 -+ N; (None,
    None) when no such N exists."""
    lhs = 5 * a1**2 * (a2**2 - 1) + 7 * a2**2 * (a1**2 - 1)
    if lhs < 0 or lhs % 3 or isqrt(lhs // 3) ** 2 != lhs // 3:
        return None, None
    n = isqrt(lhs // 3)
    return n, (2 * a1 * a2 - n, 2 * a1 * a2 + n)


class TestEquation:
    def test_matches_weight_derivation(self):
        eq, sol, _ = derive_equation((12, 5, 7))
        assert eq == EQUATION
        assert sol == (2, 1, 1)

    def test_degree(self):
        assert Fraction(EQUATION.m**2, EQUATION.r * EQUATION.k**2) == \
            Fraction(144, 105)

    def test_base_solutions(self):
        assert is_solution((2, 1, 1))
        assert is_solution((3, 1, 4))
        assert not is_solution((1, 1, 1))


class TestCondition:
    """slice_roots(EQUATION, a1, a2) is the 3-5-7 closed form: the roots
    2 a1 a2 -+ N with 3 N^2 = 5 a1^2 (a2^2 - 1) + 7 a2^2 (a1^2 - 1)."""

    def test_zero_case(self):
        # N = 0: the double root, twice
        assert slice_roots(EQUATION, 1, 1) == (2, 2)

    def test_family_seed(self):
        assert slice_roots(EQUATION, 1, 4) == (3, 13)

    def test_failure(self):
        assert slice_roots(EQUATION, 2, 3) is None

    @pytest.mark.parametrize("a1, a2", [(0, 3), (3, 0), (0, 1), (-1, 0)])
    def test_negative_left_side(self, a1, a2):
        assert quadratic_oracle(a1, a2) == (None, None)
        assert slice_roots(EQUATION, a1, a2) is None

    def test_matches_oracle(self):
        pairs = [(a1, a2) for a1 in range(-20, 200) for a2 in range(-20, 200)]
        pairs += [(1, a2) for _, a2, _ in family_a1_fixed(80)]
        pairs += [(a1, 1) for _, a1, _ in family_a2_fixed(40)]
        solvable = 0
        for a1, a2 in pairs:
            n, roots = quadratic_oracle(a1, a2)
            assert slice_roots(EQUATION, a1, a2) == roots, (a1, a2)
            solvable += n is not None
        assert solvable > 80 + 40  # the grid holds solvable pairs too

    def test_matches_discriminant(self):
        # 3 N^2 condition holds iff the quadratic in a0 has integer roots
        for a1 in range(1, 30):
            for a2 in range(1, 30):
                n, _ = quadratic_oracle(a1, a2)
                roots = slice_roots(EQUATION, a1, a2)
                assert (n is not None) == (roots is not None)
                if roots is not None:
                    alpha, beta = roots
                    assert beta - alpha == 2 * n
                    assert alpha + beta == 4 * a1 * a2
                    assert 3 * alpha * beta == 5 * a1**2 + 7 * a2**2


class TestFamilies:
    def test_a1_fixed_first_rows(self):
        assert family_a1_fixed(3) == [(2, 1, 0), (3, 4, 1), (22, 31, 8)]

    def test_a2_fixed_first_rows(self):
        assert family_a2_fixed(3) == [(2, 1, 0), (26, 55, 12), (2858, 6049, 1320)]

    def test_recurrences(self):
        rows = family_a1_fixed(6)
        for n in range(2, 6):
            for col in range(3):
                assert rows[n][col] == 8 * rows[n - 1][col] - rows[n - 2][col]
        rows = family_a2_fixed(4)
        for n in range(2, 4):
            for col in range(3):
                assert rows[n][col] == 110 * rows[n - 1][col] - rows[n - 2][col]

    def test_rows_are_solutions(self):
        for a0, a2, m in family_a1_fixed(8):
            assert is_solution((a0, 1, a2))
            assert a2**2 - 1 == 15 * m**2
        for a0, a1, m in family_a2_fixed(5):
            assert is_solution((a0, a1, 1))
            assert a1**2 - 1 == 21 * m**2

    def test_pell_solutions_exhaust_small_a2(self):
        # every a2 <= 10^4 with a2^2 - 1 = 15 M^2 appears in the family
        family = {a2 for _, a2, _ in family_a1_fixed(10)}
        assert max(family) > 10**4
        pell = {a2 for a2 in range(1, 10**4 + 1)
                if isqrt(15 * a2**2 - 15) ** 2 == 15 * a2**2 - 15}
        assert pell == {a2 for a2 in family if a2 <= 10**4}


class TestComponents:
    def test_2_1_1_singleton(self):
        assert component_of((2, 1, 1)).solutions == ((2, 1, 1),)

    def test_roots_pair_up(self):
        comp = component_of((3, 1, 4))
        assert comp.solutions == ((3, 1, 4), (13, 1, 4))

    def test_1_5_4(self):
        comp = component_of((1, 5, 4))
        assert comp.solutions == ((1, 5, 4), (79, 5, 4))

    @pytest.mark.parametrize("family", ["a1", "a2"])
    def test_matches_quadratic_roots(self, family):
        # the Vieta partner 4 a1 a2 - a0 against both roots from the
        # discriminant, along 60 rows of each Pell family
        if family == "a1":
            sols = [(a0, 1, a2) for a0, a2, _ in family_a1_fixed(60)]
        else:
            sols = [(a0, a1, 1) for a0, a1, _ in family_a2_fixed(60)]
        for s in sols:
            roots = slice_roots(EQUATION, s[1], s[2])
            want = tuple(sorted({(root, s[1], s[2]) for root in roots}))
            assert component_of(s).solutions == want

    def test_not_a_solution(self):
        with pytest.raises(NotASolution):
            component_of((1, 1, 1))

    @pytest.mark.parametrize("s", [(0, 0, 0), (-2, -1, 1), (-3, 1, -4)])
    def test_non_positive_a0_rejected(self, s):
        # the pivot-0 partner of a0 <= 0 is not a positive integer
        with pytest.raises(NonIntegral):
            component_of(s)

    def test_size_at_most_two(self):
        comps = scan_components(500)
        assert comps
        singletons = []
        for comp in comps:
            assert 1 <= len(comp.solutions) <= 2
            for s in comp.solutions:
                assert is_solution(s)
            if len(comp.solutions) == 1:
                singletons.append(comp.solutions[0])
        assert singletons == [(2, 1, 1)]

    @pytest.mark.parametrize("bound", [120, 150, 200, 500])
    def test_matches_grid_scan(self, bound):
        # one component per solvable (a1, a2) in the box whose smaller
        # root is in the box too and coprime to (a1, a2)
        want = []
        for a1 in range(1, bound + 1):
            for a2 in range(1, bound + 1):
                _, roots = quadratic_oracle(a1, a2)
                if roots and 1 <= roots[0] <= bound and gcd(gcd(roots[0], a1), a2) == 1:
                    want.append(component_of((roots[0], a1, a2)))
        assert scan_components(bound) == want

    def test_matches_brute_force(self):
        bound = 120
        oracle = {s for s in brute_force_solutions(bound)
                  if gcd(gcd(s[0], s[1]), s[2]) == 1}
        from_components = set()
        for comp in scan_components(bound):
            for s in comp.solutions:
                if max(s) <= bound:
                    from_components.add(s)
        assert from_components == oracle


class TestMutationRigidity:
    def test_pivots_1_and_2_non_integral(self):
        for s in [(2, 1, 1), (3, 1, 4), (1, 5, 4), (79, 5, 4)]:
            for pivot in (1, 2):
                with pytest.raises(NonIntegral):
                    mutate_solution(EQUATION, s, pivot)

    def test_pivot_0_swaps_roots(self):
        assert mutate_solution(EQUATION, (3, 1, 4), 0) == (13, 1, 4)
        assert mutate_solution(EQUATION, (1, 5, 4), 0) == (79, 5, 4)
        assert mutate_solution(EQUATION, (79, 5, 4), 0) == (1, 5, 4)

    def test_2_1_1_fixed_point(self):
        # the zero-discriminant solution maps to itself at pivot 0
        assert mutate_solution(EQUATION, (2, 1, 1), 0) == (2, 1, 1)


class TestWeights:
    def test_solution_weights(self):
        assert solution_weights((2, 1, 1)) == (12, 5, 7)
        assert solution_weights((1, 5, 4)) == (3, 125, 112)

    def test_coprime_matches_well_formed(self):
        for comp in scan_components(200):
            for s in comp.solutions:
                coprime = gcd(gcd(s[0], s[1]), s[2]) == 1
                assert is_well_formed(solution_weights(s)) == coprime

    def test_weight_derivation_round_trip(self):
        for a0, a2, _ in family_a1_fixed(5):
            eq, sol, _ = derive_equation(solution_weights((a0, 1, a2)))
            assert eq == EQUATION
            assert sol == (a0, 1, a2)

"""The equation 12 x0 x1 x2 = 3 x0^2 + 5 x1^2 + 7 x2^2 and its Pell families.

Fixing (a1, a2) makes the equation quadratic in x0; the two roots form a
mutation component of size at most two. Setting a1 = 1 (resp. a2 = 1) turns
the solvability condition into the Pell equation a2^2 - 1 = 15 M^2 (resp.
a1^2 - 1 = 21 M^2), giving two infinite families of minimal weights. No
floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from operator import index

from .diophantine import DiophantineEquation, _solution, mutate_solution, verify_solution
from .fwps import is_well_formed
from .lattice import format_ints

EQUATION = DiophantineEquation(m=12, k=1, c=(3, 5, 7), r=105)


class NotASolution(ValueError):
    pass


@dataclass(frozen=True)
class QuadraticSlice:
    """The quadratic 3 x^2 - 12 a1 a2 x + (5 a1^2 + 7 a2^2) at fixed
    (a1, a2), with its integer roots when they exist."""

    a1: int
    a2: int
    roots: tuple[int, int] | None


@dataclass(frozen=True)
class Component:
    """The solutions sharing (a1, a2): one or both roots of the quadratic."""

    solutions: tuple[tuple[int, int, int], ...]


def is_solution(s) -> bool:
    return verify_solution(EQUATION, s)


def _perfect_square(n: int):
    if n < 0:
        return None
    s = isqrt(n)
    return s if s * s == n else None


def condition_357(a1: int, a2: int):
    """N >= 0 with 5 a1^2 (a2^2 - 1) + 7 a2^2 (a1^2 - 1) = 3 N^2, or None.

    N = 0 occurs exactly for a1 = a2 = 1 (the zero-discriminant case).
    """
    a1, a2 = index(a1), index(a2)
    lhs = 5 * a1**2 * (a2**2 - 1) + 7 * a2**2 * (a1**2 - 1)
    if lhs % 3 != 0:
        return None
    return _perfect_square(lhs // 3)


def solve_quadratic_357(a1: int, a2: int) -> QuadraticSlice:
    """Integer roots of 12 x a1 a2 = 3 x^2 + 5 a1^2 + 7 a2^2.

    The discriminant 144 a1^2 a2^2 - 12 (5 a1^2 + 7 a2^2) is 12 times
    condition_357's left side: a perfect square 36 N^2 iff that gives N, and
    then the roots are 2 a1 a2 -+ N.
    """
    a1, a2 = index(a1), index(a2)
    n = condition_357(a1, a2)
    roots = None if n is None else (2 * a1 * a2 - n, 2 * a1 * a2 + n)
    return QuadraticSlice(a1=a1, a2=a2, roots=roots)


def _pell_family(count, coeff, a_fixed_is_a1, var_seeds, m_seeds, c):
    if count < 1:
        raise ValueError("count must be >= 1")
    rows = []
    var, m = list(var_seeds), list(m_seeds)
    for n in range(count):
        if n >= 2:
            var.append(coeff * var[-1] - var[-2])
            m.append(coeff * m[-1] - m[-2])
        a0 = 2 * var[n] - c * m[n]  # the smaller root, as N = c M here
        sol = (a0, 1, var[n]) if a_fixed_is_a1 else (a0, var[n], 1)
        assert is_solution(sol)
        assert gcd(gcd(sol[0], sol[1]), sol[2]) == 1
        rows.append((a0, var[n], m[n]))
    return rows


def family_a1_fixed(count: int):
    """Terms (a0, a2, M) of the a1 = 1 family: a2^2 - 1 = 15 M^2, all three
    sequences satisfying x(n+1) = 8 x(n) - x(n-1)."""
    rows = _pell_family(count, 8, True, [1, 4], [0, 1], 5)
    for a0, a2, m in rows:
        assert a2**2 - 1 == 15 * m**2
    return rows


def family_a2_fixed(count: int):
    """Terms (a0, a1, M) of the a2 = 1 family: a1^2 - 1 = 21 M^2, all three
    sequences satisfying x(n+1) = 110 x(n) - x(n-1)."""
    rows = _pell_family(count, 110, False, [1, 55], [0, 12], 7)
    for a0, a1, m in rows:
        assert a1**2 - 1 == 21 * m**2
    return rows


def _checked_solution(s) -> tuple[int, int, int]:
    s = _solution(s)
    if not is_solution(s):
        raise NotASolution(f"{format_ints(s)} does not solve the equation")
    return s


def component_of(s) -> Component:
    """The mutation component of a solution: the one or two solutions
    sharing its (a1, a2), since a1 and a2 are fixed under mutation. By
    Vieta, the other root of the quadratic in a0 is the pivot-0 mutation
    4 a1 a2 - a0."""
    s = _checked_solution(s)
    sols = sorted({s, mutate_solution(EQUATION, s, 0)})
    return Component(solutions=tuple(sols))


def coprime_implies_well_formed_check(s) -> bool:
    """True iff the weights (3 a0^2, 5 a1^2, 7 a2^2) are pairwise coprime;
    for solutions this coincides with gcd(a0, a1, a2) = 1."""
    return is_well_formed(solution_weights(_checked_solution(s)))


def solution_weights(s) -> tuple[int, int, int]:
    a0, a1, a2 = _solution(s)
    return (3 * a0**2, 5 * a1**2, 7 * a2**2)


def scan_components(bound: int):
    """Brute-force scan of the (a1, a2) grid up to the bound: all components
    whose smaller solution has every entry <= bound."""
    comps = []
    for a1 in range(1, bound + 1):
        for a2 in range(1, bound + 1):
            slice_ = solve_quadratic_357(a1, a2)
            if slice_.roots is None:
                continue
            alpha = slice_.roots[0]
            if alpha < 1 or alpha > bound:
                continue
            if gcd(gcd(alpha, a1), a2) != 1:
                continue
            comps.append(component_of((alpha, a1, a2)))
    return comps

"""The equation 12 x0 x1 x2 = 3 x0^2 + 5 x1^2 + 7 x2^2 and its Pell families.

Fixing (a1, a2) makes the equation quadratic in x0; the two roots, which
diophantine.slice_roots(EQUATION, a1, a2) gives, form a mutation component
of size at most two. Setting a1 = 1 (resp. a2 = 1) turns the solvability
condition into the Pell equation a2^2 - 1 = 15 M^2 (resp. a1^2 - 1 =
21 M^2), giving two infinite families of minimal weights. No floating
point is used anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .diophantine import (DiophantineEquation, _solution, minimal_solutions,
                          mutate_solution, verify_solution)
from .lattice import format_ints

EQUATION = DiophantineEquation(m=12, k=1, c=(3, 5, 7), r=105)


class NotASolution(ValueError):
    pass


Component = namedtuple("Component", "solutions")
Component.__doc__ = """The solutions sharing (a1, a2): one or both roots of the
quadratic, as a sorted tuple of triples."""


def is_solution(s) -> bool:
    return verify_solution(EQUATION, s)


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


def solution_weights(s) -> tuple[int, int, int]:
    return tuple(c * a * a for c, a in zip(EQUATION.c, _solution(s)))


def scan_components(bound: int):
    """The components whose smaller solution has every entry <= bound, in
    (a1, a2) order; pivots 1 and 2 never give an integer."""
    return [component_of(s) for s in minimal_solutions(EQUATION, bound)]

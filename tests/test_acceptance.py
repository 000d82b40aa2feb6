"""Acceptance suite: one test and one printed pass/fail line per criterion."""

from fractions import Fraction
from math import gcd, isqrt

import pytest

from fwpp.diophantine import (
    NonIntegral,
    build_mutation_tree,
    derive_equation,
    descend_to_minimal,
    height,
    mutate_solution,
)
from fwpp.fwps import (
    NotDivisible,
    is_T_singularity,
    mutate_weights,
    quotient_singularity,
    weights_of,
    wps_triangle,
)
from fwpp.lattice import (
    degree,
    dual_polygon,
    make_fano_triangle,
    validate_fano_polygon,
)
from fwpp.mutation import (
    Factor,
    apply_dual_map,
    enumerate_one_step,
    mutate_with,
)
from fwpp.pell357 import EQUATION, component_of, family_a1_fixed, is_solution

from dual_map_oracle import pl_dual_map
from test_diophantine import markov_solutions
from test_fwps import _t_oracle

P2 = make_fano_triangle((1, -1), (-1, 2), (0, -1))
T35 = make_fano_triangle((10, -7), (-5, 2), (0, 1))


def _criterion(capsys, num, label, fn):
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {num} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {num} ({label}): PASS")


def test_criterion_1_example_mutation(capsys):
    def check():
        factor = Factor(w=(0, 1), f=(1, 0), length=1)
        Q = mutate_with(P2, factor)
        assert set(Q) == {(1, 2), (-1, 2), (0, -1)}
        image = apply_dual_map(P2, factor)
        assert image == pl_dual_map(P2, factor)
        assert set(image) == set(dual_polygon(make_fano_triangle(*Q)))

    _criterion(capsys, 1, "example mutation", check)


def test_criterion_2_rigidity_fixtures(capsys):
    def check():
        assert enumerate_one_step(wps_triangle(3, 5, 11)) == []
        assert enumerate_one_step(T35) == []
        inv = weights_of(T35)
        assert (inv.weights, inv.mult) == ((1, 2, 3), 5)
        from fwpp.fwps import cone_singularity
        vs = T35.vertices
        got = {cone_singularity(vs[i], vs[(i + 1) % 3]) for i in range(3)}
        expected = {
            quotient_singularity(5, 1, 3),
            quotient_singularity(10, 1, 3),
            quotient_singularity(15, 1, 11),
        }
        assert {(s.r, s.a) for s in got} == {(s.r, s.a) for s in expected}
        assert not any(is_T_singularity(s) for s in got)

    _criterion(capsys, 2, "rigidity fixtures", check)


def test_criterion_3_markov_tree(capsys):
    def check():
        tree = build_mutation_tree((1, 1, 1), max_depth=5)
        tree_sols = set()
        for n in tree.nodes:
            sol = tuple(isqrt(x) for x in n.weights)
            assert tuple(x * x for x in sol) == n.weights
            tree_sols.add(sol)
        bound = max(max(s) for s in tree_sols)
        oracle = markov_solutions(bound)
        # the depth-truncated tree is exactly the oracle cut at depth 5:
        # every tree solution is a Markov solution, and an oracle solution
        # appears iff its descent chain to (1,1,1) has at most 5 steps
        assert tree_sols <= oracle
        for s in oracle:
            w = tuple(x * x for x in s)
            depth = len(descend_to_minimal(w)) - 1
            assert (s in tree_sols) == (depth <= 5), s
        # a height-capped tree is complete, so there equality is exact
        capped = build_mutation_tree((1, 1, 1), max_height=3000)
        capped_sols = {tuple(isqrt(x) for x in n.weights)
                       for n in capped.nodes}
        assert capped_sols == {s for s in markov_solutions(isqrt(3000))
                               if sum(x * x for x in s) <= 3000}
        # structure: root, unique depth-1 child, branching two thereafter
        # (the symmetric pivots of (1,1,4) dedup to a single child)
        children = [[] for _ in tree.nodes]
        for i, n in enumerate(tree.nodes):
            if n.parent is not None:
                children[n.parent].append(i)
        assert tree.root.weights == (1, 1, 1)
        assert [tree.nodes[c].weights for c in children[0]] == [(1, 1, 4)]
        for n, kids in zip(tree.nodes, children):
            if n.truncated or n.depth == 0:
                continue
            expected = 1 if n.weights == (1, 1, 4) else 2
            assert len(kids) == expected, n

    _criterion(capsys, 3, "Markov tree vs oracle", check)


def test_criterion_4_invariance_suite(capsys, corpus):
    def check():
        checked = 0
        for P in corpus[:200]:
            d = degree(P)
            mult = weights_of(P).mult
            for factor, Q in enumerate_one_step(P):
                checked += 1
                validate_fano_polygon(Q)
                assert degree(Q) == d
                assert mutate_with(Q, factor.inverse()) == P.vertices
                if len(Q) == 3:
                    assert weights_of(make_fano_triangle(*Q)).mult == mult
        assert checked > 0

    _criterion(capsys, 4, "degree/mult invariance over 200 triangles", check)


def test_criterion_5_t_singularity_oracle(capsys):
    def check():
        for r in range(2, 201):
            for a in range(1, r):
                if gcd(a, r) != 1:
                    continue
                s = quotient_singularity(r, 1, a)
                assert is_T_singularity(s) == _t_oracle(r, a), (r, a)

    _criterion(capsys, 5, "T-singularity oracle r <= 200", check)


def test_criterion_6_pell_equation_fixtures(capsys):
    def check():
        eq, sol, _ = derive_equation((12, 5, 7))
        assert eq == EQUATION and sol == (2, 1, 1)
        assert Fraction(eq.m**2, eq.r * eq.k**2) == Fraction(144, 105)
        rows = family_a1_fixed(6)
        assert [a2 for _, a2, _ in rows] == [1, 4, 31, 244, 1921, 15124]
        assert [a0 for a0, _, _ in rows] == [2, 3, 22, 173, 1362, 10723]
        for a0, a2, _ in rows:
            assert is_solution((a0, 1, a2))
        assert component_of((1, 5, 4)).solutions == ((1, 5, 4), (79, 5, 4))
        for a0, a2, _ in rows:
            for pivot in (1, 2):
                with pytest.raises(NonIntegral):
                    mutate_solution(eq, (a0, 1, a2), pivot)

    _criterion(capsys, 6, "3-5-7 equation fixtures", check)


def test_criterion_7_weight_solution_commutation(capsys):
    def commute(eq, s):
        # whenever the solution mutates, the weights c_i a_i^2 mutate to
        # the weights of the mutated solution, at the matching pivot
        w = tuple(c * a**2 for c, a in zip(eq.c, s))
        for pivot in range(3):
            try:
                s2 = mutate_solution(eq, s, pivot)
            except NonIntegral:
                continue
            sorted_pivot = tuple(sorted(w)).index(w[pivot])
            target = mutate_weights(w, sorted_pivot)
            assert target == tuple(sorted(c * a**2 for c, a in zip(eq.c, s2)))

    def check():
        markov_eq, _, _ = derive_equation((1, 1, 1))
        tree = build_mutation_tree((1, 1, 1), max_depth=5)
        for n in tree.nodes:
            commute(markov_eq, tuple(isqrt(x) for x in n.weights))
        for a0, a2, _ in family_a1_fixed(6):
            commute(EQUATION, (a0, 1, a2))

    _criterion(capsys, 7, "weight/solution commutation", check)


def test_criterion_8_minimal_descent(capsys):
    def check():
        path = descend_to_minimal((4, 25, 841))
        assert len(path) == 4 and path[-1] == (1, 1, 1)
        heights = [height(w) for w in path]
        assert all(a > b for a, b in zip(heights, heights[1:]))
        for w in path[:-1]:
            decreasing = set()
            for pivot in range(3):
                try:
                    t = mutate_weights(w, pivot)
                except NotDivisible:
                    continue
                if height(t) < height(w):
                    decreasing.add(t)
            assert len(decreasing) == 1

    _criterion(capsys, 8, "minimal-weight descent", check)

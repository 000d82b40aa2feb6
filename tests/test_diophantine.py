import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import example, given, strategies as st
from sympy import factorint, nextprime

from fwpp.diophantine import (
    _SMALL_PRIMES,
    _TRIAL_LIMIT,
    DiophantineEquation,
    MutationTree,
    NonIntegral,
    TreeNode,
    build_mutation_tree,
    derive_equation,
    descend_to_minimal,
    height,
    minimal_solutions,
    mutate_solution,
    slice_roots,
    square_free_decompose,
    tree_to_dot,
    tree_to_json,
    verify_solution,
)
from fwpp.fwps import NotDivisible, mutate_weights
from fwpp.lattice import decimal_to_int


def markov_solutions(bound):
    """Independent brute-force oracle for 3xyz = x^2 + y^2 + z^2 with all
    entries <= bound: for x <= y <= z one has xy <= z, so scanning pairs
    with xy <= bound and solving the quadratic in z finds everything."""
    sols = set()
    x = 1
    while x * x <= bound:
        for y in range(x, bound // x + 1):
            disc = 9 * x * x * y * y - 4 * (x * x + y * y)
            if disc < 0:
                continue
            s = isqrt(disc)
            if s * s != disc:
                continue
            for num in (3 * x * y - s, 3 * x * y + s):
                if num % 2 == 0 and y <= num // 2 <= bound:
                    sols.add((x, y, num // 2))
        x += 1
    return sols


def square_free_oracle(n):
    """(c, a) with n = c a^2, c square-free, read off sympy's factorint."""
    c = 1
    for p, e in factorint(n).items():
        if e % 2:
            c *= p
    return c, isqrt(n // c)


def derive_oracle(weights):
    """derive_equation as a tuple, by factoring every weight directly."""
    lams = tuple(weights)
    d = gcd(gcd(lams[0], lams[1]), lams[2])
    c, a = zip(*(square_free_oracle(l // d) for l in lams))
    q = Fraction(sum(lams) ** 2, lams[0] * lams[1] * lams[2])
    num_c, num_a = square_free_oracle(q.numerator)
    den_c, den_a = square_free_oracle(q.denominator)
    r = num_c * den_c
    g, S = square_free_oracle(c[0] * c[1] * c[2])
    _, T = square_free_oracle(d * r)
    return ((num_a * num_c, den_a, c, r), tuple(d * x for x in a), (d, S, T, g))


def derived(weights):
    eq, sol, deriv = derive_equation(weights)
    return ((eq.m, eq.k, eq.c, eq.r), sol, (deriv.d, deriv.S, deriv.T, deriv.g))


class TestSquareFree:
    def test_12(self):
        d = square_free_decompose(12)
        assert (d.c, d.a) == (3, 2)

    def test_1(self):
        d = square_free_decompose(1)
        assert (d.c, d.a) == (1, 1)

    def test_169(self):
        d = square_free_decompose(169)
        assert (d.c, d.a) == (1, 13)

    def test_trial_primes_match_trial_division(self):
        assert _SMALL_PRIMES == tuple(
            p for p in range(2, _TRIAL_LIMIT)
            if all(p % q for q in range(2, isqrt(p) + 1)))

    @given(st.integers(1, 10**6))
    def test_reconstruction_and_square_freeness(self, n):
        d = square_free_decompose(n)
        assert d.c * d.a**2 == n
        k = 2
        while k * k <= d.c:
            assert d.c % (k * k) != 0
            k += 1

    @given(st.integers(1, 2 * 10**5))
    def test_matches_factorint_small(self, n):
        d = square_free_decompose(n)
        assert (d.c, d.a) == square_free_oracle(n)

    # The cofactor left after trial division by the primes below 1000 is
    # settled by one isqrt below 1000^3 and by sympy above it; primes below
    # 31623 = isqrt(1000^3) + 1 give products on both sides.
    big_primes = st.one_of(st.integers(1000, 31622),
                           st.integers(31623, 10**7)).map(nextprime)

    @given(st.integers(1, 10**4), big_primes, big_primes, st.booleans())
    @example(1, 1009, 1013, False)
    @example(1, 1009, 1009, True)
    @example(1, 31607, 31627, False)  # 999_634_589 < 1000^3
    @example(1, 31627, 31627, True)   # 1_000_267_129 > 1000^3
    @example(1009, 1013, 1019, False)
    def test_matches_factorint_large_primes(self, small, p, q, square):
        n = small * p * (p if square else q)
        d = square_free_decompose(n)
        assert (d.c, d.a) == square_free_oracle(n)


class TestDeriveEquation:
    def test_markov(self):
        eq, sol, deriv = derive_equation((1, 1, 1))
        assert (eq.m, eq.k, eq.c, eq.r) == (3, 1, (1, 1, 1), 1)
        assert sol == (1, 1, 1)
        assert (deriv.d, deriv.S, deriv.T) == (1, 1, 1)

    def test_12_5_7(self):
        eq, sol, _ = derive_equation((12, 5, 7))
        assert (eq.m, eq.k, eq.c, eq.r) == (12, 1, (3, 5, 7), 105)
        assert sol == (2, 1, 1)
        assert str(eq) == "12*x0*x1*x2 = 3*x0^2 + 5*x1^2 + 7*x2^2"

    def test_text_past_the_digit_limit(self, without_digit_limit):
        m = 10**4400 + 7
        eq = DiophantineEquation(m=m, k=m + 2, c=(m, 1, 3), r=1)
        assert str(eq) == without_digit_limit(
            lambda: f"{m}*x0*x1*x2 = {m + 2}*({m}*x0^2 + x1^2 + 3*x2^2)")

    def test_114_same_markov_equation(self):
        eq, sol, _ = derive_equation((1, 1, 4))
        assert (eq.m, eq.k, eq.c) == (3, 1, (1, 1, 1))
        assert sol == (1, 1, 2)

    def test_degree_identity(self, corpus):
        from fwpp.fwps import weights_of
        for P in corpus[:60]:
            w = weights_of(P).weights
            eq, sol, deriv = derive_equation(w)
            if deriv.d == 1 and deriv.S == 1 and deriv.T == 1:
                assert Fraction(eq.m**2, eq.r * eq.k**2) == \
                    Fraction(sum(w) ** 2, w[0] * w[1] * w[2])
            assert verify_solution(eq, sol) or deriv.S != 1 or deriv.T != 1

    def test_equation_invariant_under_weight_mutation(self):
        for w in [(1, 1, 1), (1, 1, 4), (5, 7, 12), (1, 4, 25), (2, 3, 5)]:
            eq, _, _ = derive_equation(tuple(sorted(w)))
            for pivot in range(3):
                try:
                    target = mutate_weights(w, pivot)
                except NotDivisible:
                    continue
                eq2, _, _ = derive_equation(target)
                assert (eq2.m, eq2.k, eq2.r) == (eq.m, eq.k, eq.r)
                assert sorted(eq2.c) == sorted(eq.c)


class TestDeriveFromMinimalRoot:
    """derive_equation against the direct factorisation of every weight."""

    @pytest.mark.parametrize("root", [(1, 1, 1), (1, 1, 2), (1, 2, 3),
                                      (3, 5, 7), (5, 7, 12)],
                             ids=lambda r: ",".join(map(str, r)))
    def test_tree_nodes_in_shuffled_orders(self, root):
        rng = random.Random(sum(root))
        for node in build_mutation_tree(root, max_depth=7).nodes:
            for w in (node.weights, tuple(rng.sample(node.weights, 3))):
                assert derived(w) == derive_oracle(w), w

    def test_all_small_triples(self):
        for w in itertools.product(range(1, 31), repeat=3):
            assert derived(w) == derive_oracle(w), w

    @given(st.tuples(*[st.integers(1, 10**7)] * 3))
    def test_random_triples(self, w):
        assert derived(w) == derive_oracle(w)

    def test_max_branch_step_11_is_fast(self, max_growth_branch):
        w = max_growth_branch[11]
        start = time.perf_counter()
        eq, sol, _ = derive_equation(w)
        assert time.perf_counter() - start < 1.0
        assert (eq.m, eq.k, eq.c, eq.r) == (3, 1, (1, 1, 1), 1)
        assert verify_solution(eq, sol)
        assert tuple(x * x for x in sol) == w

    def test_only_the_minimal_weights_are_factored(self, monkeypatch):
        # n is prime and minimal in its component, while n + 2 is a product
        # of two 62-bit primes, so factoring the degree's numerator
        # (n + 2)^2 would take seconds.
        n = 23635686069381106878371147206481833619
        root = descend_to_minimal((1, 1, n))[-1]
        factored = []

        def spy(m, *args, **kwargs):
            assert any(l % m == 0 for l in root), f"factorint({m})"
            factored.append(m)
            return factorint(m, *args, **kwargs)

        monkeypatch.setattr(sympy, "factorint", spy)
        assert derived((1, 1, n)) == ((n + 2, 1, (1, 1, n), n), (1, 1, 1),
                                      (1, 1, 1, n))
        assert factored == [n]


class TestSolutions:
    def test_verify(self):
        eq, _, _ = derive_equation((1, 1, 1))
        assert verify_solution(eq, (1, 1, 1))
        assert not verify_solution(eq, (1, 1, 3))
        eq4, _, _ = derive_equation((12, 5, 7))
        assert verify_solution(eq4, (3, 1, 4))

    def test_mutate_markov(self):
        eq, _, _ = derive_equation((1, 1, 1))
        assert mutate_solution(eq, (1, 1, 1), 0) == (2, 1, 1)
        assert mutate_solution(eq, (1, 1, 2), 2) == (1, 1, 1)

    def test_non_integral(self):
        eq, _, _ = derive_equation((12, 5, 7))
        with pytest.raises(NonIntegral):
            mutate_solution(eq, (2, 1, 1), 1)

    @pytest.mark.parametrize("pivot", [3, -1])
    def test_bad_pivot(self, pivot):
        eq, _, _ = derive_equation((1, 1, 1))
        with pytest.raises(ValueError, match=f"pivot must be 0, 1 or 2, got {pivot}"):
            mutate_solution(eq, (1, 1, 1), pivot)


def minimal_solutions_oracle(eq, bound):
    """minimal_solutions by brute force: every coprime solution in the box
    1..bound, in (x1, x2, x0) order, that no mutate_solution lowers
    sum c_i x_i^2."""
    def weight(s):
        return sum(c * x * x for c, x in zip(eq.c, s))

    def lowers(s, pivot):
        try:
            return weight(mutate_solution(eq, s, pivot)) < weight(s)
        except NonIntegral:
            return False

    box = range(1, bound + 1)
    return [(x0, x1, x2) for x1 in box for x2 in box for x0 in box
            if gcd(gcd(x0, x1), x2) == 1 and verify_solution(eq, (x0, x1, x2))
            and not any(lowers((x0, x1, x2), p) for p in range(3))]


class TestMinimalSolutions:
    @pytest.mark.parametrize("eq, x1, x2, roots", [
        (DiophantineEquation(m=3, k=1, c=(1, 1, 1), r=1), 1, 1, (1, 2)),
        (DiophantineEquation(m=12, k=1, c=(3, 5, 7), r=105), 1, 1, (2, 2)),
        (DiophantineEquation(m=12, k=1, c=(3, 5, 7), r=105), 2, 3, None),
        (DiophantineEquation(m=12, k=1, c=(3, 5, 7), r=105), 0, 3, None),
        (DiophantineEquation(m=12, k=1, c=(5, 3, 7), r=105), 3, 4, (1,)),
    ], ids=["markov", "double-root", "no-square", "negative-discriminant",
            "one-integer-root"])
    def test_slice_roots(self, eq, x1, x2, roots):
        # one-integer-root: 5 x^2 - 144 x + 139 has the roots 1 and 139/5
        assert slice_roots(eq, x1, x2) == roots

    @pytest.mark.parametrize("weights", [
        (1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 3), (3, 2, 1), (1, 4, 5),
        (5, 1, 4), (12, 5, 7), (5, 12, 7), (4, 9, 25)],
        ids=lambda w: ",".join(map(str, w)))
    def test_matches_brute_force(self, weights):
        # every order of the coefficients, and k = 15 for (4, 9, 25)
        eq, solution, _ = derive_equation(weights)
        got = minimal_solutions(eq, 30)
        assert got == minimal_solutions_oracle(eq, 30)
        assert solution in got

    @pytest.mark.parametrize("m, k, c", [
        (1, 1, (4, 1, 2)), (6, 1, (4, 1, 1)), (14, 3, (1, 1, 4)),
        (9, 2, (1, 1, 8)), (12, 1, (1, 9, 2)), (22, 3, (1, 4, 1)),
        (23, 3, (4, 1, 2)),
    ], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_matches_brute_force_for_non_square_free_c(self, m, k, c):
        # A square factor of c_p lets the weights c_i x_i^2 take a step that
        # the solution cannot: the step must be read off the solution.
        eq = DiophantineEquation(m=m, k=k, c=c, r=1)
        assert minimal_solutions(eq, 20) == minimal_solutions_oracle(eq, 20)

    def test_bounds(self):
        markov, _, _ = derive_equation((1, 1, 1))
        assert minimal_solutions(markov, 1) == [(1, 1, 1)]
        assert minimal_solutions(markov, 0) == []
        with pytest.raises(TypeError):
            minimal_solutions(markov, 1.0)


class TestHeightAndDescent:
    def test_heights(self):
        assert height((1, 1, 1)) == 3
        assert height((1, 1, 4)) == 6
        assert height((12, 5, 7)) == 24

    def test_descent_to_markov_root(self):
        assert descend_to_minimal((1, 4, 25)) == [
            (1, 4, 25), (1, 1, 4), (1, 1, 1)]

    def test_already_minimal(self):
        assert descend_to_minimal((1, 1, 1)) == [(1, 1, 1)]

    def test_12_5_7_minimal(self):
        assert descend_to_minimal((12, 5, 7)) == [(5, 7, 12)]

    def test_at_most_one_decreasing_pivot(self):
        for w in [(4, 25, 841), (1, 4, 25), (1, 1, 4), (5, 7, 12),
                  (1, 25, 169), (2, 29**2, 169**2)]:
            h = height(w)
            targets = set()
            for pivot in range(3):
                try:
                    t = mutate_weights(w, pivot)
                except NotDivisible:
                    continue
                if height(t) < h:
                    targets.add(t)
            assert len(targets) <= 1


class TestMutationTree:
    def test_markov_depth_two(self):
        tree = build_mutation_tree((1, 1, 1), max_depth=2)
        assert [n.weights for n in tree.nodes] == [
            (1, 1, 1), (1, 1, 4), (1, 4, 25)]
        assert tree.nodes[2].parent == 1

    def test_3511_single_node(self):
        tree = build_mutation_tree((3, 5, 11), max_depth=10)
        assert len(tree.nodes) == 1
        assert not tree.nodes[0].truncated

    def test_roots_at_minimal(self):
        tree = build_mutation_tree((4, 25, 841), max_depth=1)
        assert tree.root.weights == (1, 1, 1)

    def test_parent_is_unique_decreasing_neighbor(self):
        tree = build_mutation_tree((1, 1, 1), max_depth=4)
        for i, n in enumerate(tree.nodes[1:], start=1):
            decreasing = set()
            for pivot in range(3):
                try:
                    t = mutate_weights(n.weights, pivot)
                except NotDivisible:
                    continue
                if height(t) < n.height:
                    decreasing.add(t)
            assert decreasing == {tree.nodes[n.parent].weights}

    def test_height_capped_tree_is_complete(self):
        # every Markov solution of height <= H appears: exact oracle match
        H = 3000
        tree = build_mutation_tree((1, 1, 1), max_height=H)
        tree_sols = set()
        for n in tree.nodes:
            sol = tuple(isqrt(x) for x in n.weights)
            assert tuple(x * x for x in sol) == n.weights
            tree_sols.add(sol)
        oracle = {s for s in markov_solutions(isqrt(H))
                  if sum(x * x for x in s) <= H}
        assert tree_sols == oracle

    def test_solutions_solve_markov_equation(self):
        eq, _, _ = derive_equation((1, 1, 1))
        tree = build_mutation_tree((1, 1, 1), max_depth=5)
        for n in tree.nodes:
            sol = tuple(isqrt(x) for x in n.weights)
            assert verify_solution(eq, sol)

    def test_json_of_weights_past_the_digit_limit(self, max_growth_branch):
        w = max_growth_branch[-1]
        tree = MutationTree([TreeNode(weights=w, depth=0)])
        node = json.loads(tree_to_json(tree))["nodes"][0]
        assert [decimal_to_int(x) for x in node["weights"]] == list(w)
        assert decimal_to_int(node["height"]) == sum(w)

    def test_dot_and_json_output(self):
        tree = build_mutation_tree((1, 1, 1), max_depth=2)
        dot = tree_to_dot(tree)
        assert dot.startswith("digraph") and "1,1,4 (h=6)" in dot
        doc = json.loads(tree_to_json(tree))
        assert doc["nodes"][0]["weights"] == ["1", "1", "1"]
        assert doc["nodes"][1]["parent"] == 0

"""The descents against step_descent (tests/descent_oracle.py).

descend_to_minimal, the root whose entries derive_equation factors and the
root of build_mutation_tree must each refuse exactly the weights
step_descent refuses, with its message, and otherwise give its path or its
last triple. The library checks coprimality on the minimal root only, so
the cases below include long runs that keep the smallest weight fixed,
their scaled copies (which are not well-formed) and a scaled run whose
degree K gives no integral K A.
"""

import itertools
import time

import pytest

from descent_oracle import climb, step_descent, well_formed_up_to
from fwpp import diophantine
from fwpp.diophantine import build_mutation_tree, derive_equation, descend_to_minimal
from fwpp.fwps import _step


def _outcome(call, w):
    """call(w), or the message of the ValueError it raises."""
    try:
        return call(w)
    except ValueError as exc:
        return str(exc)


@pytest.fixture
def agrees(monkeypatch):
    """check(w) asserts that every descent agrees with step_descent on w.
    The root derive_equation uses is read off the numbers it hands to
    square_free_decompose, which are the entries of that root; the memo of
    degrees is cleared first, so that every derivation descends and
    factors its root again."""
    factored = []

    def spy(n, _real=diophantine.square_free_decompose):
        factored.append(n)
        return _real(n)

    monkeypatch.setattr(diophantine, "square_free_decompose", spy)

    def check(w):
        expected = _outcome(step_descent, w)
        root = expected if isinstance(expected, str) else expected[-1]
        assert _outcome(descend_to_minimal, w) == expected, w
        assert _outcome(lambda w: build_mutation_tree(w, max_depth=0).root.weights,
                        w) == root, w
        factored.clear()
        diophantine._EQUATIONS.clear()
        derived = _outcome(derive_equation, w)
        if isinstance(root, str):
            assert derived == root, w
        else:
            assert tuple(factored) == root, w

    return check


def test_every_triple_of_the_small_box(agrees):
    for w in itertools.product(range(-2, 31), repeat=3):
        agrees(w)


def test_every_well_formed_triple_up_to_height_120(agrees):
    triples = well_formed_up_to(120)
    assert len(triples) == 14212
    for w in triples:
        agrees(w)


@pytest.mark.parametrize("root", [(1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 4, 5)],
                         ids=lambda r: ",".join(map(str, r)))
@pytest.mark.parametrize("scale", [1, 2, 3])
def test_long_runs_from_the_hacking_prokhorov_roots(agrees, root, scale):
    path = climb(root, 500)
    assert len(path) == 501
    for level in range(0, 501, 10):
        agrees(tuple(scale * x for x in path[level]))


def test_a_climb_of_two_runs(agrees):
    # 40 levels keeping 1 smallest, the pivot at 1, then 40 keeping b.
    low = climb((1, 2, 3), 40)[-1]
    top = climb(_step(low, 0), 40)[-1]
    agrees(top)
    agrees(tuple(2 * x for x in top))


def test_a_run_with_no_integral_degree_times_its_weight(agrees):
    # 2^40 (16, 17, 18) is not well-formed, its K A = 51^2 / (17 * 18) =
    # 17/2 is no integer, and still its middle weight can be mutated 49
    # times over.
    path = climb(tuple(x << 40 for x in (16, 17, 18)), 500)
    assert len(path) == 50
    a, b, c = top = path[-1]
    assert (a + b + c) ** 2 % (b * c) != 0
    agrees(top)


def test_refusing_a_scaled_long_climb_costs_its_steps_only():
    # The refusal comes at the minimal root, after the descent: 2 times the
    # triple 3,000 pivot-1 steps above (1, 1, 1), 8,330 bits, descends
    # 3,000 levels first. Each weight function refuses it in well under a
    # second; a descent that cost more than its steps would not.
    w = tuple(2 * x for x in climb((1, 1, 1), 3000)[-1])
    assert w[2].bit_length() == 8331
    for call in (descend_to_minimal, derive_equation,
                 lambda w: build_mutation_tree(w, max_depth=0)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="are not well-formed"):
            call(w)
        assert time.perf_counter() - start < 2.0

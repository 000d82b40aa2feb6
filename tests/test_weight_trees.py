"""Mutation trees, their JSON and the descent against the all-pivot oracles.

The library descends with one unchecked weight step that only tries the
pivot able to lower the height. It builds trees with the same step in
Vieta form, from the degree of the root, keeps no set of visited triples,
and writes tree JSON in one copy. The oracles below are the
straightforward versions: every pivot through the public, validating
mutate_weights, a seen set, and the JSON of a dict document through
json.dumps.
"""

import contextlib
import io
import json
import random
import re
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fwpp.cli import _jsonable, main
from fwpp.diophantine import (
    MutationTree,
    TreeNode,
    _vieta_step,
    build_mutation_tree,
    descend_to_minimal,
    height,
    tree_to_dot,
    tree_to_json,
)
from fwpp.fwps import NotDivisible, _step, is_well_formed, mutate_weights


def descent_oracle(weights):
    """Descent trying every pivot, asserting the descent lemma."""
    path = [tuple(sorted(weights))]
    while True:
        w = path[-1]
        down = set()
        for pivot in range(3):
            try:
                t = mutate_weights(w, pivot)
            except NotDivisible:
                continue
            if height(t) < height(w):
                down.add(t)
        if not down:
            return path
        assert len(down) == 1, "descent lemma violated"
        path.append(down.pop())


def tree_oracle(weights, max_depth=None, max_height=None):
    """Breadth-first tree that mutates every node at every pivot and keeps
    the height-increasing targets, in sorted order, first pivot winning.
    Returns the tree and its own map from each node to its children."""
    root_w = descent_oracle(weights)[-1]
    nodes = [TreeNode(weights=root_w, depth=0)]
    children = [[]]
    seen = {root_w}
    queue = deque([0])
    while queue:
        idx = queue.popleft()
        node = nodes[idx]
        if max_depth is not None and node.depth >= max_depth:
            nodes[idx] = node = node._replace(truncated=True)
            continue
        targets = {}
        for pivot in range(3):
            try:
                target = mutate_weights(node.weights, pivot)
            except NotDivisible:
                continue
            if height(target) > node.height:
                targets.setdefault(target, pivot)
        for target in sorted(targets):
            if target in seen:
                continue
            if max_height is not None and height(target) > max_height:
                nodes[idx] = node = node._replace(truncated=True)
                continue
            seen.add(target)
            nodes.append(TreeNode(weights=target, depth=node.depth + 1,
                                  parent=idx, pivot=targets[target]))
            children.append([])
            children[idx].append(len(nodes) - 1)
            queue.append(len(nodes) - 1)
    return MutationTree(nodes=nodes), children


def tree_obj_oracle(tree) -> dict:
    """The tree as a JSON-ready dict: decimal-string weights and heights."""
    return {"nodes": [{"weights": [str(x) for x in n.weights],
                       "height": str(n.height),
                       "depth": n.depth,
                       "parent": n.parent,
                       "pivot": n.pivot,
                       "truncated": n.truncated} for n in tree.nodes]}


def json_oracle(tree) -> str:
    return json.dumps(tree_obj_oracle(tree), sort_keys=True, indent=2)


def dot_oracle(tree, children) -> str:
    """The Graphviz text of the tree, edges walked parent by parent through
    the children map."""
    lines = ["digraph mutations {"]
    for i, n in enumerate(tree.nodes):
        label = ",".join(map(str, n.weights)) + f" (h={height(n.weights)})"
        style = " style=dashed" if n.truncated else ""
        lines.append(f'  n{i} [label="{label}"{style}];')
    for i, kids in enumerate(children):
        lines += [f'  n{i} -> n{c} [label="{tree.nodes[c].pivot}"];' for c in kids]
    return "\n".join(lines + ["}"])


def cli_json_oracle(tree) -> str:
    """What `fwpp tree` printed: every int, depth and parent too, quoted."""
    return json.dumps(_jsonable(tree_obj_oracle(tree)), sort_keys=True,
                      indent=2) + "\n"


def assert_tree_matches(root, **bounds):
    tree = build_mutation_tree(root, **bounds)
    oracle, children = tree_oracle(root, **bounds)
    assert tree.nodes == oracle.nodes
    assert len(tree.weight_set()) == len(tree.nodes)
    assert tree_to_json(tree) == json_oracle(oracle)
    assert tree_to_dot(tree) == dot_oracle(oracle, children)


# Degrees 9, 8, 6, 15/7, 10/3, 16/3, 48/35, 361/165: the last five make
# the Vieta step test that the degree's denominator divides li * lj.
ROOTS = [(1, 1, 1), (1, 1, 2), (1, 2, 3), (3, 5, 7), (2, 3, 5), (1, 3, 4),
         (5, 7, 12), (3, 5, 11)]
BOUNDS = [{"max_depth": 7}, {"max_height": 10**12},
          {"max_depth": 6, "max_height": 10**6}]


@pytest.mark.parametrize("bounds", BOUNDS, ids=["depth", "height", "both"])
@pytest.mark.parametrize("root", ROOTS, ids=lambda r: ",".join(map(str, r)))
def test_tree_matches_oracle(root, bounds):
    assert_tree_matches(root, **bounds)


def test_tree_from_a_non_minimal_input_matches_oracle():
    assert_tree_matches((4, 25, 841), max_depth=5)
    assert_tree_matches((7, 5, 3), max_depth=0)


well_formed = st.tuples(*[st.integers(1, 10**6)] * 3).filter(is_well_formed)


@settings(max_examples=60, deadline=None)
@given(well_formed, st.one_of(st.none(), st.integers(0, 6)),
       st.one_of(st.none(), st.integers(1, 10**15)))
def test_tree_matches_oracle_on_drawn_roots(root, max_depth, max_height):
    if max_depth is None and max_height is None:
        max_depth = 4
    root_h = height(descent_oracle(root)[-1])
    if max_height is not None and max_height < root_h:
        with pytest.raises(ValueError, match=f"max_height {max_height} is below"
                           f" the height {root_h} of the minimal weights"):
            build_mutation_tree(root, max_depth=max_depth, max_height=max_height)
        return
    assert_tree_matches(root, max_depth=max_depth, max_height=max_height)


def climbed(root, pivots):
    """The triple reached from a sorted root by the height-increasing steps
    at the given pivots, where they divide, stopping at 300 bits."""
    w = root
    for pivot in pivots:
        if 2 * w[pivot] < sum(w) and (t := _step(w, pivot)) is not None:
            if t[2].bit_length() > 300:
                break
            w = t
    return w


big_well_formed = st.tuples(*[st.integers(1, 2**300)] * 3).filter(is_well_formed)
tree_triples = st.builds(climbed, well_formed.map(lambda w: tuple(sorted(w))),
                         st.lists(st.integers(0, 2), max_size=40))


@settings(max_examples=300, deadline=None)
@given(st.one_of(big_well_formed.map(lambda w: tuple(sorted(w))), tree_triples))
def test_vieta_step_matches_step(w):
    deg = Fraction(sum(w) ** 2, w[0] * w[1] * w[2])
    for pivot in range(3):
        assert _vieta_step(w, pivot, deg.numerator, deg.denominator) == _step(w, pivot)


def test_tree_rejects_bad_input():
    with pytest.raises(ValueError, match="not well-formed"):
        build_mutation_tree((2, 4, 7), max_depth=2)
    with pytest.raises(ValueError, match="need max_depth"):
        build_mutation_tree((1, 1, 1))
    with pytest.raises(ValueError, match="max_depth -1 is negative"):
        build_mutation_tree((1, 1, 1), max_depth=-1)
    with pytest.raises(ValueError, match="max_height -5 is negative"):
        build_mutation_tree((1, 1, 1), max_height=-5)
    for bound in (0, 1):
        with pytest.raises(ValueError, match=re.escape(
                f"max_height {bound} is below the height 3 of the minimal"
                " weights (1, 1, 1)")):
            build_mutation_tree((1, 1, 1), max_height=bound)
    # a bound equal to the root's height keeps the root alone
    tree = build_mutation_tree((4, 25, 841), max_height=3)
    assert [n.weights for n in tree.nodes] == [(1, 1, 1)]


def test_tree_node_stores_only_what_cannot_be_recomputed():
    assert list(TreeNode._fields) == [
        "weights", "depth", "parent", "pivot", "truncated"]
    node = TreeNode(weights=(1, 1, 4), depth=1, parent=0, pivot=2)
    assert node.height == 6
    with pytest.raises(AttributeError):
        node.height = 7


def branch_tree(branch):
    """The max-growth branch as a path-shaped tree, last node truncated."""
    return MutationTree(nodes=[
        TreeNode(weights=w, depth=i, parent=i - 1 if i else None,
                 pivot=0 if i else None, truncated=i == len(branch) - 1)
        for i, w in enumerate(branch)])


def test_json_past_the_digit_limit_matches_oracle(max_growth_branch,
                                                  without_digit_limit):
    # Children repeat two of their parent's weights; the writer converts
    # each distinct weight once, which must not change a byte.
    for tree in (build_mutation_tree(max_growth_branch[12], max_depth=3),
                 branch_tree(max_growth_branch)):
        assert tree_to_json(tree) == without_digit_limit(lambda: json_oracle(tree))


def test_dot_past_the_digit_limit(max_growth_branch, without_digit_limit):
    tree = branch_tree(max_growth_branch)

    def dot_oracle():
        lines = ["digraph mutations {"]
        for i, n in enumerate(tree.nodes):
            label = ",".join(map(str, n.weights)) + f" (h={n.height})"
            style = " style=dashed" if n.truncated else ""
            lines.append(f'  n{i} [label="{label}"{style}];')
        lines += [f'  n{i} -> n{i + 1} [label="0"];' for i in range(len(tree.nodes) - 1)]
        return "\n".join(lines + ["}"])

    assert tree_to_dot(tree) == without_digit_limit(dot_oracle)


# --- the CLI's quoted format --------------------------------------------------

def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("root,depth,max_height", [
    ((1, 1, 1), 6, None),
    ((1, 2, 3), None, 100000),
    ((3, 5, 7), 4, 5000),
    ((3, 5, 11), 3, None),
])
def test_cli_tree_matches_oracle(root, depth, max_height, tmp_path):
    expected = cli_json_oracle(tree_oracle(root, max_depth=depth,
                                           max_height=max_height)[0])
    argv = ["tree", *map(str, root)]
    if depth is not None:
        argv += ["--depth", str(depth)]
    if max_height is not None:
        argv += ["--max-height", str(max_height)]
    assert run_cli(argv) == (0, expected)
    dest = tmp_path / "tree.json"
    assert run_cli(["--output", str(dest), *argv]) == (0, "")
    assert dest.read_text() == expected


# --- descent -------------------------------------------------------------------

def test_descent_matches_oracle_on_tree_nodes():
    rng = random.Random(4)
    for root in ROOTS:
        for node in tree_oracle(root, max_depth=7)[0].nodes:
            w = tuple(rng.sample(node.weights, 3))
            assert descend_to_minimal(w) == descent_oracle(w), w


@settings(max_examples=300)
@given(well_formed)
def test_descent_matches_oracle_on_random_triples(w):
    assert descend_to_minimal(w) == descent_oracle(w)


def test_descent_rejects_bad_weights():
    for w in [(2, 4, 7), (0, 1, 1), (1, 2)]:
        with pytest.raises(ValueError):
            descend_to_minimal(w)

"""The weight contract: every weight function reads a triple through one
reader, which takes three positive, pairwise coprime integers and refuses
anything else with ValueError("weights (...) are not well-formed"), quoting
the weights as given; and the premise of that contract, that the weights
of every fake weighted projective plane are well-formed."""

from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from fwpp import cli
from fwpp.diophantine import build_mutation_tree, derive_equation, descend_to_minimal
from fwpp.fwps import (
    is_well_formed,
    mutate_weights,
    one_step_targets,
    vertex_weights,
    weights_of,
    wps_triangle,
)
from fwpp.lattice import format_ints, is_primitive, make_fano_triangle
from fwpp.mutation import enumerate_one_step

# Each triple in two orders, but for (2, 2, 2), which has only one.
NOT_WELL_FORMED = [(2, 4, 6), (6, 2, 4), (2, 2, 2), (1, 2, 2), (2, 1, 2)]


def _climb16():
    w = (1, 1, 1)
    for pivot in (0, 1) * 8:
        w = mutate_weights(w, pivot)
    return w


_CLIMB = _climb16()  # 315, 762 and 1078 digits

# Positive weights that the descents refuse only at their minimal root,
# which is not pairwise coprime: scaled Markov triples, a scaled climb and
# 3 (7, 81, 3872), whose descent stops at (3, 6, 21), where 21 does not
# divide (3 + 6)^2.
DESCEND_FIRST = [
    pytest.param((2, 8, 50), id="2x(1,4,25)"),
    pytest.param((50, 2, 8), id="2x(1,4,25)-shuffled"),
    pytest.param((75, 2523, 562467), id="3x(25,841,187489)"),
    pytest.param(tuple(2 * _CLIMB[i] for i in (2, 0, 1)), id="2x-climb16"),
    pytest.param((243, 11616, 21), id="stops-undivided"),
]
# A descent divides by the largest weight, so these are refused first.
NON_POSITIVE = [(0, 1, 1), (-1, 1, 1), (1, 0, 5)]


def _weight_id(w):
    return "-".join(map(str, w))


@pytest.mark.parametrize("w", NOT_WELL_FORMED + DESCEND_FIRST + NON_POSITIVE,
                         ids=_weight_id)
@pytest.mark.parametrize("call", [
    lambda w: wps_triangle(*w),
    lambda w: mutate_weights(w, 0),
    one_step_targets,
    descend_to_minimal,
    lambda w: build_mutation_tree(w, max_depth=1),
    derive_equation,
], ids=["wps_triangle", "mutate_weights", "one_step_targets",
        "descend_to_minimal", "build_mutation_tree", "derive_equation"])
def test_library_refuses(call, w):
    with pytest.raises(ValueError) as info:
        call(w)
    assert type(info.value) is ValueError
    assert str(info.value) == f"weights {format_ints(w)} are not well-formed"


WEIGHT_COMMANDS = pytest.mark.parametrize("command", [
    ["diophantine"], ["minimal"], ["tree"], ["weights-mutate", "--pivot", "0"],
], ids=lambda c: c[0])


@pytest.mark.parametrize("w", NOT_WELL_FORMED + DESCEND_FIRST, ids=_weight_id)
@WEIGHT_COMMANDS
def test_cli_refuses(capsys, command, w):
    code = cli.main(command[:1] + [str(x) for x in w] + command[1:])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"error: weights {format_ints(w)} are not well-formed\n"


@pytest.mark.parametrize("w", NON_POSITIVE, ids=_weight_id)
@WEIGHT_COMMANDS
def test_cli_refuses_non_positive_weights_as_arguments(capsys, command, w):
    bad = next(x for x in w if x < 1)
    with pytest.raises(SystemExit) as info:
        cli.main(command[:1] + [str(x) for x in w] + command[1:])
    out, err = capsys.readouterr()
    assert info.value.code == 2
    assert out == ""
    assert err.endswith(f"error: argument L: expected a positive integer,"
                        f" got '{bad}'\n")


def assert_weights_well_formed(P):
    lams, _ = vertex_weights(P)
    w = weights_of(P).weights
    assert w == tuple(sorted(lams)), P
    assert is_well_formed(w), P


def test_corpus_weights_are_well_formed(corpus):
    for P in corpus:
        assert_weights_well_formed(P)


def test_mutated_triangle_weights_are_well_formed(corpus):
    for P in corpus:
        for _, Q in enumerate_one_step(P, triangles_only=True):
            assert_weights_well_formed(Q)


_COORDINATE = st.integers(-10**6, 10**6)
_PRIMITIVE = st.tuples(_COORDINATE, _COORDINATE).filter(is_primitive)
_COEFFICIENT = st.integers(1, 10**6)


@settings(max_examples=300, deadline=None)
@given(_PRIMITIVE, _PRIMITIVE, _COEFFICIENT, _COEFFICIENT)
def test_drawn_fano_triangle_weights_are_well_formed(p, q, a, b):
    # a p + b q + g r = 0 with a, b, g > 0 puts the origin strictly inside
    # the triangle p, q, r whenever p and q are independent; every Fano
    # triangle arises so.
    assume(p[0] * q[1] != p[1] * q[0])
    x, y = -(a * p[0] + b * q[0]), -(a * p[1] + b * q[1])
    g = gcd(x, y)
    assert_weights_well_formed(make_fano_triangle(p, q, (x // g, y // g)))

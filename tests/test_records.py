"""The records fwpp returns: named tuples, immutable, with stable reprs."""

import re
from fractions import Fraction

import pytest

from fwpp import (
    DiophantineEquation,
    Factor,
    FwpsInvariants,
    GeneralDerivation,
    InvalidFactor,
    MutationTree,
    QuotientSingularity,
    SquareFreeDecomposition,
    build_mutation_tree,
    cone_singularity,
    derive_equation,
    square_free_decompose,
    weights_of,
    wps_triangle,
)
from fwpp.diophantine import TreeNode
from fwpp.pell357 import Component, QuadraticSlice, component_of, solve_quadratic_357


def _records():
    """One instance of each record, built as the library builds it."""
    eq, _, derivation = derive_equation((1, 1, 1))
    return [
        Factor(w=(0, 1), f=(1, 0), length=1),
        cone_singularity((1, 0), (1, 5)),
        weights_of(wps_triangle(1, 1, 1)),
        square_free_decompose(12),
        eq,
        derivation,
        solve_quadratic_357(1, 1),
        component_of((2, 1, 1)),
        build_mutation_tree((1, 1, 1), max_depth=1),
        build_mutation_tree((1, 1, 1), max_depth=1).nodes[1],
    ]


def test_records_are_named_tuples_of_the_public_types():
    types = [Factor, QuotientSingularity, FwpsInvariants, SquareFreeDecomposition,
             DiophantineEquation, GeneralDerivation, QuadraticSlice, Component,
             MutationTree, TreeNode]
    for record, cls in zip(_records(), types, strict=True):
        assert type(record) is cls
        assert isinstance(record, tuple)
        assert tuple(record) == tuple(getattr(record, name) for name in cls._fields)


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_reprs_are_pinned():
    tree = build_mutation_tree((1, 1, 1), max_depth=1)
    eq, _, derivation = derive_equation((1, 1, 1))
    assert [repr(r) for r in (
        Factor(w=(0, 1), f=(1, 0), length=1),
        cone_singularity((1, 0), (1, 5)),
        weights_of(wps_triangle(1, 1, 1)),
        square_free_decompose(12),
        eq,
        derivation,
        solve_quadratic_357(1, 2),
        component_of((2, 1, 1)),
        tree.root,
        tree.nodes[1],
    )] == [
        "Factor(w=(0, 1), f=(1, 0), length=1)",
        "QuotientSingularity(r=5, a=4)",
        "FwpsInvariants(weights=(1, 1, 1), mult=1, degree=Fraction(9, 1))",
        "SquareFreeDecomposition(c=3, a=2)",
        "DiophantineEquation(m=3, k=1, c=(1, 1, 1), r=1)",
        "GeneralDerivation(d=1, S=1, T=1, g=1)",
        "QuadraticSlice(a1=1, a2=2, roots=None)",
        "Component(solutions=((2, 1, 1),))",
        "TreeNode(weights=(1, 1, 1), depth=0, parent=None, pivot=None,"
        " truncated=False)",
        "TreeNode(weights=(1, 1, 4), depth=1, parent=0, pivot=0, truncated=True)",
    ]
    assert repr(tree) == f"MutationTree(nodes={tree.nodes!r})"


def test_records_compare_and_unpack_as_tuples():
    inv = weights_of(wps_triangle(1, 1, 1))
    weights, mult, degree = inv
    assert (weights, mult, degree) == ((1, 1, 1), 1, Fraction(9))
    assert inv == ((1, 1, 1), 1, Fraction(9)) and hash(inv) == hash(tuple(inv))
    assert inv._asdict() == {"weights": (1, 1, 1), "mult": 1, "degree": Fraction(9)}
    assert inv._replace(mult=2).mult == 2
    assert sorted([QuotientSingularity(5, 2), QuotientSingularity(5, 1)]) == [
        (5, 1), (5, 2)]


@pytest.mark.parametrize("args, message", [
    (((0, 2), (1, 0), 1), "width (0, 2) must be primitive"),
    (((0, 1), (2, 0), 1), "direction (2, 0) must be primitive"),
    (((0, 1), (1, 1), 1), "factor direction must lie at height zero"),
    (((0, 1), (1, 0), 0), "factor length must be >= 1"),
])
def test_factor_refuses_bad_data(args, message):
    with pytest.raises(InvalidFactor, match=f"^{re.escape(message)}$"):
        Factor(*args)
    # _replace builds through the same checks
    w, f, length = args
    with pytest.raises(InvalidFactor, match=f"^{re.escape(message)}$"):
        Factor((0, 1), (1, 0), 1)._replace(w=w, f=f, length=length)


def test_factor_coerces_lists_and_booleans():
    factor = Factor(w=[False, True], f=[True, 0], length=True)
    assert factor == Factor((0, 1), (1, 0), 1)
    assert (type(factor.w), type(factor.f)) == (tuple, tuple)
    assert all(type(x) is int for x in (*factor.w, *factor.f, factor.length))
    assert factor._replace(f=[-1, 0]).f == (-1, 0)


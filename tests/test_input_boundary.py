"""The library's integer boundary: a float or a non-integral Fraction where
an integer is expected raises TypeError instead of being truncated, and an
error that quotes integers past Python's 4300-digit int/str limit raises
its own exception with the integers in the message, not the limit's
ValueError. An integer out of its range (a zero index or count, a
non-primitive generator) raises ValueError."""

from fractions import Fraction

import pytest

from fwpp import pell357
from fwpp.diophantine import (
    DiophantineEquation,
    NonIntegral,
    build_mutation_tree,
    derive_equation,
    height,
    mutate_solution,
    slice_roots,
    square_free_decompose,
    verify_solution,
)
from fwpp.fwps import (
    DegenerateCone,
    cone_singularity,
    is_well_formed,
    mutate_weights,
    quotient_singularity,
    vertex_weights,
    wps_triangle,
)
from fwpp.lattice import (
    FanoPolygon,
    OriginNotInterior,
    degree,
    dual_polygon,
    format_ints,
    int_to_decimal,
    make_fano_triangle,
)
from fwpp.mutation import (
    Factor,
    InvalidFactor,
    InvalidMutationData,
    canonical_form,
    find_factors,
    mutate_with,
)

MARKOV = DiophantineEquation(m=3, k=1, c=(1, 1, 1), r=1)
P2 = make_fano_triangle((1, -1), (-1, 2), (0, -1))


@pytest.mark.parametrize("call", [
    lambda: make_fano_triangle((1.7, -1), (-1, 2), (0, -1)),
    lambda: make_fano_triangle((1, -1), (-1, 2), (0, Fraction(-3, 2))),
    lambda: Factor(w=(0, 1), f=(1, 0), length=1.0),
    lambda: is_well_formed((1.0, 2, 3)),
    lambda: wps_triangle(1.9, 1, 1),
    lambda: mutate_weights((1.0, 1, 1), 0),
    lambda: mutate_weights((1, 1, 1), 1.0),
    lambda: derive_equation((1.2, 1, 1)),
    lambda: verify_solution(MARKOV, (1.0, 1, 1)),
    lambda: mutate_solution(MARKOV, (1.0, 1, 1), 0),
    lambda: mutate_solution(MARKOV, (1, 1, 1), 1.0),
    lambda: height((1.5, 1, 1)),
    lambda: pell357.is_solution((1.0, 1, 1)),
    lambda: pell357.component_of((2.0, 1, 1)),
    lambda: pell357.solution_weights((2.0, 1, 1)),
    lambda: degree([(0.5, 0), (0, 1), (-1, -1)]),
    lambda: canonical_form([(1.0, 0), (0, 1), (-1, -1)]),
    lambda: mutate_with([(1.0, -1), (-1, 2), (0, -1)], Factor((0, 1), (1, 0), 1)),
    lambda: vertex_weights([(1.0, 0), (0, 1), (-1, -1)]),
    lambda: build_mutation_tree((1, 1, 1), max_depth=2.5),
    lambda: build_mutation_tree((1, 1, 1), max_height=30.5),
    lambda: dual_polygon([(0.1, 0), (0, 1), (-1, -1)]),
    lambda: quotient_singularity(1.0, 1, 1),
    lambda: quotient_singularity(1, 0.5, 1),
    lambda: quotient_singularity(Fraction(1), 1, 1),
    lambda: square_free_decompose(Fraction(8)),
    lambda: square_free_decompose(Fraction(12)),
    lambda: slice_roots(pell357.EQUATION, Fraction(1), 4),
], ids=["make_fano_triangle", "make_fano_triangle-fraction", "Factor",
        "is_well_formed", "wps_triangle", "mutate_weights", "mutate_weights-pivot",
        "derive_equation", "verify_solution", "mutate_solution",
        "mutate_solution-pivot", "height", "is_solution",
        "component_of", "solution_weights", "degree", "canonical_form", "mutate_with", "vertex_weights",
        "build_mutation_tree-depth", "build_mutation_tree-height", "dual_polygon",
        "quotient_singularity-r", "quotient_singularity-a",
        "quotient_singularity-fraction", "square_free_decompose-8",
        "square_free_decompose-12", "slice_roots"])
def test_non_integers_rejected(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("solution", [(1, 1), (1, 1, 1, 1)], ids=["short", "long"])
@pytest.mark.parametrize("call", [
    lambda s: mutate_solution(MARKOV, s, 0),
    lambda s: verify_solution(MARKOV, s),
    pell357.is_solution,
    pell357.solution_weights,
    pell357.component_of,
    height,
    is_well_formed,
], ids=["mutate_solution", "verify_solution", "is_solution", "solution_weights",
        "component_of", "height", "is_well_formed"])
def test_solutions_of_other_lengths_rejected(call, solution):
    with pytest.raises(ValueError) as info:
        call(solution)
    assert type(info.value) is ValueError
    assert format_ints(solution) in str(info.value)


@pytest.mark.parametrize("call, message", [
    (lambda: square_free_decompose(0), "n must be positive"),
    (lambda: quotient_singularity(0, 1, 1), "index r must be positive"),
    (lambda: cone_singularity((2, 0), (0, 1)), "cone generators must be primitive"),
    (lambda: pell357.family_a1_fixed(0), "count must be >= 1"),
    (lambda: pell357.family_a2_fixed(0), "count must be >= 1"),
], ids=["square_free_decompose", "quotient_singularity", "cone_singularity",
        "family_a1_fixed", "family_a2_fixed"])
def test_out_of_range_integers_rejected(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


N = 10**4400


@pytest.mark.parametrize("call, error, quoted", [
    (lambda: wps_triangle(2 * N, 2, 1), ValueError, 2 * N),
    (lambda: derive_equation((0, 1, N)), ValueError, N),
    (lambda: find_factors(P2, (2 * N, 2)), InvalidFactor, 2 * N),
    (lambda: FanoPolygon(((N, 1), (1, 0))), OriginNotInterior, N),
    (lambda: cone_singularity((1, N), (-1, -N)), DegenerateCone, N),
    (lambda: pell357.component_of((N, 1, 1)), pell357.NotASolution, N),
    (lambda: mutate_solution(MARKOV, (N, 1, 1), 0), NonIntegral, N - 3),
    (lambda: mutate_solution(DiophantineEquation(m=1, k=1, c=(2, 1, 1), r=1),
                             (N, 1, 1), 0), NonIntegral, 2 * N - 1),
    (lambda: mutate_with(P2, Factor(w=(0, 1), f=(1, 0), length=N)),
     InvalidMutationData, N),
    (lambda: mutate_weights((1, 1, 1), N), ValueError, N),
    (lambda: mutate_solution(MARKOV, (1, 1, 1), N), ValueError, N),
    (lambda: build_mutation_tree((1, 1, 1), max_depth=-N), ValueError, -N),
    (lambda: build_mutation_tree((1, 1, 1), max_height=-N), ValueError, -N),
], ids=["wps_triangle", "derive_equation", "find_factors",
        "FanoPolygon", "cone_singularity", "component_of",
        "mutate_solution", "mutate_solution-fraction", "mutate_with",
        "mutate_weights-pivot", "mutate_solution-pivot",
        "build_mutation_tree-depth", "build_mutation_tree-height"])
def test_errors_quote_integers_past_the_digit_limit(call, error, quoted):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    message = str(info.value)
    assert "Exceeds the limit" not in message
    assert int_to_decimal(quoted) in message

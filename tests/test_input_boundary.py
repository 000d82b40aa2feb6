"""The library's integer boundary: a float or a non-integral Fraction where
an integer is expected raises TypeError instead of being truncated, and an
error that quotes integers past Python's 4300-digit int/str limit raises
its own exception with the integers in the message, not the limit's
ValueError."""

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
    verify_solution,
)
from fwpp.fwps import (
    DegenerateCone,
    canon_weights,
    cone_singularity,
    is_well_formed,
    mutate_weights,
    vertex_weights,
    wps_triangle,
)
from fwpp.lattice import (
    OriginNotInterior,
    degree,
    dual_polygon,
    format_ints,
    int_to_decimal,
    make_fano_triangle,
    validate_fano_polygon,
)
from fwpp.mutation import (
    Factor,
    InvalidMutationData,
    apply_dual_map,
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
    lambda: canon_weights((1.5, 2, 3)),
    lambda: is_well_formed((1.0, 2, 3)),
    lambda: wps_triangle(1.9, 1, 1),
    lambda: mutate_weights((1.0, 1, 1), 0),
    lambda: derive_equation((1.2, 1, 1)),
    lambda: verify_solution(MARKOV, (1.0, 1, 1)),
    lambda: mutate_solution(MARKOV, (1.0, 1, 1), 0),
    lambda: height((1.5, 1, 1)),
    lambda: pell357.is_solution((1.0, 1, 1)),
    lambda: pell357.component_of((2.0, 1, 1)),
    lambda: pell357.coprime_implies_well_formed_check((2.0, 1, 1)),
    lambda: pell357.solution_weights((2.0, 1, 1)),
    lambda: degree([(0.5, 0), (0, 1), (-1, -1)]),
    lambda: canonical_form([(1.0, 0), (0, 1), (-1, -1)]),
    lambda: mutate_with([(1.0, -1), (-1, 2), (0, -1)], Factor((0, 1), (1, 0), 1)),
    lambda: vertex_weights([(1.0, 0), (0, 1), (-1, -1)]),
    lambda: build_mutation_tree((1, 1, 1), max_depth=2.5),
    lambda: build_mutation_tree((1, 1, 1), max_height=30.5),
    lambda: dual_polygon([(0.1, 0), (0, 1), (-1, -1)]),
], ids=["make_fano_triangle", "make_fano_triangle-fraction", "Factor", "canon_weights",
        "is_well_formed", "wps_triangle", "mutate_weights", "derive_equation",
        "verify_solution", "mutate_solution", "height", "is_solution",
        "component_of", "coprime_implies_well_formed_check", "solution_weights",
        "degree", "canonical_form", "mutate_with", "vertex_weights",
        "build_mutation_tree-depth", "build_mutation_tree-height", "dual_polygon"])
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
    pell357.coprime_implies_well_formed_check,
    height,
    is_well_formed,
], ids=["mutate_solution", "verify_solution", "is_solution", "solution_weights",
        "component_of", "coprime_implies_well_formed_check", "height",
        "is_well_formed"])
def test_solutions_of_other_lengths_rejected(call, solution):
    with pytest.raises(ValueError) as info:
        call(solution)
    assert type(info.value) is ValueError
    assert format_ints(solution) in str(info.value)


N = 10**4400


@pytest.mark.parametrize("call, error, quoted", [
    (lambda: canon_weights((N, 0, 1)), ValueError, N),
    (lambda: wps_triangle(2 * N, 2, 1), ValueError, 2 * N),
    (lambda: derive_equation((0, 1, N)), ValueError, N),
    (lambda: find_factors(P2, (2 * N, 2)), ValueError, 2 * N),
    (lambda: validate_fano_polygon(((N, 1), (1, 0))), OriginNotInterior, N),
    (lambda: cone_singularity((1, N), (-1, -N)), DegenerateCone, N),
    (lambda: pell357.component_of((N, 1, 1)), pell357.NotASolution, N),
    (lambda: pell357.coprime_implies_well_formed_check((N, 1, 1)),
     pell357.NotASolution, N),
    (lambda: mutate_solution(MARKOV, (N, 1, 1), 0), NonIntegral, N - 3),
    (lambda: mutate_solution(DiophantineEquation(m=1, k=1, c=(2, 1, 1), r=1),
                             (N, 1, 1), 0), NonIntegral, 2 * N - 1),
    (lambda: mutate_with(P2, Factor(w=(0, 1), f=(1, 0), length=N)),
     InvalidMutationData, N),
    (lambda: apply_dual_map(P2, Factor(w=(0, 1), f=(1, 0), length=N)),
     InvalidMutationData, N),
], ids=["canon_weights", "wps_triangle", "derive_equation", "find_factors",
        "validate_fano_polygon", "cone_singularity", "component_of",
        "coprime_implies_well_formed_check", "mutate_solution",
        "mutate_solution-fraction", "mutate_with", "apply_dual_map"])
def test_errors_quote_integers_past_the_digit_limit(call, error, quoted):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    message = str(info.value)
    assert "Exceeds the limit" not in message
    assert int_to_decimal(quoted) in message

"""The polygon contract: every function that takes a Fano polygon reads it
through FanoPolygon(P), so a bare list that is not a Fano polygon is
refused with exactly the class and message that FanoPolygon(list) raises,
and a FanoPolygon is passed through as it is, read no further. Only
dual_polygon is left out: it accepts rational input, so that the dual of a
dual works."""

from collections import Counter

import pytest

from fwpp.fwps import vertex_weights, weights_of, wps_triangle
from fwpp.lattice import FanoPolygon, degree, dual_polygon, edges, make_fano_triangle
from fwpp.mutation import (
    Factor,
    admissible_widths,
    apply_dual_map,
    canonical_form,
    enumerate_one_step,
    find_factors,
    mutate_with,
    unimodular_equivalent,
)

P2 = make_fano_triangle((1, -1), (-1, 2), (0, -1))
FACTOR = Factor(w=(0, 1), f=(1, 0), length=1)

# Three entries each, so that make_fano_triangle takes every list.
MALFORMED = {
    "non-primitive-vertex": [(-1, -1), (1, -1), (0, 2)],
    "origin-on-edge": [(-1, 0), (1, 0), (0, 1)],
    "origin-outside": [(1, 0), (0, 1), (1, 1)],
    "two-points": [(1, 0), (0, 1), (1, 0)],
    "float-coordinate": [(1.0, 0), (0, 1), (-1, -1)],
}

READERS = {
    "edges": lambda P: list(edges(P)),
    "degree": degree,
    "canonical_form": canonical_form,
    "unimodular_equivalent-first": lambda P: unimodular_equivalent(P, P2),
    "unimodular_equivalent-second": lambda P: unimodular_equivalent(P2, P),
    "admissible_widths": admissible_widths,
    "find_factors": lambda P: find_factors(P, (0, 1)),
    "mutate_with": lambda P: mutate_with(P, FACTOR),
    "apply_dual_map": lambda P: apply_dual_map(P, FACTOR),
    "enumerate_one_step": enumerate_one_step,
    "vertex_weights": vertex_weights,
    "weights_of": weights_of,
    "make_fano_triangle": lambda P: make_fano_triangle(*P),
}


def _refusal(call, vertices):
    with pytest.raises(Exception) as info:
        call(vertices)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("vertices", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("call", READERS.values(), ids=READERS.keys())
def test_refuses_as_fano_polygon_refuses(call, vertices):
    assert _refusal(call, vertices) == _refusal(FanoPolygon, vertices)


def test_the_refusals_differ():
    refusals = {_refusal(FanoPolygon, vs) for vs in MALFORMED.values()}
    assert len(refusals) == len(MALFORMED)
    assert {cls.__name__ for cls, _ in refusals} == {
        "NonPrimitiveVertex", "OriginNotInterior", "TypeError"}


POLYGONS = {"P2": P2, "wps-1-4-25": wps_triangle(1, 4, 25),
            "mutation-output": mutate_with(P2, FACTOR),
            "quadrilateral": FanoPolygon([(1, 0), (0, 1), (-1, 0), (0, -1)])}


@pytest.mark.parametrize("P", POLYGONS.values(), ids=POLYGONS.keys())
def test_a_fano_polygon_is_passed_through(P, reads):
    assert FanoPolygon(P) is P
    assert reads == Counter()


# make_fano_triangle takes points, not a polygon
POLYGON_READERS = {name: call for name, call in READERS.items()
                   if name != "make_fano_triangle"} | {"dual_polygon": dual_polygon}


@pytest.mark.parametrize("call", POLYGON_READERS.values(), ids=POLYGON_READERS.keys())
def test_a_fano_polygon_is_read_no_further(call, reads):
    call(P2)
    assert reads == Counter()
    # while a bare list is hulled once
    call(P2.vertices[::-1])
    assert reads["convex_hull"] == 1

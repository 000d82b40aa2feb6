"""The polygon contract: every function that takes a Fano polygon reads it
through FanoPolygon(P), so a bare list that is not a Fano polygon is
refused with exactly the class and message that FanoPolygon(list) raises,
and a FanoPolygon is passed through as it is, read no further. A point
that is not a pair, whether a vertex, a cone generator, or the width or
direction of a factor, is refused by name and quoted."""

from collections import Counter

import pytest

from fwpp.fwps import cone_singularity, vertex_weights, weights_of, wps_triangle
from fwpp.lattice import (
    FanoPolygon,
    MalformedPolygon,
    degree,
    dual_polygon,
    edges,
    make_fano_triangle,
)
from fwpp.mutation import (
    Factor,
    InvalidFactor,
    admissible_widths,
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
    "one-point": [(1, 0), (1, 0), (1, 0)],
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
    "enumerate_one_step": enumerate_one_step,
    "vertex_weights": vertex_weights,
    "weights_of": weights_of,
    "dual_polygon": dual_polygon,
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
                   if name != "make_fano_triangle"}


@pytest.mark.parametrize("call", POLYGON_READERS.values(), ids=POLYGON_READERS.keys())
def test_a_fano_polygon_is_read_no_further(call, reads):
    call(P2)
    assert reads == Counter()
    # while a bare list is hulled once
    call(P2.vertices[::-1])
    assert reads["convex_hull"] == 1


NON_PAIRS = {
    "find_factors-triple": (lambda: find_factors(P2, (0, 1, 2)),
                            "width (0, 1, 2) must be a pair"),
    "find_factors-int": (lambda: find_factors(P2, 5), "width 5 must be a pair"),
    "Factor-width": (lambda: Factor((0, 1, 5), (1, 0), 1),
                     "width (0, 1, 5) must be a pair"),
    "Factor-direction": (lambda: Factor((0, 1), (1, 0, 0), 1),
                         "direction (1, 0, 0) must be a pair"),
    "find_factors-list": (lambda: find_factors(P2, [1, 0, 0]),
                          "width (1, 0, 0) must be a pair"),
    "find_factors-single": (lambda: find_factors(P2, (1,)),
                            "width (1,) must be a pair"),
    "Factor-replace": (lambda: FACTOR._replace(w=(0, 1, 2)),
                       "width (0, 1, 2) must be a pair"),
}


@pytest.mark.parametrize("call, message", NON_PAIRS.values(), ids=NON_PAIRS.keys())
def test_a_width_that_is_not_a_pair_is_refused_by_name(call, message):
    with pytest.raises(InvalidFactor) as info:
        call()
    assert type(info.value) is InvalidFactor
    assert str(info.value) == message


@pytest.mark.parametrize("width", [(0, 1.5, 2), 5.0, None],
                         ids=["float-entry", "float", "none"])
def test_a_width_with_no_integer_raises_type_error(width):
    # entries are read before the count, as every integer is read
    with pytest.raises(TypeError):
        find_factors(P2, width)


NON_PAIR_POINTS = {
    "FanoPolygon": (lambda: FanoPolygon([(1, 0, 0), (0, 1), (-1, -1)]),
                    "vertex (1, 0, 0) must be a pair"),
    "degree": (lambda: degree([(1, 0, 0), (0, 1), (-1, -1)]),
               "vertex (1, 0, 0) must be a pair"),
    "dual_polygon": (lambda: dual_polygon([(1, 0, 0), (0, 1), (-1, -1)]),
                     "vertex (1, 0, 0) must be a pair"),
    "dual_polygon-int": (lambda: dual_polygon([(1, 0), 5, (-1, -1)]),
                         "vertex 5 must be a pair"),
    "cone_singularity-triple": (lambda: cone_singularity((1, 0, 0), (0, 1)),
                                "cone generator (1, 0, 0) must be a pair"),
    "cone_singularity-int": (lambda: cone_singularity(5, (0, 1)),
                             "cone generator 5 must be a pair"),
    "cone_singularity-single": (lambda: cone_singularity((1, 0), [1]),
                                "cone generator (1,) must be a pair"),
}


@pytest.mark.parametrize("call, message", NON_PAIR_POINTS.values(),
                         ids=NON_PAIR_POINTS.keys())
def test_a_point_that_is_not_a_pair_is_refused_by_name(call, message):
    with pytest.raises(MalformedPolygon) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call", [
    lambda: FanoPolygon([(1.0, 0, 0), (0, 1), (-1, -1)]),
    lambda: dual_polygon([(0.5, 0, 0), (0, 1), (-1, -1)]),
    lambda: cone_singularity((1.0, 0, 0), (0, 1)),
], ids=["FanoPolygon", "dual_polygon", "cone_singularity"])
def test_a_point_with_a_float_entry_raises_type_error(call):
    with pytest.raises(TypeError):
        call()

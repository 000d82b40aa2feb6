import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from fwpp.fwps import cone_singularity, is_T_singularity, wps_triangle
from fwpp.lattice import (
    FanoPolygon,
    LatticeError,
    NonPrimitiveVertex,
    OriginNotInterior,
    bezout,
    convex_hull,
    decimal_to_int,
    degree,
    dual_polygon,
    edges,
    format_ints,
    int_to_decimal,
    is_primitive,
    make_fano_triangle,
    pairing,
    triangle_from_json,
    triangle_to_json,
)
from fwpp.mutation import enumerate_one_step
from slice_oracle import height_slice

P2 = make_fano_triangle((1, -1), (-1, 2), (0, -1))
T35 = make_fano_triangle((10, -7), (-5, 2), (0, 1))


def brute_force_lattice_points(P, h, w):
    """Independent slice oracle: scan a bounding box for points of P at
    height h, testing membership by edge determinants."""
    vs = P.vertices
    lo = min(min(v) for v in vs)
    hi = max(max(v) for v in vs)
    pts = []
    for x in range(lo, hi + 1):
        for y in range(lo, hi + 1):
            p = (x, y)
            if pairing(w, p) != h:
                continue
            inside = all(
                (vs[(i + 1) % 3][0] - vs[i][0]) * (y - vs[i][1])
                - (vs[(i + 1) % 3][1] - vs[i][1]) * (x - vs[i][0]) >= 0
                for i in range(3)
            )
            if inside:
                pts.append(p)
    return sorted(pts)


class TestPrimitivity:
    def test_unit_vector(self):
        assert is_primitive((1, 0))

    def test_gcd_two(self):
        assert not is_primitive((2, 4))

    def test_large_coprime_vector(self):
        assert is_primitive((10, -7))

    def test_zero(self):
        assert not is_primitive((0, 0))


# coordinates up to 10^40, and above 2^6000 of either sign
_BEZOUT_COORDINATE = st.one_of(st.integers(-10**40, 10**40),
                               st.integers(2**6000, 2**6100),
                               st.integers(-2**6100, -2**6000))


class TestBezout:
    @given(_BEZOUT_COORDINATE, _BEZOUT_COORDINATE)
    def test_bezout_identity(self, x, y):
        assume((x, y) != (0, 0))
        g = gcd(x, y)
        x, y = x // g, y // g
        s, t = bezout(x, y)
        assert s * x + t * y == 1

    def test_axes(self):
        assert bezout(0, -1) == (0, -1)
        assert bezout(-1, 0) == (-1, 0)
        for unit in (1, -1):
            for big in (10**40, -10**40):
                for x, y in ((unit, big), (big, unit)):
                    s, t = bezout(x, y)
                    assert s * x + t * y == 1


class TestConstruction:
    def test_example_triangle(self):
        assert set(P2.vertices) == {(1, -1), (-1, 2), (0, -1)}

    def test_counterclockwise_canonical(self):
        # lex-min first, CCW, independent of input order
        assert P2.vertices == ((-1, 2), (0, -1), (1, -1))
        assert make_fano_triangle((0, -1), (1, -1), (-1, 2)) == P2

    def test_origin_outside(self):
        with pytest.raises(OriginNotInterior):
            make_fano_triangle((1, 0), (0, 1), (1, 1))

    def test_non_primitive(self):
        with pytest.raises(NonPrimitiveVertex):
            make_fano_triangle((2, 0), (0, 1), (-1, -1))

    def test_collinear(self):
        with pytest.raises(OriginNotInterior):
            make_fano_triangle((1, 0), (-1, 0), (0, 1))


class TestDual:
    def test_dual_vertices_pair_to_minus_one(self):
        dual = dual_polygon(P2)
        assert len(dual) == 3
        for u in dual:
            assert sum(1 for v in P2.vertices if pairing(u, v) == -1) == 2
            assert all(pairing(u, v) >= -1 for v in P2.vertices)

    def test_standard_simplex(self):
        T = make_fano_triangle((1, 0), (0, 1), (-1, -1))
        assert set(dual_polygon(T)) == {(-1, -1), (2, -1), (-1, 2)}

    def test_involution(self, corpus):
        for P in corpus[:60]:
            again = _rational_dual(dual_polygon(P))
            assert set(again) == {(Fraction(x), Fraction(y))
                                  for x, y in P.vertices}

    def test_origin_on_an_edge_rejected(self):
        square = [(-1, -1), (1, -1), (1, 0), (-1, 0)]
        with pytest.raises(OriginNotInterior, match=re.escape("edge (1, 0) -> (-1, 0)")):
            dual_polygon(square)
        # a rational polygon is no Fano polygon, so its dual is not taken
        halves = [(Fraction(x, 2), Fraction(y, 2)) for x, y in square]
        with pytest.raises(TypeError):
            dual_polygon(halves)

    def test_fraction_input_and_either_orientation(self):
        dual = dual_polygon(P2)
        with pytest.raises(TypeError):
            dual_polygon(dual)
        assert set(_rational_dual(list(dual)[::-1])) == set(_rational_dual(dual))
        assert set(_rational_dual(dual)) == set(P2.vertices)
        assert dual_polygon(list(P2.vertices)[::-1]) == dual

    def test_origin_interior_of_dual(self, corpus):
        for P in corpus[:30]:
            dual = dual_polygon(P)
            k = len(dual)
            for i in range(k):
                p, q = dual[i], dual[(i + 1) % k]
                assert p[0] * q[1] - p[1] * q[0] > 0


def height_range(P, w):
    """Lowest and highest height of P's vertices under w."""
    hs = [pairing(w, v) for v in P.vertices]
    return min(hs), max(hs)


class TestHeights:
    def test_example_range(self):
        assert height_range(P2, (0, 1)) == (-1, 2)

    def test_negation_swaps(self, corpus):
        for P in corpus[:30]:
            h_min, h_max = height_range(P, (3, -2))
            assert height_range(P, (-3, 2)) == (-h_max, -h_min)

    def test_derived_range(self):
        assert height_range(T35, (1, 2)) == (-4, 2)

    def test_min_negative_max_positive(self, small_corpus):
        widths = [(a, b) for a in range(-10, 11) for b in range(-10, 11)
                  if is_primitive((a, b))]
        for P in small_corpus[:15]:
            for w in widths:
                h_min, h_max = height_range(P, w)
                assert h_min < 0 < h_max


class TestSlices:
    """The test-local slice oracle against a brute-force scan."""

    def test_bottom_edge(self):
        assert height_slice(P2, (0, 1), -1) == ((0, -1), (1, -1))

    def test_apex(self):
        assert height_slice(P2, (0, 1), 2) == ((-1, 2), (-1, 2))

    def test_height_zero_matches_brute_force(self):
        # oracle: enumerate lattice points of P2 at height 0 directly
        pts = brute_force_lattice_points(P2, 0, (0, 1))
        assert pts == [(0, 0)]
        assert height_slice(P2, (0, 1), 0) == ((0, 0), (0, 0))

    def test_slices_match_brute_force(self, small_corpus):
        for P in small_corpus[:10]:
            for w in ((0, 1), (1, 0), (1, 1), (2, -1)):
                h_min, h_max = height_range(P, w)
                for h in range(h_min - 1, h_max + 2):
                    pts = brute_force_lattice_points(P, h, w)
                    got = height_slice(P, w, h)
                    if not pts:
                        assert got is None
                    else:
                        assert tuple(sorted(got)) == (pts[0], pts[-1])

    def test_extreme_slices_nonempty(self, corpus):
        for P in corpus[:40]:
            h_min, h_max = height_range(P, (1, 2))
            assert height_slice(P, (1, 2), h_min) is not None
            assert height_slice(P, (1, 2), h_max) is not None


class TestDegree:
    def test_p2(self):
        assert degree(P2) == 9

    def test_p114(self):
        Q = make_fano_triangle((1, 2), (-1, 2), (0, -1))
        assert degree(Q) == 9

    def test_fake_plane_degree(self):
        assert degree(T35) == Fraction(6, 5)

    def test_positive_and_unimodular_invariant(self, corpus):
        for P in corpus[:40]:
            d = degree(P)
            assert d > 0
            # shear by [[1,1],[0,1]] and a rotation [[0,-1],[1,0]]
            sheared = make_fano_triangle(*[(x + y, y) for x, y in P.vertices])
            rotated = make_fano_triangle(*[(-y, x) for x, y in P.vertices])
            assert degree(sheared) == d
            assert degree(rotated) == d


    def test_matches_dual_area_oracle(self, corpus):
        polygons = [P.vertices for P in corpus]
        polygons += [Q for P in corpus for _, Q in enumerate_one_step(P)]
        assert any(len(Q) > 3 for Q in polygons)
        for vs in polygons:
            want = _degree_oracle(vs)
            assert degree(vs) == want
            assert degree(vs[::-1]) == want

    def test_non_primitive_vertices_rejected(self):
        for vs in ([(2, 0), (0, 1), (-1, -1)], [(2, 0), (0, 3), (-1, -1)],
                   [(6, -4), (-3, 5), (-9, -3)], [(1, 0), (-1, 0), (2, 0)]):
            with pytest.raises(NonPrimitiveVertex):
                degree(vs)
            with pytest.raises(NonPrimitiveVertex):
                degree(vs[::-1])

    def test_matches_dual_area_oracle_at_max_growth_step_14(self, max_growth_branch):
        P = wps_triangle(*max_growth_branch[14])
        polygons = [P.vertices] + [Q for _, Q in enumerate_one_step(P)]
        assert len(polygons) > 1
        for vs in polygons:
            assert degree(vs) == _degree_oracle(vs) == 9

    @pytest.mark.parametrize("vertices, edge", [
        ([(1, 0), (2, 1), (1, 1)], "(1, 1) -> (1, 0)"),           # origin outside
        ([(-1, -1), (1, -1), (1, 0), (-1, 0)], "(1, 0) -> (-1, 0)"),  # on an edge
    ])
    def test_origin_must_be_interior(self, vertices, edge):
        with pytest.raises(OriginNotInterior, match=re.escape(f"edge {edge}")):
            degree(vertices)

    def test_degenerate_hull_rejected(self):
        for vertices in ([], [(1, 0)], [(1, 0), (-1, 0)]):
            with pytest.raises(OriginNotInterior):
                degree(vertices)


def _rational_dual(vertices):
    """One dual vertex per edge p -> q of the vertex cycle as given, in
    Fractions: the u with u(p) = u(q) = -1. Its coordinates may be
    rational, so it takes the dual of a dual, which dual_polygon refuses;
    either orientation gives the same vertices."""
    k = len(vertices)
    duals = []
    for i in range(k):
        p, q = vertices[i], vertices[(i + 1) % k]
        d = Fraction(p[0] * q[1] - p[1] * q[0])
        duals.append((Fraction(p[1] - q[1]) / d, Fraction(q[0] - p[0]) / d))
    return duals


def _degree_oracle(vertices):
    """The degree the long way, in Fractions: one dual vertex per edge of
    the vertex cycle as given, their convex hull, and twice its area."""
    dual = convex_hull(_rational_dual(vertices))
    return sum((dual[i][0] * dual[(i + 1) % len(dual)][1]
                - dual[i][1] * dual[(i + 1) % len(dual)][0]
                for i in range(len(dual))), Fraction(0))


class TestValidateFanoPolygon:
    """A vertex list that is no convex counterclockwise cycle is never
    taken as given: FanoPolygon reads it as its convex hull, the polygon
    the list spans."""

    def test_dented_pentagon_rejected(self):
        dented = ((2, -1), (1, 0), (2, 1), (-1, 1), (-1, -1))
        assert FanoPolygon(dented) == convex_hull(dented) == (
            (-1, -1), (2, -1), (2, 1), (-1, 1))

    def test_collinear_boundary_point_rejected(self):
        line = ((1, -1), (1, 0), (1, 1), (-1, 0))
        assert FanoPolygon(line) == convex_hull(line) == ((-1, 0), (1, -1), (1, 1))

    def test_pentagram_rejected(self):
        # every step turns left around the origin, but twice around
        star = ((-2, -1), (3, -1), (-1, 2), (-1, -3), (1, 2))
        assert FanoPolygon(star) == convex_hull(star) == (
            (-2, -1), (-1, -3), (3, -1), (1, 2), (-1, 2))

    def test_clockwise_rejected(self):
        clockwise = ((1, 0), (-1, -1), (0, 1))
        assert FanoPolygon(clockwise) == convex_hull(clockwise) == (
            (-1, -1), (1, 0), (0, 1))


def _assert_edge_table(P):
    """Each row (w, h, L) of edges(P) against its edge p -> q: w primitive,
    h L = det(p, q), w(p) = w(q) = -h, L the lattice length, and the edge
    cone a T-singularity iff h divides L. Returns the number of T-cones."""
    vs = FanoPolygon(P)
    rows = list(edges(P))
    assert len(rows) == len(vs)
    assert list(edges(tuple(vs)[::-1])) == rows
    t_cones = 0
    for (p, q), (w, h, L) in zip(zip(vs, vs[1:] + vs[:1]), rows):
        assert is_primitive(w) and h > 0
        assert h * L == p[0] * q[1] - p[1] * q[0]
        assert pairing(w, p) == pairing(w, q) == -h
        assert L == gcd(p[0] - q[0], p[1] - q[1])
        is_t = is_T_singularity(cone_singularity(p, q))
        assert is_t == (L % h == 0)
        t_cones += is_t
    return t_cones


_PRIMITIVE_POINT = st.tuples(st.integers(-12, 12),
                             st.integers(-12, 12)).filter(is_primitive)


class TestEdges:
    def test_p2_and_a_fake_plane(self):
        assert list(edges(P2)) == [((3, 1), 1, 1), ((0, 1), 1, 1), ((-3, -2), 1, 1)]
        # (-5, 2) -> (10, -7): normal (9, 15) = 3 (3, 5), det 15 = 5 * 3
        assert list(edges(T35)) == [((3, 5), 5, 3), ((-4, -5), 5, 2), ((-1, -5), 5, 1)]

    def test_rows_match_their_edges(self, corpus, max_growth_branch):
        polygons = [P.vertices for P in corpus]
        polygons += [Q for P in corpus for _, Q in enumerate_one_step(P)]
        polygons += [wps_triangle(*w) for w in max_growth_branch[10:17]]
        assert any(len(Q) > 3 for Q in polygons)
        t_cones = sum(_assert_edge_table(P) for P in polygons)
        assert 0 < t_cones < sum(map(len, polygons))

    @given(st.lists(_PRIMITIVE_POINT, min_size=3, max_size=8))
    def test_rows_match_their_edges_on_drawn_hulls(self, points):
        try:
            FanoPolygon(points)
        except LatticeError:
            assume(False)
        _assert_edge_table(points)


class TestJson:
    def test_round_trip(self):
        assert triangle_from_json(triangle_to_json(P2)) == P2

    def test_decimal_strings(self):
        text = triangle_to_json(P2)
        assert '"-1"' in text

    def test_big_integers_survive(self):
        big = 10**30
        P = make_fano_triangle((1, 0), (0, 1), (-big, -(big + 1)))
        assert triangle_from_json(triangle_to_json(P)) == P

    # Python's int <-> str conversion refuses 4300 digits and more.
    @pytest.mark.parametrize("n, text", [
        (0, "0"),
        (-7, "-7"),
        (10**5000, "1" + "0" * 5000),
        (10**5000 - 1, "9" * 5000),
        (-(10**9000 + 1), "-1" + "0" * 8999 + "1"),
        (10**4300 + 10**2150, "1" + "0" * 2149 + "1" + "0" * 2150),
    ], ids=["0", "-7", "10^5000", "10^5000-1", "-(10^9000+1)", "10^4300+10^2150"])
    def test_decimal_helpers_past_the_digit_limit(self, n, text):
        assert int_to_decimal(n) == text
        assert decimal_to_int(text) == n

    def test_decimal_helpers_round_trip(self):
        for n in (3**20000, -(7**9000), 2**50000 + 1):
            text = int_to_decimal(n)
            assert text.lstrip("-")[0] != "0"
            assert decimal_to_int(text) == n

    @pytest.mark.parametrize("value, text", [
        ((1,), "(1,)"), ((), "()"), ((1, -2), "(1, -2)"), ([1], "[1]"),
        (((1,), [2, (3,)]), "((1,), [2, (3,)])"), ((Fraction(1, 2),), "(1/2,)"),
    ], ids=["one", "empty", "pair", "list-one", "nested", "fraction"])
    def test_format_ints_punctuates_as_python_does(self, value, text):
        assert format_ints(value) == text

    def test_weights_past_the_digit_limit_survive(self, max_growth_branch):
        P = wps_triangle(*max_growth_branch[-1])
        assert triangle_from_json(triangle_to_json(P)) == P

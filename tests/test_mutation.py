import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from fwpp import lattice, mutation
from fwpp.diophantine import build_mutation_tree
from fwpp.fwps import weights_of, wps_triangle
from fwpp.lattice import (
    FanoPolygon,
    LatticeError,
    NonPrimitiveVertex,
    OriginNotInterior,
    convex_hull,
    degree,
    dual_polygon,
    make_fano_triangle,
    polygon_vertices,
    triangle_from_json,
    triangle_to_json,
)
from fwpp.mutation import (
    Factor,
    InvalidFactor,
    InvalidMutationData,
    admissible_widths,
    canonical_form,
    enumerate_one_step,
    find_factors,
    mutate_with,
    unimodular_equivalent,
)
from dual_map_oracle import pl_dual_map
from enumerate_oracle import enumerate_oracle
from slice_oracle import apply_matrix, egcd, lattice_slice_interval, width_transform

P2 = make_fano_triangle((1, -1), (-1, 2), (0, -1))
Q114 = make_fano_triangle((1, 2), (-1, 2), (0, -1))
T35 = make_fano_triangle((10, -7), (-5, 2), (0, 1))


class TestAdmissibleWidths:
    def test_example_width(self):
        assert (0, 1) in admissible_widths(P2)

    def test_always_three(self, corpus):
        for P in corpus[:50]:
            assert len(admissible_widths(P)) == 3

    def test_standard_simplex(self):
        T = make_fano_triangle((1, 0), (0, 1), (-1, -1))
        # primitivizations of the dual vertices (-1,-1), (2,-1), (-1,2)
        assert set(admissible_widths(T)) == {(-1, -1), (2, -1), (-1, 2)}

    def test_widths_match_dual_oracle(self, corpus):
        polygons = [P.vertices for P in corpus]
        polygons += [Q for P in corpus for _, Q in enumerate_one_step(P)]
        assert any(len(Q) > 3 for Q in polygons)
        for vs in polygons:
            want = _dual_widths(vs)
            assert admissible_widths(vs) == want
            assert admissible_widths(vs[::-1]) == want


def _dual_widths(P):
    """Widths the long way: the primitive point on the ray through each
    vertex of the rational dual polygon."""
    widths = set()
    for x, y in dual_polygon(P):
        x, y = Fraction(x), Fraction(y)
        m = lcm(x.denominator, y.denominator)
        a, b = int(x * m), int(y * m)
        g = gcd(a, b)
        widths.add((a // g, b // g))
    return sorted(widths)


class TestFindFactors:
    def test_example_factor(self):
        assert find_factors(P2, (0, 1)) == [Factor(w=(0, 1), f=(1, 0), length=1)]

    def test_width_given_as_a_list(self):
        assert [f.length for f in find_factors(P2, [0, 1])] == [1]
        factor = Factor(w=[0, 1], f=[1, 0], length=1)
        assert mutate_with(P2, factor) == Q114.vertices
        # the factor keeps tuples of ints, so it hashes and compares as one
        # given as tuples
        expected = Factor((0, 1), (1, 0), 1)
        for factor in (find_factors(P2, [0, 1])[0], factor,
                       Factor((False, True), [True, 0], True)):
            assert factor == expected and hash(factor) == hash(expected)
            assert (type(factor.w), type(factor.f)) == (tuple, tuple)
            assert all(type(x) is int for x in (*factor.w, *factor.f, factor.length))
        assert Factor((0, 1), (1, 0), True).length == 1

    def test_lengths_match_slice_oracle(self, corpus, small_corpus):
        # the outputs of the small corpus: the slice oracle walks every
        # height, and on the larger corpus's outputs it takes half a minute
        polygons = [P.vertices for P in corpus]
        polygons += [Q for P in small_corpus for _, Q in enumerate_one_step(P)]
        assert any(len(Q) > 3 for Q in polygons)
        total = 0
        for P in polygons:
            for w in admissible_widths(P):
                factors = find_factors(P, w)
                total += len(factors)
                assert [f.length for f in factors] == _feasible_lengths(P, w)
                assert len({f.f for f in factors}) <= 1
        assert total > 0

    def test_no_factor_iff_the_row_is_higher_than_long(self, corpus):
        # the normal w of every edge is an admissible width, but its row
        # (w, h, L) admits a factor only when h <= L
        polygons = [P.vertices for P in corpus]
        polygons += [Q for P in corpus for _, Q in enumerate_one_step(P)]
        rows = [(P, w, h, L) for P in polygons for w, h, L in lattice.edges(P)]
        empty = 0
        for P, w, h, L in rows:
            factors = find_factors(P, w)
            assert (factors == []) == (h > L)
            empty += factors == []
        assert 0 < empty < len(rows)

    def test_rigid_triangle_has_no_factors(self):
        for w in admissible_widths(T35):
            assert find_factors(T35, w) == []

    def test_sharp_vertex_blocks_factor(self):
        # single vertex at h_min with a width-0 slice there
        T = make_fano_triangle((1, 0), (0, 1), (-1, -1))
        assert find_factors(T, (1, 1)) == []

    def test_non_admissible_widths_have_no_factors(self, small_corpus):
        from fwpp.lattice import is_primitive
        for P in small_corpus[:12]:
            adm = set(admissible_widths(P))
            for w in itertools.product(range(-5, 6), repeat=2):
                if not is_primitive(w) or tuple(w) in adm:
                    continue
                assert find_factors(P, tuple(w)) == []


class TestMutate:
    def test_p2_to_p114(self):
        factor = find_factors(P2, (0, 1))[0]
        assert mutate_with(P2, factor) == Q114.vertices
        assert mutate_with(P2.vertices[::-1], factor) == Q114.vertices
        g = {-1: ((0, -1), (0, -1))}
        assert _mutate_from_g(P2, factor, g) == Q114.vertices

    def test_invertible(self):
        factor = Factor(w=(0, 1), f=(1, 0), length=1)
        Q = mutate_with(P2, factor)
        assert mutate_with(Q, factor.inverse()) == P2.vertices

    def test_invalid_data_rejected(self):
        factor = Factor(w=(0, 1), f=(1, 0), length=1)
        bad = {-1: ((1, -1), (1, -1))}  # excludes vertex (0,-1)+F
        with pytest.raises(InvalidMutationData):
            _mutate_from_g(P2, factor, bad)

    def test_infeasible_length(self):
        with pytest.raises(InvalidMutationData):
            mutate_with(P2, Factor(w=(0, 1), f=(1, 0), length=2))

    def test_boundary_points_in_any_order(self, small_corpus):
        # every boundary lattice point listed, shuffled: same factors and
        # results as the vertices alone
        rng = random.Random(11)
        total = 0
        for P in small_corpus:
            points = _boundary_points(P.vertices)
            rng.shuffle(points)
            for w in admissible_widths(P):
                factors = find_factors(P, w)
                assert find_factors(points, w) == factors
                for factor in factors:
                    total += 1
                    assert mutate_with(points, factor) == mutate_with(P, factor)
        assert total > 0

    def test_g_choice_irrelevant_up_to_equivalence(self, small_corpus):
        # every valid choice of {G_h}, for both factor directions, gives
        # exactly the closed-form result
        total = 0
        for P in small_corpus:
            for w in admissible_widths(P):
                for factor in find_factors(P, w):
                    for fac in (factor, _negated(factor)):
                        out = mutate_with(P, fac)
                        for g in _all_g_choices(P, w, fac):
                            total += 1
                            assert _mutate_from_g(P, fac, g) == out
        assert total > 0


def _negated(factor):
    return Factor(w=factor.w, f=(-factor.f[0], -factor.f[1]),
                  length=factor.length)


def _slices(P, w):
    """Basis change U for w, its inverse, the normalized vertices, and the
    integer slice interval (or None) at every height from h_min to h_max."""
    U, Uinv = width_transform(w)
    nvs = [apply_matrix(U, v) for v in polygon_vertices(P)]
    hs = [v[1] for v in nvs]
    slices = {h: lattice_slice_interval(nvs, h)
              for h in range(min(hs), max(hs) + 1)}
    return U, Uinv, nvs, slices


def _feasible_lengths(P, w):
    """Factor lengths by brute force: the slice widths at the vertex heights
    below zero cap the length, and each length up to one past the cap is
    kept when the maximal {G_h} passes the per-height inclusion check."""
    _, Uinv, nvs, slices = _slices(P, w)
    caps = [(slices[y][1] - slices[y][0]) // -y for _, y in nvs if y < 0]
    f = apply_matrix(Uinv, (1, 0))
    lengths = []
    for length in range(1, min(caps) + 2):
        g = {}
        for h, iv in slices.items():
            if h < 0 and iv is not None and iv[1] - iv[0] >= -h * length:
                g[h] = (apply_matrix(Uinv, (iv[0], h)),
                        apply_matrix(Uinv, (iv[1] + h * length, h)))
        try:
            _mutate_from_g(P, Factor(w=w, f=f, length=length), g)
        except InvalidMutationData:
            continue
        lengths.append(length)
    return lengths


def _mutate_from_g(P, factor, g):
    """The mutation built from an explicit choice {G_h}: the hull of the
    G_h endpoints for h < 0 and the slices stretched by h*F for h >= 0.
    Raises InvalidMutationData unless vertices <= G_h + (-h)F <= slice."""
    U, Uinv, nvs, slices = _slices(P, factor.w)
    direction = apply_matrix(U, factor.f)[0]
    points = []
    for h, iv in slices.items():
        need = abs(h) * factor.length
        if h >= 0:
            if iv is not None:
                a, b = iv
                if direction == 1:
                    points += [(a, h), (b + need, h)]
                else:
                    points += [(a - need, h), (b, h)]
            continue
        vertex_xs = [v[0] for v in nvs if v[1] == h]
        seg = g.get(h)
        if seg is None:
            if vertex_xs:
                raise InvalidMutationData(f"empty G at height {h} excludes vertices")
            continue
        p, q = apply_matrix(U, seg[0]), apply_matrix(U, seg[1])
        if p[1] != h or q[1] != h:
            raise InvalidMutationData(f"G segment not at height {h}")
        ga, gb = min(p[0], q[0]), max(p[0], q[0])
        lo, hi = (ga, gb + need) if direction == 1 else (ga - need, gb)
        if iv is None or lo < iv[0] or hi > iv[1]:
            raise InvalidMutationData(f"G + (-h)F not contained in slice at {h}")
        if not all(lo <= x <= hi for x in vertex_xs):
            raise InvalidMutationData(f"vertex at height {h} not covered")
        points += [(ga, h), (gb, h)]
    out = convex_hull(apply_matrix(Uinv, p) for p in points)
    assert FanoPolygon(list(out)) == out
    return out


def _all_g_choices(P, w, factor, cap=200):
    """Every collection {G_h} satisfying the inclusion condition: all
    sub-intervals of the slice, of any width, at every negative height."""
    U, Uinv, nvs, slices = _slices(P, w)
    fn = apply_matrix(U, factor.f)
    per_height = []
    heights = [h for h in slices if h < 0]
    for h in heights:
        iv = slices[h]
        need = (-h) * factor.length
        vxs = [v[0] for v in nvs if v[1] == h]
        options = []
        if not vxs:
            options.append(None)
        if iv is not None:
            a, b = iv
            for ga in range(a, b + 1):
                for gb in range(ga, b + 1):
                    lo, hi = (ga, gb + need) if fn[0] == 1 else (ga - need, gb)
                    if lo >= a and hi <= b and all(lo <= x <= hi for x in vxs):
                        options.append((
                            apply_matrix(Uinv, (ga, h)),
                            apply_matrix(Uinv, (gb, h)),
                        ))
        per_height.append(options)
    combos = itertools.islice(itertools.product(*per_height), cap)
    return [dict(zip(heights, combo)) for combo in combos]


class TestDualMap:
    def test_p2_to_p114_dual(self):
        factor = Factor(w=(0, 1), f=(1, 0), length=1)
        assert set(dual_polygon(mutate_with(P2, factor))) == set(dual_polygon(Q114))

    def test_fixed_chamber_vertices_stay_in_image(self):
        # vertices with u(f) >= 0 are fixed pointwise, so they still lie in
        # the dual of the mutated polygon (possibly no longer as vertices)
        factor = Factor(w=(0, 1), f=(1, 0), length=1)
        Q = mutate_with(P2, factor)
        for u in dual_polygon(P2):
            if u[0] * factor.f[0] + u[1] * factor.f[1] >= 0:
                assert all(u[0] * x + u[1] * y >= -1 for x, y in Q)

    def test_matches_dual_of_mutation(self, corpus):
        # the piecewise-linear map on the dual, in both vertex orders and
        # for +-f, one length past the maximum included
        for T in corpus:
            for P in (T, T.vertices[::-1]):
                for w in admissible_widths(P):
                    factors = find_factors(P, w)
                    factors.append(Factor(w=w, f=(w[1], -w[0]),
                                          length=len(factors) + 1))
                    for factor in factors:
                        for fac in (factor, _negated(factor)):
                            try:
                                want = pl_dual_map(P, fac)
                            except InvalidFactor as e:
                                with pytest.raises(InvalidMutationData) as info:
                                    dual_polygon(mutate_with(P, fac))
                                assert str(info.value) == str(e)
                                continue
                            assert dual_polygon(mutate_with(P, fac)) == want

    def test_invalid_factor(self):
        with pytest.raises(InvalidMutationData):
            dual_polygon(mutate_with(P2, Factor(w=(0, 1), f=(1, 0), length=2)))

    @pytest.mark.parametrize("vertices", [
        [(-1, -1), (1, -1), (1, 0), (-1, 0)],  # origin on an edge
        [(-1, -1), (1, -1), (0, 2)],  # a vertex that is not primitive
    ])
    def test_non_fano_input_rejected(self, vertices):
        with pytest.raises(LatticeError):
            dual_polygon(mutate_with(vertices, Factor(w=(0, 1), f=(1, 0), length=1)))


_primitive_points = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(
    lattice.is_primitive)


class TestEnumerate:
    def test_p2_single_class(self):
        results = enumerate_one_step(P2, triangles_only=True)
        assert len(results) == 1
        _, Q = results[0]
        assert unimodular_equivalent(Q, wps_triangle(1, 1, 4).vertices)

    def test_p3511_rigid(self):
        assert enumerate_one_step(wps_triangle(3, 5, 11)) == []

    def test_fake_plane_rigid(self):
        assert enumerate_one_step(T35) == []

    def test_one_edge_table_per_call(self, corpus, monkeypatch):
        # every factor is read off the one table, and built without
        # Factor's checks, so no primitivity test runs in mutation
        polygons = list(corpus) + [Q for P in corpus[:60]
                                   for _, Q in enumerate_one_step(P)]
        assert any(len(Q) > 3 for Q in polygons)
        calls = Counter()
        for name in ("edges", "is_primitive"):
            def counted(*args, _real=getattr(mutation, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(mutation, name, counted)
        for P in polygons:
            for triangles_only in (False, True):
                calls.clear()
                enumerate_one_step(P, triangles_only)
                assert calls == Counter(edges=1)

    @pytest.mark.parametrize("triangles_only", [False, True])
    def test_matches_oracle_on_corpus_and_outputs(self, corpus, triangles_only):
        polygons = list(corpus) + [Q for P in corpus
                                   for _, Q in enumerate_one_step(P)]
        assert any(len(Q) > 3 for Q in polygons)
        kept = 0
        for P in polygons:
            want = enumerate_oracle(P, triangles_only)
            kept += len(want)
            assert enumerate_one_step(P, triangles_only) == want
        assert kept > 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_primitive_points, min_size=3, max_size=8), st.booleans())
    def test_matches_oracle_on_drawn_hulls(self, points, triangles_only):
        # the hull of primitive points has primitive vertices; it is a Fano
        # polygon when the origin lies inside
        try:
            P = FanoPolygon(points)
        except OriginNotInterior:
            assume(False)
        assert enumerate_one_step(P, triangles_only) == enumerate_oracle(
            P, triangles_only)

    def test_triangle_criterion(self, corpus):
        # a mutation along the row (w, h, L) can be a triangle only if its
        # length is L / h, and for a triangle it then is one
        polygons = list(corpus) + [Q for P in corpus
                                   for _, Q in enumerate_one_step(P)]
        total = 0
        for P in polygons:
            rows = {w: (h, L) for w, h, L in lattice.edges(P)}
            for factor, Q in enumerate_one_step(P):
                h, L = rows[factor.w]
                if len(Q) == 3 or len(P) == 3:
                    assert (len(Q) == 3) == (factor.length * h == L)
                total += len(Q) == 3 and len(P) > 3
        assert total > 0

    @pytest.mark.parametrize("root", [(1, 1, 1), (1, 1, 2), (1, 2, 3)])
    def test_geometric_tree_matches_weight_tree(self, root):
        # breadth-first over triangle mutations, up to equivalence
        start = wps_triangle(*root)
        seen = {canonical_form(start)}
        level = [start.vertices]
        weights = {weights_of(start).weights}
        for _ in range(8):
            nxt = []
            for P in level:
                for _, Q in enumerate_one_step(P, triangles_only=True):
                    key = canonical_form(Q)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(Q)
                        weights.add(weights_of(Q).weights)
            level = nxt
        assert weights == build_mutation_tree(root, max_depth=8).weight_set()


def _boundary_points(vs):
    """Every lattice point on the boundary of the polygon."""
    points = []
    for p, q in zip(vs, vs[1:] + vs[:1]):
        n = gcd(q[0] - p[0], q[1] - p[1])
        step = ((q[0] - p[0]) // n, (q[1] - p[1]) // n)
        points += [(p[0] + i * step[0], p[1] + i * step[1]) for i in range(n)]
    return points


class TestBareVertexLists:
    """A bare list is read as its convex hull, checked once: any order and
    any extra points inside give the answers of the counterclockwise hull,
    and a list whose hull is not a Fano polygon raises."""

    def test_any_order_gives_the_hull_answer(self, corpus):
        rng = random.Random(23)
        polygons = [P.vertices for P in corpus]
        polygons += [Q for P in corpus for _, Q in enumerate_one_step(P)]
        assert any(len(Q) > 3 for Q in polygons)
        for vs in polygons:
            shuffled = list(vs)
            rng.shuffle(shuffled)
            points = _boundary_points(vs)
            rng.shuffle(points)
            with_origin = list(vs) + [(0, 0)]
            rng.shuffle(with_origin)
            widths = admissible_widths(vs)
            factors = [find_factors(vs, w) for w in widths]
            classes = enumerate_one_step(vs)
            for other in (vs[::-1], shuffled, points, with_origin):
                assert admissible_widths(other) == widths
                assert [find_factors(other, w) for w in widths] == factors
                assert enumerate_one_step(other) == classes

    def test_shuffled_quadrilateral(self):
        quad = [(8, 5), (-9, -4), (29, 12), (-3, -2)]
        hull = convex_hull(quad)
        assert hull != tuple(quad)
        assert len(enumerate_one_step(hull)) == 1
        assert enumerate_one_step(quad) == enumerate_one_step(hull)

    @pytest.mark.parametrize("vertices", [
        [(-1, -1), (1, -1), (1, 0), (-1, 0)],
        [(-1, -1), (1, -1), (0, 2)],
        [(1, 0), (0, 1), (1, 1)],
    ], ids=["origin-on-edge", "non-primitive-vertex", "origin-outside"])
    @pytest.mark.parametrize("call", [
        admissible_widths,
        lambda P: find_factors(P, (0, 1)),
        enumerate_one_step,
        lambda P: mutate_with(P, Factor(w=(0, 1), f=(1, 0), length=1)),
    ], ids=["admissible_widths", "find_factors", "enumerate_one_step",
            "mutate_with"])
    def test_non_fano_input_rejected(self, call, vertices):
        with pytest.raises(LatticeError):
            call(vertices)


class TestFanoPolygon:
    """A polygon is read once, where it enters. The constructors and
    mutate_with return a FanoPolygon, which every reader passes through."""

    def test_constructors_and_mutations_return_fano_polygons(self):
        factor = Factor(w=(0, 1), f=(1, 0), length=1)
        for P in (make_fano_triangle((1, -1), (-1, 2), (0, -1)),
                  wps_triangle(1, 1, 4),
                  triangle_from_json(triangle_to_json(T35)),
                  mutate_with(P2, factor),
                  mutate_with(list(P2), factor)):
            assert type(P) is FanoPolygon
            assert P.vertices is P

    def test_constructor_checks_the_hull(self):
        with pytest.raises(NonPrimitiveVertex):
            weights_of(FanoPolygon([(2, 0), (0, 1), (-1, -1)]))
        with pytest.raises(OriginNotInterior):
            degree(FanoPolygon([(1, 0), (0, 1)]))
        points = [(0, 1), (0, 0), (-1, -1), (1, 0)]
        P = FanoPolygon(points)
        assert type(P) is FanoPolygon
        assert P == FanoPolygon(points[::-1]) == ((-1, -1), (1, 0), (0, 1))
        assert FanoPolygon(P) is P

    def test_one_validation_of_a_bare_list_none_of_an_output(self, corpus, reads):
        for P in corpus:
            reads.clear()
            outputs = enumerate_one_step(list(P))
            assert reads["_check_fano_hull"] == 1
            for factor, Q in outputs:
                reads.clear()
                enumerate_one_step(Q)
                assert reads["_check_fano_hull"] == 0
                degree(Q)
                dual_polygon(Q)
                dual_polygon(mutate_with(Q, factor.inverse()))
                assert reads["convex_hull"] == 0

    def test_outputs_answer_as_their_bare_tuples(self, corpus):
        outputs = [Q for P in corpus for _, Q in enumerate_one_step(P)]
        assert any(len(Q) > 3 for Q in outputs)
        for Q in outputs:
            bare = tuple(map(tuple, Q))
            assert type(bare) is tuple and bare == Q
            assert degree(bare) == degree(Q)
            assert dual_polygon(bare) == dual_polygon(Q)
            assert enumerate_one_step(bare) == enumerate_one_step(Q)
            if len(Q) == 3:
                assert weights_of(bare) == weights_of(Q)


@st.composite
def _special_vertex_lists(draw):
    """2 to 7 vertices, among them zero vertices, repeats, multiples of
    earlier vertices (collinear through the origin, often non-primitive)
    and coordinates up to 10^30."""
    coordinate = st.one_of(st.integers(-4, 4), st.integers(-10**30, 10**30))
    vs = [(draw(coordinate), draw(coordinate))]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["point", "zero", "repeat", "multiple"]))
        if kind == "point":
            vs.append((draw(coordinate), draw(coordinate)))
        elif kind == "zero":
            vs.append((0, 0))
        elif kind == "repeat":
            vs.append(draw(st.sampled_from(vs)))
        else:
            x, y = draw(st.sampled_from(vs))
            m = draw(st.sampled_from([-3, -2, -1, 2, 3]))
            vs.append((m * x, m * y))
    return vs


class TestCanonicalForm:
    def test_unimodular_images_equivalent(self, corpus):
        for P in corpus[:30]:
            sheared = make_fano_triangle(*[(x, x + y) for x, y in P.vertices])
            flipped = make_fano_triangle(*[(y, x) for x, y in P.vertices])
            assert unimodular_equivalent(P.vertices, sheared.vertices)
            assert unimodular_equivalent(P.vertices, flipped.vertices)

    def test_compares_hulls_in_any_vertex_order(self):
        diamond = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        assert unimodular_equivalent(diamond, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        quad = [(8, 5), (-9, -4), (29, 12), (-3, -2)]
        assert unimodular_equivalent(quad, convex_hull(quad))
        assert unimodular_equivalent(quad, _boundary_points(convex_hull(quad)))

    def test_distinguishes_different_planes(self):
        assert not unimodular_equivalent(P2.vertices, Q114.vertices)
        assert not unimodular_equivalent(P2.vertices, T35.vertices)

    def test_matches_hnf_oracle(self, corpus):
        polygons = [P.vertices for P in corpus]
        polygons += [Q for P in corpus for _, Q in enumerate_one_step(P)]
        assert any(len(Q) > 3 for Q in polygons)
        _assert_canonical_forms_match(polygons)

    def test_matches_hnf_oracle_on_special_vertices(self):
        for vertices in (
            ((2, 0), (0, 1), (-1, -1)),          # non-primitive vertex
            ((6, -4), (-3, 5), (0, 1), (-9, -3)),
            ((0, 0), (2, 1), (1, 3)),            # the origin as a vertex
            ((0, 0), (0, 0), (3, 1), (0, 0), (1, 2)),
        ):
            _assert_refused_as_by_fano_polygon(vertices, NonPrimitiveVertex)

    def test_matches_hnf_oracle_at_max_growth_step_14(self, max_growth_branch):
        P = wps_triangle(*max_growth_branch[14])
        outputs = [Q for _, Q in enumerate_one_step(P)]
        assert outputs
        _assert_canonical_forms_match([P.vertices] + outputs)

    def test_matches_hnf_oracle_when_every_candidate_ties(self):
        # unimodular edges: every rotation and orientation screens to the
        # same two columns, so each candidate is built
        _assert_canonical_forms_match([
            ((1, 0), (0, 1), (-1, -1)),                            # P2
            ((1, 0), (0, 1), (-1, 0), (0, -1)),                    # P1 x P1
            ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),  # hexagon
        ])

    @settings(max_examples=400, deadline=None)
    @given(_special_vertex_lists())
    def test_matches_hnf_oracle_on_special_vertex_lists(self, vs):
        try:
            hull = FanoPolygon(vs)
        except LatticeError as exc:
            _assert_refused_as_by_fano_polygon(vs, type(exc))
        else:
            assert canonical_form(vs) == _canonical_oracle(hull)
            assert canonical_form(vs[::-1]) == _canonical_oracle(hull)

    @pytest.mark.parametrize("vertices", [
        [(0, 0), (0, 0), (0, 0)],
        [(1, 0), (2, 0), (-1, 0)],
        [(0, 0), (2, 4), (-1, -2)],
        [],
    ])
    def test_degenerate_rejected(self, vertices):
        # the primitivity check comes first, and only [] has no vertex
        error = NonPrimitiveVertex if vertices else OriginNotInterior
        _assert_refused_as_by_fano_polygon(vertices, error)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_invariant_under_big_unimodular_maps(self, corpus_with_outputs, data):
        """An image under a product of shears with |k| <= 10^30, flipped
        or not, has the same canonical form. A flip reverses the
        orientation, so the form is then read walking back."""
        P = data.draw(st.sampled_from(corpus_with_outputs))
        U = data.draw(_unimodular_matrices())
        image = FanoPolygon([apply_matrix(U, v) for v in P])
        assert canonical_form(image) == canonical_form(P)
        assert unimodular_equivalent(P, image)
        assert unimodular_equivalent(list(image)[::-1], P)


@pytest.fixture(scope="module")
def corpus_with_outputs(corpus):
    """The first 60 corpus triangles and their one-step outputs, among
    them quadrilaterals."""
    polygons = list(corpus[:60])
    polygons += [Q for P in corpus[:60] for _, Q in enumerate_one_step(P)]
    assert any(len(Q) == 4 for Q in polygons)
    return polygons


@st.composite
def _unimodular_matrices(draw):
    """A product of one to four shears [[1, k], [0, 1]] and [[1, 0], [k, 1]]
    with |k| <= 10^30, times the flip [[0, 1], [1, 0]] (det -1) or not."""
    U = ((1, 0), (0, 1))
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(-10**30, 10**30))
        S = ((1, k), (0, 1)) if draw(st.booleans()) else ((1, 0), (k, 1))
        U = tuple(apply_matrix(S, col) for col in zip(*U))
        U = tuple(zip(*U))
    if draw(st.booleans()):
        U = (U[1], U[0])
    return U


def _assert_refused_as_by_fano_polygon(vertices, error):
    """canonical_form refuses a list that is not a Fano polygon with the
    class FanoPolygon raises, in both orders."""
    with pytest.raises(error):
        FanoPolygon(vertices)
    for vs in (vertices, vertices[::-1]):
        with pytest.raises(LatticeError) as info:
            canonical_form(vs)
        assert type(info.value) is error


def _assert_canonical_forms_match(polygons):
    for vs in polygons:
        assert canonical_form(vs) == _canonical_oracle(vs)
        assert canonical_form(vs[::-1]) == _canonical_oracle(vs[::-1])


def _left_hnf(cols):
    """Canonical representative of {U @ M : U in GL(2, Z)} for a rank-2
    integer matrix given by its columns, from an extended-gcd row
    operation on the first nonzero column."""
    j0 = next(j for j, c in enumerate(cols) if c != (0, 0))
    a, b = cols[j0]
    g, s, t = egcd(a, b)
    u, v = -b // g, a // g  # second row of the Bezout matrix
    cols = [(s * x + t * y, u * x + v * y) for x, y in cols]
    j1 = next(j for j, c in enumerate(cols) if c[1] != 0)
    if cols[j1][1] < 0:
        cols = [(x, -y) for x, y in cols]
    q = cols[j1][0] // cols[j1][1]
    return tuple((x - q * y, y) for x, y in cols)


def _canonical_oracle(vertices):
    """The least left HNF over every rotation of both vertex orders."""
    vs = [tuple(v) for v in vertices]
    return min(_left_hnf(seq[r:] + seq[:r])
               for seq in (vs, vs[::-1]) for r in range(len(vs)))


class TestInvariants:
    def test_degree_and_fano_preserved(self, corpus):
        total = 0
        for P in corpus[:200]:
            d = degree(P)
            for factor, Q in enumerate_one_step(P):
                total += 1
                assert FanoPolygon(list(Q)) == Q
                assert degree(Q) == d
                assert mutate_with(Q, factor.inverse()) == P.vertices
        assert total > 0

    def test_mult_preserved_on_triangles(self, corpus):
        for P in corpus[:200]:
            inv = weights_of(P)
            for _, Q in enumerate_one_step(P, triangles_only=True):
                assert weights_of(Q).mult == inv.mult

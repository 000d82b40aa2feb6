"""Combinatorial mutations of two-dimensional Fano polygons.

No basis change is built: a width w and a factor conv{0, l*f} with
w(f) = 0 act on the polygon itself. In two dimensions the result does not
depend on the choice of the segments {G_h} (Akhtar-Coates-Galkin-Kasprzyk,
"Minkowski polynomials and mutations", arXiv:1212.1785), and the mutation
is the piecewise-linear shear that fixes the boundary chain behind f and
moves the chain in front of f by v -> v + l*w(v)*f:

    mut(P) = conv(chain behind f  +  shear(chain in front of f)).

This costs O(k) in the number of vertices, whatever the height range. An
edge p -> q of lattice length L and cone index r = det(p, q) at the lowest
height h_min = -r/L admits the lengths l <= L // (r/L). The factor -f is a
translate of +f by a vector at height zero, so it gives a unimodularly
equivalent polygon; factor discovery returns f = (w1, -w0) only. The
widths are the integer edge normals, so this module works in integers
only. The map a mutation induces on the dual polygon is by definition the
dual of the mutated polygon: apply_dual_map is lattice.dual_polygon of
mutate_with's output, and the rational arithmetic stays in dual_polygon.
A polygon is checked once, as its hull, by lattice.fano_vertices; a mutation
of a Fano polygon is Fano (same reference), so no output is checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index

from .lattice import (
    LatticeError,
    Point,
    bezout,
    convex_hull,
    det,
    dual_polygon,
    edge_lattice_length,
    fano_vertices,
    format_ints,
    is_primitive,
    pairing,
    polygon_vertices,
)


class InvalidMutationData(LatticeError):
    pass


class InvalidFactor(LatticeError):
    pass


class DegeneratePolygon(LatticeError):
    """Vertices that do not span the plane, so no canonical form exists."""


@dataclass(frozen=True)
class Factor:
    """The data of one mutation: width vector w and the lattice segment
    conv{0, length*f} at height zero (w(f) = 0, f primitive)."""

    w: Point
    f: Point
    length: int

    def __post_init__(self):
        if not is_primitive(self.w):
            raise InvalidFactor(f"width {format_ints(self.w)} must be primitive")
        if not is_primitive(self.f):
            raise InvalidFactor(f"direction {format_ints(self.f)} must be primitive")
        if pairing(self.w, self.f) != 0:
            raise InvalidFactor("factor direction must lie at height zero")
        if index(self.length) < 1:
            raise InvalidFactor("factor length must be >= 1")

    def inverse(self) -> "Factor":
        return Factor(w=(-self.w[0], -self.w[1]), f=self.f, length=self.length)


def admissible_widths(P):
    """The primitive inner edge normals of P, sorted: exactly the widths
    admitting a nontrivial factor in 2D."""
    vs = fano_vertices(P)
    widths = []
    for p, q in zip(vs, vs[1:] + vs[:1]):
        a, b = p[1] - q[1], q[0] - p[0]
        g = gcd(a, b)
        widths.append((a // g, b // g))
    return sorted(widths)


def _max_length(vs, w) -> int:
    """The largest feasible factor length for the width w: the lattice
    length of the edge at the lowest height h_min < 0, floor-divided by
    -h_min; 0 when a single vertex sits there or h_min >= 0."""
    hs = [pairing(w, v) for v in vs]
    h_min = min(hs)
    bottom = [v for v, h in zip(vs, hs) if h == h_min]
    if h_min >= 0 or len(bottom) == 1:
        return 0
    return edge_lattice_length(*bottom) // -h_min


def find_factors(P, w) -> list[Factor]:
    """All factors of P with respect to w, one per feasible length, in the
    direction f = (w1, -w0). Empty when none."""
    if not is_primitive(w):
        raise ValueError(f"width vector {format_ints(w)} must be primitive")
    f = (w[1], -w[0])
    l_max = _max_length(fano_vertices(P), w)
    return [Factor(w=w, f=f, length=length) for length in range(1, l_max + 1)]


def mutate_with(P, factor: Factor):
    """Combinatorial mutation of P by the factor; raises InvalidMutationData
    when its length is infeasible."""
    w, f, length = factor.w, factor.f, factor.length
    vs = fano_vertices(P)
    l_max = _max_length(vs, w)
    if length > l_max:
        raise InvalidMutationData(f"factor length {format_ints(length)}"
                                  f" exceeds the maximum {format_ints(l_max)}")
    hs = [pairing(w, v) for v in vs]
    climbing_in_front = det(f, w) > 0
    dx, dy = length * f[0], length * f[1]
    k = len(vs)
    points = []
    # Walking counterclockwise, the chain in front of f climbs in w when
    # det(f, w) > 0; the lowest and highest vertices lie on both chains.
    for i, ((x, y), h) in enumerate(zip(vs, hs)):
        prev_h, next_h = hs[i - 1], hs[(i + 1) % k]
        climbing = next_h > h or prev_h < h
        descending = next_h < h or prev_h > h
        front, behind = ((climbing, descending) if climbing_in_front
                         else (descending, climbing))
        if behind:
            points.append((x, y))
        if front:
            points.append((x + h * dx, y + h * dy))
    return convex_hull(points)


def apply_dual_map(P, factor: Factor):
    """Image of the dual polygon under the piecewise linear map induced by
    the factor, which is by definition the dual of the mutated polygon;
    raises InvalidMutationData when the factor length is infeasible."""
    return dual_polygon(mutate_with(P, factor))


# --- unimodular equivalence -------------------------------------------------

def canonical_form(vertices):
    """Canonical form of a polygon up to unimodular equivalence: the least
    left Hermite normal form of the vertex columns over all cyclic
    rotations and both orientations. From v0 = g*(a, b), with s*a + t*b = 1,
    column (x, y) goes to (c, d) = (s*x + t*y, a*y - b*x); d is negated if
    its first nonzero value is negative, and c reduced by q = c // d there.
    Any Bezout pair gives the same form, so one per vertex serves both
    orientations.

    Each candidate is screened before it is built. Its first column is
    (g, 0), or (0, 0) when zero vertices rotate to the front, and its
    second is the next column, reduced to (c mod |d|, |d|) when d != 0 and
    left as (c, 0) when d = 0. Only the candidates whose two-column key is
    least are built in full: a larger prefix is never the least tuple."""
    vs = polygon_vertices(vertices)
    k = len(vs)
    zeros = (0, 0) in vs
    least, winners = None, []
    for i, (x0, y0) in enumerate(vs):
        if (x0, y0) == (0, 0):
            continue
        g, s, t = bezout(x0, y0)
        a, b = x0 // g, y0 // g
        for step in (1, -1):
            # rotations from the zero vertices just before v0 share its
            # columns, and the one with the most leading zeros is least
            start = i
            while zeros and vs[(start - step) % k] == (0, 0):
                start -= step
            x, y = vs[(start + step) % k]
            c, d = s * x + t * y, abs(a * y - b * x)
            # the candidate's first two columns, flattened
            key = (g if start == i else 0, 0, c % d if d else c, d)
            if least is None or key < least:
                least, winners = key, [(start % k, step, s, t, a, b)]
            elif key == least:
                winners.append((start % k, step, s, t, a, b))
    best = None
    for start, step, s, t, a, b in winners:
        seq = (vs[start:] + vs[:start] if step == 1
               else vs[start::-1] + vs[:start:-1])
        # the first column off the line of v0 fixes the sign of d and q,
        # which fold into the row operation (s, t), (a, b)
        for x, y in seq:
            d1 = a * y - b * x
            if d1:
                break
        else:
            break  # every vertex is a multiple of (a, b)
        if d1 < 0:
            a, b, d1 = -a, -b, -d1
        q = (s * x + t * y) // d1
        s, t = s + q * b, t - q * a
        cand = tuple([(s * x + t * y, a * y - b * x) for x, y in seq])
        if best is None or cand < best:
            best = cand
    if best is None:
        raise DegeneratePolygon(
            f"vertices {format_ints(vs)} do not span the plane")
    return best


def unimodular_equivalent(A, B) -> bool:
    """True iff the convex hulls of A and B are unimodularly equivalent."""
    return (canonical_form(convex_hull(polygon_vertices(A)))
            == canonical_form(convex_hull(polygon_vertices(B))))


def enumerate_one_step(P, triangles_only: bool = False):
    """All one-step mutations of P over admissible widths and factors,
    deduplicated up to unimodular equivalence of the outputs."""
    seen = {}
    for w in admissible_widths(P):
        for factor in find_factors(P, w):
            Q = mutate_with(P, factor)
            if triangles_only and len(Q) != 3:
                continue
            key = canonical_form(Q)
            if key not in seen:
                seen[key] = (factor, Q)
    return [seen[k] for k in sorted(seen)]

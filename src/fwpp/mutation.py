"""Combinatorial mutations of two-dimensional Fano polygons.

The engine works in the frame where the width vector w becomes (0, 1) and
the factor direction f becomes (d, 0) with d = +-1, so heights are plain
y-coordinates. In two dimensions the result does not depend on the choice
of the segments {G_h} (Akhtar-Coates-Galkin-Kasprzyk, "Minkowski
polynomials and mutations", arXiv:1212.1785), and the mutation by
conv{0, l*f} is the piecewise-linear map that fixes the boundary chain
behind f and shears the chain in front of f by (x, y) -> (x + d*l*y, y):

    mut(P) = conv(chain behind f  +  shear(chain in front of f)).

This costs O(k) in the number of vertices, whatever the height range. The
length l is feasible iff the edge at the lowest height h_min has lattice
length at least l*|h_min|. The factor -f is a translate of the factor +f by a vector
at height zero, so it gives a unimodularly equivalent polygon; factor
discovery therefore returns the +f direction only. Results are mapped back
through the inverse basis change. The widths are the integer edge normals;
only the dual map uses Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index

from .lattice import (
    LatticeError,
    Point,
    apply_matrix,
    convex_hull,
    det,
    dual_polygon,
    format_ints,
    is_primitive,
    pairing,
    polygon_vertices,
    validate_fano_polygon,
    width_transform,
    _egcd,
)


class InvalidMutationData(LatticeError):
    pass


class InvalidFactor(LatticeError):
    pass


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
    admitting a nontrivial factor in 2D. Signing (p1 - q1, q0 - p0) by
    det(p, q) makes clockwise input give the same set."""
    vs = polygon_vertices(P)
    widths = set()
    for p, q in zip(vs, vs[1:] + vs[:1]):
        a, b = p[1] - q[1], q[0] - p[0]
        g = gcd(a, b) if det(p, q) > 0 else -gcd(a, b)
        widths.add((a // g, b // g))
    return sorted(widths)


def _normalized(P, w):
    """Basis change U (w -> (0, 1)), its inverse, the vertices of P in the
    new frame, and the largest feasible factor length (0 when none)."""
    U, Uinv = width_transform(w)
    nvs = [apply_matrix(U, v) for v in polygon_vertices(P)]
    h_min = min(y for _, y in nvs)
    bottom = [x for x, y in nvs if y == h_min]
    l_max = (max(bottom) - min(bottom)) // -h_min if h_min < 0 else 0
    return U, Uinv, nvs, l_max


def find_factors(P, w) -> list[Factor]:
    """All factors of P with respect to w, one per feasible length, in the
    direction f that the frame of w maps to (1, 0). Empty when none."""
    _, Uinv, _, l_max = _normalized(P, w)
    f = apply_matrix(Uinv, (1, 0))
    return [Factor(w=w, f=f, length=length) for length in range(1, l_max + 1)]


def mutate_with(P, factor: Factor):
    """Combinatorial mutation of P by the factor; raises InvalidMutationData
    when its length is infeasible."""
    U, Uinv, nvs, l_max = _normalized(P, factor.w)
    if factor.length > l_max:
        raise InvalidMutationData(f"factor length {format_ints(factor.length)}"
                                  f" exceeds the maximum {format_ints(l_max)}")
    d = apply_matrix(U, factor.f)[0]
    slope = d * factor.length
    nvs = convex_hull(nvs)  # counterclockwise, whatever order P came in
    k = len(nvs)
    points = []
    # Walking counterclockwise, the right chain climbs and the left chain
    # descends; the lowest and highest vertices lie on both.
    for i, (x, y) in enumerate(nvs):
        prev_y, next_y = nvs[i - 1][1], nvs[(i + 1) % k][1]
        right = next_y > y or prev_y < y
        left = next_y < y or prev_y > y
        front, behind = (right, left) if d == 1 else (left, right)
        if behind:
            points.append((x, y))
        if front:
            points.append((x + slope * y, y))
    out = convex_hull(apply_matrix(Uinv, p) for p in points)
    validate_fano_polygon(out)
    return out


def apply_dual_map(P, factor: Factor):
    """Image of the dual polygon under the piecewise linear map induced by
    the factor; equals the dual of the mutated polygon."""
    l_max = _normalized(P, factor.w)[3]
    if factor.length > l_max:
        raise InvalidFactor(f"factor length {format_ints(factor.length)}"
                            f" exceeds the maximum {format_ints(l_max)}")
    dual = dual_polygon(P)
    f, w, length = factor.f, factor.w, factor.length
    pts = list(dual)
    k = len(dual)
    for i in range(k):
        u, v = dual[i], dual[(i + 1) % k]
        su, sv = pairing(u, f), pairing(v, f)
        if (su < 0 < sv) or (sv < 0 < su):
            t = Fraction(su, su - sv)
            pts.append((u[0] + t * (v[0] - u[0]), u[1] + t * (v[1] - u[1])))
    images = []
    for u in pts:
        uf = pairing(u, f)
        if uf >= 0:
            images.append((Fraction(u[0]), Fraction(u[1])))
        else:
            images.append((u[0] - length * uf * w[0], u[1] - length * uf * w[1]))
    return convex_hull(images)


# --- unimodular equivalence -------------------------------------------------

def _left_hnf(cols):
    """Canonical representative of {U @ M : U in GL(2, Z)} for a rank-2
    integer matrix given by its columns."""
    cols = [tuple(c) for c in cols]
    j0 = next(j for j, c in enumerate(cols) if c != (0, 0))
    a, b = cols[j0]
    g, s, t = _egcd(a, b)
    u, v = -b // g, a // g  # second row of the Bezout matrix
    cols = [(s * x + t * y, u * x + v * y) for x, y in cols]
    j1 = next((j for j, c in enumerate(cols) if c[1] != 0), None)
    if j1 is not None:
        if cols[j1][1] < 0:
            cols = [(x, -y) for x, y in cols]
        q = cols[j1][0] // cols[j1][1]
        if q:
            cols = [(x - q * y, y) for x, y in cols]
    return tuple(cols)


def canonical_form(vertices):
    """Canonical form of a polygon up to unimodular equivalence: the minimum
    left-HNF over all cyclic rotations and both orientations."""
    vs = list(polygon_vertices(vertices))
    k = len(vs)
    best = None
    for seq in (vs, vs[::-1]):
        for r in range(k):
            cand = _left_hnf(seq[r:] + seq[:r])
            if best is None or cand < best:
                best = cand
    return best


def unimodular_equivalent(A, B) -> bool:
    return canonical_form(A) == canonical_form(B)


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

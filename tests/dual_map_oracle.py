"""The piecewise-linear map that a mutation induces on the dual polygon,
computed on the dual itself.

fwpp has no function for this map: its image is by definition the dual of
the mutated polygon, lattice.dual_polygon of mutation.mutate_with's
output. This map stays as the reference that composition is checked
against: the dual vertices with u(f) >= 0 are fixed, those with u(f) < 0
move by u -> u - l*u(f)*w, and each dual edge crossing u(f) = 0 is split
there first, in exact Fractions. Its bound on the factor length is its
own: a scan of the vertex heights for the bottom edge, not fwpp's edge
table.
"""

from fractions import Fraction
from math import gcd

from fwpp.lattice import (convex_hull, dual_polygon, format_ints, pairing,
                          polygon_vertices)
from fwpp.mutation import InvalidFactor


def max_length(vs, w) -> int:
    """The largest feasible factor length for the width w: the lattice
    length of the edge at the lowest height h_min < 0, floor-divided by
    -h_min; 0 when a single vertex sits there or h_min >= 0."""
    hs = [pairing(w, v) for v in vs]
    h_min = min(hs)
    bottom = [v for v, h in zip(vs, hs) if h == h_min]
    if h_min >= 0 or len(bottom) == 1:
        return 0
    (ax, ay), (bx, by) = bottom
    return gcd(ax - bx, ay - by) // -h_min


def pl_dual_map(P, factor):
    """Image of the dual polygon of P under the piecewise linear map
    induced by the factor; raises InvalidFactor when its length is
    infeasible."""
    l_max = max_length(polygon_vertices(P), factor.w)
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

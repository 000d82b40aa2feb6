"""The piecewise-linear map that a mutation induces on the dual polygon,
computed on the dual itself, the way fwpp's apply_dual_map once did.

fwpp now takes the dual of the mutated polygon instead. This map stays as
the reference it is checked against: the dual vertices with u(f) >= 0 are
fixed, those with u(f) < 0 move by u -> u - l*u(f)*w, and each dual edge
crossing u(f) = 0 is split there first, in exact Fractions.
"""

from fractions import Fraction

from fwpp.lattice import convex_hull, dual_polygon, format_ints, pairing, polygon_vertices
from fwpp.mutation import InvalidFactor, _max_length


def pl_dual_map(P, factor):
    """Image of the dual polygon of P under the piecewise linear map
    induced by the factor; raises InvalidFactor when its length is
    infeasible."""
    l_max = _max_length(polygon_vertices(P), factor.w)
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

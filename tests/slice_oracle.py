"""Height slices of a polygon, the way the per-height mutation engine took
them: the exact rational x-interval cut out by the line y = h in the frame
of a width vector, rounded inwards to lattice points.

fwpp's closed-form mutation no longer needs slices. These functions stay
as the reference that the tests' per-height mutation and factor-length
oracles are built on, and are themselves checked against a brute-force
scan of lattice points in test_lattice.py.
"""

from fractions import Fraction
from math import ceil, floor

from fwpp.lattice import apply_matrix, polygon_vertices, width_transform


def lattice_slice_interval(norm_vertices, h):
    """Integer x-range [a, b] of the lattice points at height h of the
    convex polygon with the given (normalized) vertices, or None."""
    xs = []
    k = len(norm_vertices)
    for i in range(k):
        p, q = norm_vertices[i], norm_vertices[(i + 1) % k]
        if p[1] == h:
            xs.append(Fraction(p[0]))
        lo, hi = min(p[1], q[1]), max(p[1], q[1])
        if lo < h < hi:
            t = Fraction(h - p[1], q[1] - p[1])
            xs.append(p[0] + t * (q[0] - p[0]))
    if not xs:
        return None
    a, b = ceil(min(xs)), floor(max(xs))
    return (a, b) if a <= b else None


def height_slice(P, w, h):
    """Endpoints of the lattice points of P at height w = h, as a
    (point, point) pair (equal for a single point), or None when there are
    none."""
    U, Uinv = width_transform(w)
    iv = lattice_slice_interval([apply_matrix(U, v) for v in polygon_vertices(P)], h)
    if iv is None:
        return None
    return apply_matrix(Uinv, (iv[0], h)), apply_matrix(Uinv, (iv[1], h))

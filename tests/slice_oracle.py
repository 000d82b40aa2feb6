"""Height slices of a polygon, the way the per-height mutation engine took
them: the exact rational x-interval cut out by the line y = h in the frame
of a width vector, rounded inwards to lattice points.

fwpp's closed-form mutation needs neither slices nor a basis change. These
functions stay as the reference that the tests' per-height mutation and
factor-length oracles are built on, and are themselves checked against a
brute-force scan of lattice points in test_lattice.py. The frame is built
here on a plain extended-gcd loop, so the oracles share no arithmetic with
the engine.
"""

from fractions import Fraction
from math import ceil, floor

from fwpp.lattice import polygon_vertices


def egcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def width_transform(w):
    """Unimodular change of basis U (and its inverse) with second row w,
    so that heights w(v) become plain y-coordinates."""
    a, b = w
    g, s, t = egcd(a, b)
    if g != 1:
        raise ValueError(f"width vector {w} must be primitive")
    U = ((t, -s), (a, b))
    Uinv = ((b, s), (-a, t))
    return U, Uinv


def apply_matrix(U, p):
    return (U[0][0] * p[0] + U[0][1] * p[1], U[1][0] * p[0] + U[1][1] * p[1])


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

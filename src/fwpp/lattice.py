"""Exact lattice geometry for two-dimensional Fano polygons.

All arithmetic is over Python ints, with Fractions only in the dual polygon;
the degree is summed as an integer numerator over an integer denominator and
made a Fraction once, at the end. Floats are refused, never truncated.
Points are plain tuples. A polygon is a tuple of points counterclockwise from
its lex-min vertex, so equality is tuple equality; fano_vertices reads a bare
point sequence, in any order, as its convex hull, checked once.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from operator import index

Point = tuple[int, int]


class LatticeError(ValueError):
    """Base class for errors raised by the lattice-geometry layer."""


class NonPrimitiveVertex(LatticeError):
    pass


class OriginNotInterior(LatticeError):
    pass


class NonConvexPolygon(LatticeError):
    pass


class MalformedPolygon(LatticeError):
    """A polygon document that is not {"vertices": [[x, y], ...]} with
    integer or decimal-string coordinates."""


def det(u, v):
    """Determinant of the 2x2 matrix with columns u, v."""
    return u[0] * v[1] - u[1] * v[0]


def is_primitive(p) -> bool:
    """True iff p is a nonzero lattice point with coprime coordinates."""
    x, y = p
    return (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1


def bezout(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with s*x + t*y = g = gcd(x, y), for (x, y) != (0, 0).
    The inverse comes from pow, in C, whatever the size of x and y."""
    g = gcd(x, y)
    a, b = x // g, y // g
    if b == 0:
        return g, a, 0
    s = pow(a, -1, abs(b))
    return g, s, (1 - s * a) // b


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Convex hull (monotone chain), counterclockwise from the lex-min point.

    Works for integer and Fraction coordinates alike; collinear boundary
    points are dropped.
    """
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return tuple(pts)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def _check_origin_interior(vertices) -> None:
    """Raise unless there are at least three vertices and the origin lies
    strictly to the left of every edge, det(v_i, v_(i+1)) > 0."""
    k = len(vertices)
    if k < 3:
        raise OriginNotInterior(f"degenerate polygon {format_ints(vertices)}")
    for i in range(k):
        p, q = vertices[i], vertices[(i + 1) % k]
        if det(p, q) <= 0:
            raise OriginNotInterior(
                f"origin not strictly interior (edge {format_ints(p)} -> {format_ints(q)})"
            )


def _interior_hull(points):
    """The counterclockwise convex hull of the points, which must hold the
    origin strictly inside."""
    hull = convex_hull(points)
    _check_origin_interior(hull)
    return hull


def validate_fano_polygon(vertices) -> None:
    """Raise unless vertices form a CCW convex polygon with primitive
    vertices and the origin strictly interior.

    With the origin left of every edge, a strict left turn at every vertex
    and one turn around the origin make the polygon convex. The turns are
    counted as the edges that cross the positive x-axis upwards."""
    for v in vertices:
        if not is_primitive(v):
            raise NonPrimitiveVertex(f"vertex {format_ints(v)} is not primitive")
    _check_origin_interior(vertices)
    k = len(vertices)
    windings = 0
    for i in range(k):
        o, p, q = vertices[i - 1], vertices[i], vertices[(i + 1) % k]
        if _cross(o, p, q) <= 0:
            raise NonConvexPolygon(
                f"polygon is not strictly convex at vertex {format_ints(p)}")
        if p[1] < 0 <= q[1]:
            windings += 1
    if windings != 1:
        raise NonConvexPolygon(
            f"vertices {format_ints(tuple(vertices))} wind around the origin"
            f" {windings} times")


@dataclass(frozen=True)
class FanoTriangle:
    """A Fano triangle: primitive vertices, origin strictly interior,
    stored counterclockwise from the lexicographically smallest vertex."""

    vertices: tuple[Point, Point, Point]


def canonical_cycle(vertices):
    """Rotate a cyclic vertex list so the lex-min vertex comes first."""
    i = vertices.index(min(vertices))
    return tuple(vertices[i:]) + tuple(vertices[:i])


def make_fano_triangle(v0, v1, v2) -> FanoTriangle:
    return FanoTriangle(fano_vertices((v0, v1, v2)))


def polygon_vertices(P):
    """Vertex tuple of a FanoTriangle or a bare vertex sequence, whose
    coordinates are read with operator.index."""
    if isinstance(P, FanoTriangle):
        return P.vertices
    return tuple((index(x), index(y)) for x, y in P)


def fano_vertices(P):
    """The vertices of a Fano polygon: a FanoTriangle's as they are, and for
    a bare sequence of lattice points, in any order and with any points
    inside, their convex hull, checked by validate_fano_polygon."""
    if isinstance(P, FanoTriangle):
        return P.vertices
    vs = convex_hull(polygon_vertices(P))
    validate_fano_polygon(vs)
    return vs


def _rational(x):
    """x as an exact rational: a Fraction as it is, anything else read with
    operator.index, so a float raises TypeError."""
    return x if isinstance(x, Fraction) else index(x)


def dual_polygon(P):
    """Vertices of the dual polygon {u : u(v) >= -1 for all v in P}.

    One rational vertex per edge of the convex hull of P, which must hold
    the origin strictly inside; accepts integer or Fraction input, so
    applying it twice recovers the original vertex set.
    """
    if isinstance(P, FanoTriangle):
        vs = P.vertices
    else:
        vs = _interior_hull([(_rational(x), _rational(y)) for x, y in P])
    duals = []
    for p, q in zip(vs, vs[1:] + vs[:1]):
        d = Fraction(det(p, q))
        duals.append((Fraction(p[1] - q[1]) / d, Fraction(q[0] - p[0]) / d))
    # the hull's edges give distinct dual vertices, already counterclockwise
    return canonical_cycle(duals)


def pairing(w, v):
    """Evaluate the dual vector w on the point v."""
    return w[0] * v[0] + w[1] * v[1]


def degree(P) -> Fraction:
    """Anticanonical degree of the spanning-fan toric surface: twice the
    Euclidean area of the dual polygon, as an exact rational.

    The dual vertex of the hull edge p -> q is n / r, with the integer
    normal n = (p1 - q1, q0 - p0) and r = det(p, q) > 0, so the degree is
    the sum of det(n_i, n_(i+1)) / (r_i r_(i+1)) over consecutive edges. It
    is summed over the common denominator prod(r_i), in integers."""
    if isinstance(P, FanoTriangle):
        vs = P.vertices
    else:
        vs = _interior_hull(polygon_vertices(P))
    edges = list(zip(vs, vs[1:] + vs[:1]))
    ns = [(p[1] - q[1], q[0] - p[0]) for p, q in edges]
    rs = [det(p, q) for p, q in edges]
    den = prod(rs)
    num = sum(det(ns[i - 1], ns[i]) * (den // (rs[i - 1] * rs[i]))
              for i in range(len(vs)))
    return Fraction(num, den)


def edge_lattice_length(a, b) -> int:
    """Number of lattice points on the segment [a, b] minus one."""
    if tuple(a) == tuple(b):
        raise ValueError("the segment has zero length")
    return gcd(abs(a[0] - b[0]), abs(a[1] - b[1]))


# --- JSON wire format -------------------------------------------------------
#
# Triangles and polygons travel as {"vertices": [[x, y], ...]} with each
# coordinate a decimal string, so arbitrary-precision integers survive
# consumers that parse JSON numbers as 64-bit. Input may also use JSON
# integers; any other shape or value is rejected, never rounded.

def int_to_decimal(n: int) -> str:
    """The decimal string of n, at any size.

    The builtin conversion refuses integers longer than
    sys.get_int_max_str_digits(); those are split around a power of ten
    instead of raising that process-wide limit.
    """
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + int_to_decimal(-n)
        k = n.bit_length() * 30103 // 200000  # about half the digits
        hi, lo = divmod(n, 10**k)
        return int_to_decimal(hi) + int_to_decimal(lo).rjust(k, "0")


def decimal_to_int(text: str) -> int:
    """The integer a string matching -?[0-9]+ spells, at any length; the
    inverse of int_to_decimal."""
    digits = text.lstrip("-")
    limit = sys.get_int_max_str_digits()
    if not limit or len(digits) <= limit:
        return int(text)
    k = len(digits) // 2
    value = decimal_to_int(digits[:-k]) * 10**k + decimal_to_int(digits[-k:])
    return -value if text.startswith("-") else value


def format_ints(value) -> str:
    """str() of an int or Fraction, or repr() of a tuple or list of them,
    with int_to_decimal for every integer so that any size prints."""
    if isinstance(value, int):
        return int_to_decimal(value)
    if isinstance(value, Fraction):
        num = int_to_decimal(value.numerator)
        if value.denominator == 1:
            return num
        return f"{num}/{int_to_decimal(value.denominator)}"
    inner = ", ".join(format_ints(v) for v in value)
    return f"[{inner}]" if isinstance(value, list) else f"({inner})"


def polygon_to_obj(vertices) -> dict:
    return {"vertices": [[int_to_decimal(x), int_to_decimal(y)]
                         for x, y in polygon_vertices(vertices)]}


_DECIMAL = re.compile(r"-?[0-9]+")


def _coordinate(value) -> int:
    """A JSON integer (not a boolean) or a decimal-integer string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return decimal_to_int(value)
    raise MalformedPolygon(f"coordinate {value!r} is not an integer")


def polygon_from_obj(obj) -> tuple[Point, ...]:
    verts = obj.get("vertices") if isinstance(obj, dict) else None
    if not isinstance(verts, list):
        raise MalformedPolygon('expected an object with a "vertices" list')
    for v in verts:
        if not (isinstance(v, list) and len(v) == 2):
            raise MalformedPolygon(f"vertex {v!r} is not an [x, y] pair")
    return tuple((_coordinate(x), _coordinate(y)) for x, y in verts)


def triangle_to_json(P) -> str:
    return json.dumps(polygon_to_obj(P), sort_keys=True)


def triangle_from_json(text: str) -> FanoTriangle:
    vs = polygon_from_obj(json.loads(text))
    if len(vs) != 3:
        raise ValueError(f"expected 3 vertices, got {len(vs)}")
    return make_fano_triangle(*vs)

"""Exact lattice geometry for two-dimensional Fano polygons.

All arithmetic is over Python ints, with Fractions only in the dual polygon;
the degree is summed as an integer numerator over an integer denominator and
made a Fraction once, at the end. Floats are refused, never truncated.
Points are plain tuples. A polygon is a tuple of points counterclockwise from
its lex-min vertex, so equality is tuple equality. FanoPolygon(P) reads a
polygon: a bare point sequence, in any order, as its convex hull, checked
once, into a FanoPolygon (of any vertex count), and a FanoPolygon as it is.
edges, degree and dual_polygon read their polygon that way, and bezout
takes a primitive point.
"""

from __future__ import annotations

import json
import re
import sys
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


class MalformedPolygon(LatticeError):
    """A polygon document that is not {"vertices": [[x, y], ...]} with
    integer or decimal-string coordinates, or a point that is not a pair."""


def det(u, v):
    """Determinant of the 2x2 matrix with columns u, v."""
    return u[0] * v[1] - u[1] * v[0]


def is_primitive(p) -> bool:
    """True iff p is a nonzero lattice point with coprime coordinates."""
    x, y = p
    return gcd(x, y) == 1  # gcd(0, 0) == 0


def bezout(x: int, y: int) -> tuple[int, int]:
    """(s, t) with s*x + t*y = 1, for a primitive (x, y). The inverse
    comes from pow, in C, whatever the size of x and y."""
    if y == 0:
        return x, 0
    s = pow(x, -1, abs(y))
    return s, (1 - s * x) // y


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


def _check_fano_hull(vertices) -> None:
    """Raise unless vertices, as convex_hull returns them, form a Fano
    polygon: primitive vertices, at least three of them, and the origin
    strictly left of every edge, det(v_i, v_(i+1)) > 0. A hull turns
    strictly left at every vertex and winds once around each point
    strictly inside it, so nothing else can fail."""
    for v in vertices:
        if not is_primitive(v):
            raise NonPrimitiveVertex(f"vertex {format_ints(v)} is not primitive")
    if len(vertices) < 3:
        raise OriginNotInterior(f"degenerate polygon {format_ints(vertices)}")
    for p, q in zip(vertices, vertices[1:] + vertices[:1]):
        if det(p, q) <= 0:
            raise OriginNotInterior(
                f"origin not strictly interior (edge {format_ints(p)} -> {format_ints(q)})"
            )


class FanoPolygon(tuple):
    """A checked Fano polygon, of any vertex count: primitive vertices, the
    origin strictly interior, convex, counterclockwise from the lex-min
    vertex. It is a tuple of points, so it equals and hashes as one.
    FanoPolygon(points) is the one reader of a polygon: a FanoPolygon is
    returned as it is, and any other sequence of lattice points, in any
    order and with any points inside, as its convex hull, checked once."""

    __slots__ = ()

    def __new__(cls, points):
        if isinstance(points, FanoPolygon):
            return points
        vs = convex_hull(polygon_vertices(points))
        _check_fano_hull(vs)
        return super().__new__(cls, vs)

    @property
    def vertices(self) -> FanoPolygon:
        return self


def canonical_cycle(vertices):
    """Rotate a cyclic vertex list so the lex-min vertex comes first."""
    i = vertices.index(min(vertices))
    return tuple(vertices[i:]) + tuple(vertices[:i])


def make_fano_triangle(v0, v1, v2) -> FanoPolygon:
    return FanoPolygon((v0, v1, v2))


def _pair(p, name, error=MalformedPolygon):
    """The one reader of a point: two entries, each read by operator.index,
    else error quoting it, so a lone int is refused as a non-pair; an entry
    that is no integer, such as a float, raises TypeError."""
    try:
        x, y = p
    except (TypeError, ValueError):
        p = p if isinstance(p, int) else tuple(map(index, p))
        raise error(f"{name} {format_ints(p)} must be a pair") from None
    return index(x), index(y)


def polygon_vertices(P):
    """A vertex sequence in the order given and unchecked, each vertex read
    by _pair, its coordinates by operator.index."""
    return tuple(_pair(p, "vertex") for p in P)


def dual_polygon(P):
    """Vertices of the dual polygon {u : u(v) >= -1 for all v in P} of the
    Fano polygon P, read by FanoPolygon(P): the vertex w / h of each row
    (w, h, L) of edges(P), as Fractions, from the lex-min one."""
    return canonical_cycle([(Fraction(a, h), Fraction(b, h))
                            for (a, b), h, _ in edges(P)])


def pairing(w, v):
    """Evaluate the dual vector w on the point v."""
    return w[0] * v[0] + w[1] * v[1]


def edges(P):
    """(w, h, L) for each edge p -> q of the Fano polygon P, read by
    FanoPolygon(P), counterclockwise: the primitive inner normal w, the
    height h = det(p, q) / L > 0, so w(p) = w(q) = -h, and the lattice
    length L. The edge cone holds L // h primitive T-singularities."""
    vs = FanoPolygon(P)
    for p, q in zip(vs, vs[1:] + vs[:1]):
        a, b = p[1] - q[1], q[0] - p[0]
        L = gcd(a, b)
        yield (a // L, b // L), det(p, q) // L, L


def degree(P) -> Fraction:
    """Anticanonical degree of the toric surface of the Fano polygon P,
    read by FanoPolygon(P): twice the Euclidean area of the dual polygon,
    as an exact rational.

    The dual vertex of an edge is w / h, from its row (w, h, L) of edges,
    so the degree is the sum of det(w_(i-1), w_i) / (h_(i-1) h_i) over
    consecutive edges. It is summed over the common denominator prod(h_i),
    in integers."""
    ws, hs, _ = zip(*edges(P))
    den = prod(hs)
    num = sum(det(ws[i - 1], ws[i]) * (den // (hs[i - 1] * hs[i]))
              for i in range(len(ws)))
    return Fraction(num, den)


# --- JSON wire format -------------------------------------------------------
#
# Triangles and polygons travel as {"vertices": [[x, y], ...]} with each
# coordinate a decimal string, so arbitrary-precision integers survive
# consumers that parse JSON numbers as 64-bit. Input may also use JSON
# integers; any other shape or value is rejected, never rounded.

_DECIMAL = re.compile(r"-?[0-9]+")


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
    inverse of int_to_decimal and the one reader of integers written as
    text, so "+3", " 7", "1_0" or "0x10" raise ValueError."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"{text!r} is not a decimal integer")
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
    if isinstance(value, list):
        return f"[{inner}]"
    return f"({inner},)" if len(value) == 1 else f"({inner})"


def polygon_to_obj(vertices) -> dict:
    return {"vertices": [[int_to_decimal(x), int_to_decimal(y)]
                         for x, y in polygon_vertices(vertices)]}


_JSON_KINDS = {dict: "an object", bool: "a boolean", int: "an integer",
               type(None): "null"}


def _json_kind(value) -> str:
    """A parsed JSON value for an error message: a string or a float
    quoted, anything else named by its kind, a list with its length. No
    integer is converted, so none can exceed the digit limit of str(), and
    no nesting is walked."""
    if isinstance(value, (str, float)):
        return repr(value)
    if isinstance(value, list):
        return f"a list of length {len(value)}"
    return _JSON_KINDS.get(type(value), type(value).__name__)


def _coordinate(value, vertex: int) -> int:
    """A JSON integer (not a boolean) or a decimal-integer string, a
    coordinate of the vertex of that index."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        return decimal_to_int(value)
    except (TypeError, ValueError):
        raise MalformedPolygon(f"vertex {vertex} has a coordinate that is not"
                               f" an integer: {_json_kind(value)}") from None


def polygon_from_obj(obj) -> tuple[Point, ...]:
    verts = obj.get("vertices") if isinstance(obj, dict) else None
    if not isinstance(verts, list):
        raise MalformedPolygon('expected an object with a "vertices" list')
    for i, v in enumerate(verts):
        if not (isinstance(v, list) and len(v) == 2):
            raise MalformedPolygon(
                f"vertex {i} is not an [x, y] pair: {_json_kind(v)}")
    return tuple((_coordinate(x, i), _coordinate(y, i))
                 for i, (x, y) in enumerate(verts))


def triangle_to_json(P) -> str:
    return json.dumps(polygon_to_obj(P), sort_keys=True)


def triangle_from_json(text: str) -> FanoPolygon:
    try:
        obj = json.loads(text, parse_int=decimal_to_int)
    except RecursionError:
        raise MalformedPolygon("the document is nested too deeply") from None
    return FanoPolygon(polygon_from_obj(obj))

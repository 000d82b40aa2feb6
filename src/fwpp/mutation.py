"""Combinatorial mutations of two-dimensional Fano polygons.

No basis change is built: a width w and a factor conv{0, l*f} with
w(f) = 0 act on the polygon itself. In two dimensions the result does not
depend on the choice of the segments {G_h} (Akhtar-Coates-Galkin-Kasprzyk,
"Minkowski polynomials and mutations", arXiv:1212.1785), and the mutation
is the piecewise-linear shear that fixes the boundary chain behind f and
moves the chain in front of f by v -> v + l*w(v)*f:

    mut(P) = conv(chain behind f  +  shear(chain in front of f)).

This costs O(k) in the number of vertices, whatever the height range. The
inner normal w of an edge of lattice length L at height h (lattice.edges)
admits the lengths l <= L // h, and any other width none, so
enumerate_one_step reads all its factors off one edge table per call. The
factor -f is a translate of +f by a vector at height zero, so it gives a
unimodularly equivalent polygon; factor discovery returns f = (w1, -w0)
only. The widths are the integer edge normals, so this module works in
integers only. The map a mutation induces on the dual polygon is by
definition the dual of the mutated polygon, lattice.dual_polygon of
mutate_with's output. FanoPolygon(P) reads a polygon, a bare list once as
its checked hull; a mutation of a Fano polygon is Fano (same reference), so
mutate_with returns its output as a FanoPolygon, unchecked, and an output
fed back is not read again. Unimodular equivalence is asked only of Fano
polygons, so canonical_form and unimodular_equivalent read their input by
FanoPolygon(P) as well.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index

from .lattice import (
    FanoPolygon,
    LatticeError,
    _pair,
    bezout,
    convex_hull,
    det,
    edges,
    format_ints,
    is_primitive,
    pairing,
)


class InvalidMutationData(LatticeError):
    pass


class InvalidFactor(LatticeError):
    pass


class Factor(namedtuple("Factor", "w f length")):
    """The data of one mutation: width vector w and the lattice segment
    conv{0, length*f} at height zero (w(f) = 0, f primitive), kept as
    tuples of ints and an int whatever they are given as."""

    __slots__ = ()

    def __new__(cls, w, f, length):
        w, f = _primitive_pair(w, "width"), _primitive_pair(f, "direction")
        length = index(length)
        if pairing(w, f) != 0:
            raise InvalidFactor("factor direction must lie at height zero")
        if length < 1:
            raise InvalidFactor("factor length must be >= 1")
        return super().__new__(cls, w, f, length)

    @classmethod
    def _make(cls, iterable):
        """Build through __new__, so that _replace checks its fields too."""
        return cls(*iterable)

    def inverse(self) -> "Factor":
        return Factor(w=(-self.w[0], -self.w[1]), f=self.f, length=self.length)


def _primitive_pair(v, name) -> tuple[int, int]:
    """The one reader of a width or a direction: a point read by
    lattice._pair and primitive, else InvalidFactor."""
    v = _pair(v, name, error=InvalidFactor)
    if not is_primitive(v):
        raise InvalidFactor(f"{name} {format_ints(v)} must be primitive")
    return v


def admissible_widths(P):
    """The primitive inner edge normals of P, sorted, one per edge: every
    width that can admit a nontrivial factor in 2D. The normal of the row
    (w, h, L) of lattice.edges admits one only when h <= L; find_factors
    gives [] for the others."""
    return sorted(w for w, _, _ in edges(P))


def _max_length(P, w) -> int:
    """The largest feasible factor length for the width w, a pair of ints:
    L // h for the edge of lattice length L at height h whose inner normal
    is w, and 0 when w is the normal of no edge."""
    return next((L // h for u, h, L in edges(P) if u == w), 0)


def _factors(w, lengths) -> list[Factor]:
    """The factors of the given feasible lengths for the width w, a
    primitive pair of ints, in the direction f = (w1, -w0). Such an f is
    primitive at height zero, so Factor's checks could not fail: they are
    skipped."""
    f = (w[1], -w[0])
    return [tuple.__new__(Factor, (w, f, length)) for length in lengths]


def find_factors(P, w) -> list[Factor]:
    """All factors of P with respect to w, one per feasible length up to
    _max_length, in the direction f = (w1, -w0). Empty when none. The
    width is read as Factor reads it."""
    w = _primitive_pair(w, "width")
    return _factors(w, range(1, _max_length(P, w) + 1))


def mutate_with(P, factor: Factor) -> FanoPolygon:
    """Combinatorial mutation of P by the factor, a FanoPolygon; raises
    InvalidMutationData when its length is infeasible."""
    vs = FanoPolygon(P)
    l_max = _max_length(vs, factor.w)
    if factor.length > l_max:
        raise InvalidMutationData(f"factor length {format_ints(factor.length)}"
                                  f" exceeds the maximum {format_ints(l_max)}")
    return _mutate_core(vs, factor)


def _mutate_core(vs, factor: Factor) -> FanoPolygon:
    """mutate_with on a FanoPolygon vs, without the length check."""
    w, f, length = factor.w, factor.f, factor.length
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
    # a mutation of a Fano polygon is Fano, so its hull is not checked
    return tuple.__new__(FanoPolygon, convex_hull(points))


# --- unimodular equivalence -------------------------------------------------

def canonical_form(P):
    """Canonical form of a Fano polygon up to unimodular equivalence: the
    least left Hermite normal form of the vertex columns over all cyclic
    rotations and both orientations. P is read by FanoPolygon(P), so every
    vertex is primitive and neighbours span cones of index d > 0. From
    v0 = (a, b), with s*a + t*b = 1, column (x, y) goes to
    (c, d) = (s*x + t*y, a*y - b*x). The next vertex has d > 0 walking
    counterclockwise and d < 0 walking back, so (a, b) is negated on the
    way back, and c is reduced by q = c // d at the next vertex. Any Bezout
    pair gives the same form, so one per vertex serves both orientations.

    Each candidate is screened before it is built. Its first column is
    (1, 0), and its second is the next vertex reduced to (c mod d, d),
    with d the index of the edge cone. Only the candidates whose key is
    least are built in full: a larger prefix is never the least tuple."""
    vs = FanoPolygon(P)
    k = len(vs)
    least, winners = None, []
    for i, (a, b) in enumerate(vs):
        s, t = bezout(a, b)
        for step in (1, -1):
            x, y = vs[(i + step) % k]
            d = abs(a * y - b * x)
            key = ((s * x + t * y) % d, d)
            if least is None or key < least:
                least, winners = key, [(i, step, s, t)]
            elif key == least:
                winners.append((i, step, s, t))
    best = None
    for i, step, s, t in winners:
        a, b = vs[i]
        if step == 1:
            seq = vs[i:] + vs[:i]
        else:
            seq = vs[i::-1] + vs[:i:-1]
            a, b = -a, -b
        x, y = seq[1]
        q = (s * x + t * y) // (a * y - b * x)
        s, t = s + q * b, t - q * a
        cand = tuple([(s * x + t * y, a * y - b * x) for x, y in seq])
        if best is None or cand < best:
            best = cand
    return best


def unimodular_equivalent(A, B) -> bool:
    """True iff the Fano polygons A and B (their hulls, if bare lists) are
    unimodularly equivalent; raises if either is not a Fano polygon."""
    return canonical_form(A) == canonical_form(B)


def enumerate_one_step(P, triangles_only: bool = False):
    """All one-step mutations of P, deduplicated up to unimodular
    equivalence of the outputs, from one edge table: the row (w, h, L) of
    lattice.edges gives the feasible factors of lengths 1 to L // h, so
    they skip mutate_with's check.

    triangles_only keeps the outputs that are triangles, found by the
    paper's T-singularity criterion. The mutation of length l along the
    row keeps a bottom edge of length L - l*h and stretches the top by l
    times its height, so it has two vertices at each end unless l*h = L.
    Only a row with h | L can give a triangle, by its factor of length
    L // h; for a triangle P it always does, and the outputs of a larger
    polygon are still checked."""
    P = FanoPolygon(P)
    seen = {}
    for w, h, L in sorted(edges(P)):
        if not triangles_only:
            lengths = range(1, L // h + 1)
        elif L % h == 0:
            lengths = (L // h,)
        else:
            continue
        for factor in _factors(w, lengths):
            Q = _mutate_core(P, factor)
            if triangles_only and len(Q) != 3:
                continue
            key = canonical_form(Q)
            if key not in seen:
                seen[key] = (factor, Q)
    return [seen[k] for k in sorted(seen)]

"""Fake weighted projective plane invariants.

Weights, multiplicity, cyclic quotient singularities of the vertex cones,
the T-singularity criterion, and one-step mutation at the level of weight
triples.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from operator import index

from .lattice import (
    FanoPolygon,
    LatticeError,
    Point,
    _pair,
    bezout,
    det,
    format_ints,
    int_to_decimal,
    is_primitive,
    make_fano_triangle,
)


class DegenerateCone(LatticeError):
    pass


class NotDivisible(LatticeError):
    """The pivot weight does not divide the square of the other two's sum,
    so no weight-level mutation exists at this pivot."""


class QuotientSingularity(namedtuple("QuotientSingularity", "r a")):
    """A cyclic quotient surface singularity 1/r(1, a), stored with the
    smaller of the two parameters presenting the same unordered type."""

    __slots__ = ()

    @property
    def is_smooth(self) -> bool:
        return self.r == 1

    def __str__(self) -> str:
        if self.is_smooth:
            return "smooth"
        return f"1/{int_to_decimal(self.r)}(1,{int_to_decimal(self.a)})"


# The sorted weights, the multiplicity and the degree (a Fraction).
FwpsInvariants = namedtuple("FwpsInvariants", "weights mult degree")


def _triple(values, what="three weights") -> tuple[int, int, int]:
    """The one reader of a triple: three integers read with operator.index,
    in the order given. Other lengths raise."""
    t = tuple(index(x) for x in values)
    if len(t) != 3:
        raise ValueError(f"need {what}, got {format_ints(t)}")
    return t


def _coprime(l0: int, l1: int, l2: int) -> bool:
    """True iff the three integers are pairwise coprime."""
    return gcd(l0, l1) == gcd(l0, l2) == gcd(l1, l2) == 1


def is_well_formed(weights) -> bool:
    """True iff the weights are positive and pairwise coprime."""
    l0, l1, l2 = _triple(weights)
    return min(l0, l1, l2) >= 1 and _coprime(l0, l1, l2)


def _not_well_formed(w) -> ValueError:
    """The one refusal of a weight triple, quoting it as read."""
    return ValueError(f"weights {format_ints(w)} are not well-formed")


def _positive_triple(weights) -> tuple[int, int, int]:
    """The one reader of a weight triple: three positive integers, read
    once, in the order given; anything else is refused by _not_well_formed.
    Coprimality is checked after it: on the input by _well_formed_weights,
    and on the minimal root by the descents, whose input is well-formed
    exactly when its root is (see diophantine.descend_to_minimal). A
    descent divides by its largest weight, so positivity comes first."""
    w = _triple(weights)
    if min(w) < 1:
        raise _not_well_formed(w)
    return w


def _well_formed_weights(weights) -> tuple[int, int, int]:
    """_positive_triple, with the weights pairwise coprime, for the weight
    functions that take no descent. The weights of every fake weighted
    projective plane are such a triple (see vertex_weights)."""
    w = _positive_triple(weights)
    if not _coprime(*w):
        raise _not_well_formed(w)
    return w


def vertex_weights(P) -> tuple[tuple[int, int, int], int]:
    """Per-vertex weights, in the hull's vertex order, and the multiplicity
    of the Fano triangle P, read by FanoPolygon(P).

    lambda_i is the opposite edge determinant divided by the gcd g of the
    three determinants; g is the index of the vertex-generated sublattice.
    The weights are well-formed: positive, since the hull turns
    counterclockwise round the origin, and pairwise coprime, since a prime
    dividing two of them divides the third times its primitive vertex in
    lambda_0 v0 + lambda_1 v1 + lambda_2 v2 = 0, so the third too.
    """
    vs = FanoPolygon(P)
    if len(vs) != 3:
        raise ValueError(f"expected 3 vertices, got {len(vs)}")
    v0, v1, v2 = vs
    d0, d1, d2 = det(v1, v2), det(v2, v0), det(v0, v1)
    g = gcd(gcd(d0, d1), d2)
    return (d0 // g, d1 // g, d2 // g), g


def weights_of(P) -> FwpsInvariants:
    """Weights, multiplicity, and degree of the fake weighted projective
    plane defined by the triangle."""
    lams, mult = vertex_weights(P)
    w = tuple(sorted(lams))
    deg = Fraction(sum(w) ** 2, w[0] * w[1] * w[2] * mult)
    return FwpsInvariants(weights=w, mult=mult, degree=deg)


def _normal_form(r: int, c: int) -> QuotientSingularity:
    """1/r(1, c) for a unit c mod r, with a = the lesser of c and 1/c mod r;
    r = 1 needs no case, since pow(0, -1, 1) == 0 makes a = 0 (smooth)."""
    c %= r
    return QuotientSingularity(r=r, a=min(c, pow(c, -1, r)))


def quotient_singularity(r: int, a: int, b: int) -> QuotientSingularity:
    """The type 1/r(a, b) = 1/r(1, b/a), normalized. Requires an isolated
    singularity: gcd(r, a) = gcd(r, b) = 1 (vacuous for r = 1)."""
    r, a, b = index(r), index(a), index(b)
    if r < 1:
        raise ValueError("index r must be positive")
    if gcd(a, r) != 1 or gcd(b, r) != 1:
        raise ValueError(
            f"1/{int_to_decimal(r)}({int_to_decimal(a)},{int_to_decimal(b)})"
            " is not isolated")
    return _normal_form(r, b * pow(a, -1, r))


def cone_singularity(u, v) -> QuotientSingularity:
    """Singularity type of the two-dimensional cone spanned by the primitive
    lattice points u and v, from one Bezout pair of u and one inverse. A
    generator that is not a pair raises lattice.MalformedPolygon."""
    u, v = _pair(u, "cone generator"), _pair(v, "cone generator")
    if not (is_primitive(u) and is_primitive(v)):
        raise ValueError("cone generators must be primitive")
    r = abs(det(u, v))
    if r == 0:
        raise DegenerateCone(f"generators {format_ints(u)}, {format_ints(v)} are parallel")
    # Rows (s, t), (-u1, u0) send u to (1, 0) and v to (p, +-r): 1/r(-p, 1).
    s, t = bezout(*u)
    return _normal_form(r, -(s * v[0] + t * v[1]))


def is_T_singularity(s: QuotientSingularity) -> bool:
    """T-singularity criterion: r divides (a + b)^2; smooth cones qualify."""
    return (1 + s.a) ** 2 % s.r == 0


_OTHERS = ((1, 2), (0, 2), (0, 1))


def _step(w, pivot):
    """mutate_weights without the checks, on a sorted triple of positive
    ints, pairwise coprime or not: the sorted target, or None when
    w[pivot] does not divide."""
    i, j = _OTHERS[pivot]
    li, lj = w[i], w[j]
    q, r = divmod((li + lj) ** 2, w[pivot])
    if r:
        return None
    if q <= li:
        return (q, li, lj)
    return (li, q, lj) if q <= lj else (li, lj, q)


def _pivot(pivot) -> int:
    """The one reader of a pivot: 0, 1 or 2, read with operator.index."""
    if (p := index(pivot)) not in (0, 1, 2):
        raise ValueError(f"pivot must be 0, 1 or 2, got {format_ints(p)}")
    return p


def mutate_weights(weights, pivot: int) -> tuple[int, int, int]:
    """One-step mutation of well-formed weights at the given pivot of the
    sorted triple: (li, lj, (li+lj)^2 / lp), sorted."""
    w = tuple(sorted(_well_formed_weights(weights)))
    pivot = _pivot(pivot)
    target = _step(w, pivot)
    if target is None:
        li, lj = (int_to_decimal(w[i]) for i in _OTHERS[pivot])
        raise NotDivisible(
            f"{int_to_decimal(w[pivot])} does not divide ({li}+{lj})^2")
    return target


def one_step_targets(X) -> list[tuple[int, tuple[int, int, int]]]:
    """(pivot, mutated weights) for each pivot where lp | (li + lj)^2.

    That divisibility is the T-singularity criterion for the pivot's cone
    type 1/lp(li, lj) = 1/lp(1, lj/li): it is T iff lp | (1 + lj/li)^2,
    iff lp | (li + lj)^2, since li is a unit mod lp. For mult = 1 this
    decides geometric existence; for mult > 1 it is only a necessary
    condition and a geometric witness is required.
    """
    weights = tuple(sorted(_well_formed_weights(
        X.weights if isinstance(X, FwpsInvariants) else X)))
    return [(pivot, target) for pivot in range(3)
            if (target := _step(weights, pivot)) is not None]


def wps_triangle(l0: int, l1: int, l2: int) -> FanoPolygon:
    """A Fano triangle whose spanning fan defines P(l0, l1, l2); requires
    well-formed weights."""
    l0, l1, l2 = _well_formed_weights((l0, l1, l2))
    v1: Point = (1, 0)
    c = (-l1 * pow(l2, -1, l0)) % l0
    v2: Point = (c, l0)
    v0: Point = (-(l1 + l2 * c) // l0, -l2)
    return make_fano_triangle(v0, v1, v2)

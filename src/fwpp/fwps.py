"""Fake weighted projective plane invariants.

Weights, multiplicity, cyclic quotient singularities of the vertex cones,
the T-singularity criterion, and one-step mutation at the level of weight
triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index

from .lattice import (
    FanoTriangle,
    LatticeError,
    Point,
    bezout,
    det,
    format_ints,
    int_to_decimal,
    is_primitive,
    make_fano_triangle,
    polygon_vertices,
)


class DegenerateCone(LatticeError):
    pass


class NotDivisible(LatticeError):
    """The pivot weight does not divide the square of the other two's sum,
    so no weight-level mutation exists at this pivot."""


@dataclass(frozen=True)
class QuotientSingularity:
    """A cyclic quotient surface singularity 1/r(1, a), stored with the
    smaller of the two parameters presenting the same unordered type."""

    r: int
    a: int

    @property
    def is_smooth(self) -> bool:
        return self.r == 1

    def __str__(self) -> str:
        if self.is_smooth:
            return "smooth"
        return f"1/{int_to_decimal(self.r)}(1,{int_to_decimal(self.a)})"


@dataclass(frozen=True)
class FwpsInvariants:
    weights: tuple[int, int, int]
    mult: int
    degree: Fraction


def canon_weights(weights) -> tuple[int, int, int]:
    w = tuple(index(x) for x in weights)
    if len(w) != 3 or min(w) < 1:
        raise ValueError(f"need three positive weights, got {format_ints(w)}")
    return tuple(sorted(w))


def _triple(values, what="three weights") -> tuple[int, int, int]:
    """Three integers read with operator.index; other lengths raise."""
    t = tuple(index(x) for x in values)
    if len(t) != 3:
        raise ValueError(f"need {what}, got {format_ints(t)}")
    return t


def is_well_formed(weights) -> bool:
    """True iff the weights are pairwise coprime."""
    l0, l1, l2 = _triple(weights)
    return gcd(l0, l1) == gcd(l0, l2) == gcd(l1, l2) == 1


def vertex_weights(P) -> tuple[tuple[int, int, int], int]:
    """Per-vertex weights (in vertex order) and the multiplicity.

    lambda_i is the opposite edge determinant divided by the gcd g of the
    three determinants; g is the index of the vertex-generated sublattice.
    """
    v0, v1, v2 = polygon_vertices(P)
    d0, d1, d2 = det(v1, v2), det(v2, v0), det(v0, v1)
    g = gcd(gcd(d0, d1), d2)
    return (d0 // g, d1 // g, d2 // g), g


def weights_of(P) -> FwpsInvariants:
    """Weights, multiplicity, and degree of the fake weighted projective
    plane defined by the triangle."""
    lams, mult = vertex_weights(P)
    w = canon_weights(lams)
    deg = Fraction(sum(w) ** 2, w[0] * w[1] * w[2] * mult)
    return FwpsInvariants(weights=w, mult=mult, degree=deg)


def _normalize_parameter(r: int, c: int) -> int:
    if r == 1:
        return 0
    c %= r
    return min(c, pow(c, -1, r))


def quotient_singularity(r: int, a: int, b: int) -> QuotientSingularity:
    """The type 1/r(a, b), normalized. Requires an isolated singularity:
    gcd(r, a) = gcd(r, b) = 1 (vacuous for r = 1)."""
    if r < 1:
        raise ValueError("index r must be positive")
    if r > 1 and (gcd(a % r, r) != 1 or gcd(b % r, r) != 1):
        raise ValueError(
            f"1/{int_to_decimal(r)}({int_to_decimal(a)},{int_to_decimal(b)})"
            " is not isolated")
    if r == 1:
        return QuotientSingularity(r=1, a=0)
    c = (b * pow(a, -1, r)) % r
    return QuotientSingularity(r=r, a=_normalize_parameter(r, c))


def cone_singularity(u, v) -> QuotientSingularity:
    """Singularity type of the two-dimensional cone spanned by the primitive
    lattice points u and v."""
    u, v = tuple(u), tuple(v)
    if not (is_primitive(u) and is_primitive(v)):
        raise ValueError("cone generators must be primitive")
    r = abs(det(u, v))
    if r == 0:
        raise DegenerateCone(f"generators {format_ints(u)}, {format_ints(v)} are parallel")
    # Send u to (1,0); then v = (p, r) and the type is 1/r(-p, 1).
    _, s, t = bezout(*u)
    p = s * v[0] + t * v[1]
    return quotient_singularity(r, (-p) % r if r > 1 else 1, 1)


def is_T_singularity(s: QuotientSingularity) -> bool:
    """T-singularity criterion: r divides (a + b)^2; smooth cones qualify."""
    return (1 + s.a) ** 2 % s.r == 0


_OTHERS = ((1, 2), (0, 2), (0, 1))


def _step(w, pivot):
    """mutate_weights without the checks, on a sorted, well-formed triple
    of ints: the sorted target, or None when w[pivot] does not divide."""
    i, j = _OTHERS[pivot]
    li, lj = w[i], w[j]
    q, r = divmod((li + lj) ** 2, w[pivot])
    if r:
        return None
    if q <= li:
        return (q, li, lj)
    return (li, q, lj) if q <= lj else (li, lj, q)


def _well_formed_weights(weights) -> tuple[int, int, int]:
    w = canon_weights(weights)
    if not is_well_formed(w):
        raise ValueError(f"weights {format_ints(w)} are not well-formed")
    return w


def mutate_weights(weights, pivot: int) -> tuple[int, int, int]:
    """One-step mutation of well-formed weights at the given pivot of the
    sorted triple: (li, lj, (li+lj)^2 / lp), sorted."""
    w = _well_formed_weights(weights)
    if pivot not in (0, 1, 2):
        raise ValueError(f"pivot must be 0, 1 or 2, got {pivot!r}")
    target = _step(w, pivot)
    if target is None:
        li, lj = (int_to_decimal(w[i]) for i in _OTHERS[pivot])
        raise NotDivisible(
            f"{int_to_decimal(w[pivot])} does not divide ({li}+{lj})^2")
    return target


def one_step_targets(X) -> list[tuple[int, tuple[int, int, int], bool]]:
    """For each pivot where the divisibility condition holds, the mutated
    weight triple and whether the pivot's cone type 1/lp(li, lj) is a
    T-singularity.

    For mult = 1 this decides geometric existence; for mult > 1 it is only
    a necessary condition and a geometric witness is required.
    """
    weights = _well_formed_weights(
        X.weights if isinstance(X, FwpsInvariants) else X)
    out = []
    for pivot in range(3):
        target = _step(weights, pivot)
        if target is None:
            continue
        li, lj = (weights[i] for i in _OTHERS[pivot])
        t_sing = is_T_singularity(quotient_singularity(weights[pivot], li, lj))
        out.append((pivot, target, t_sing))
    return out


def wps_triangle(l0: int, l1: int, l2: int) -> FanoTriangle:
    """A Fano triangle whose spanning fan defines P(l0, l1, l2); requires
    well-formed weights."""
    w = (index(l0), index(l1), index(l2))
    if min(w) < 1 or not is_well_formed(w):
        raise ValueError(f"weights {format_ints(w)} must be positive and well-formed")
    l0, l1, l2 = w
    v1: Point = (1, 0)
    c = (-l1 * pow(l2, -1, l0)) % l0 if l0 > 1 else 0
    v2: Point = (c, l0)
    v0: Point = (-(l1 + l2 * c) // l0, -l2)
    return make_fano_triangle(v0, v1, v2)

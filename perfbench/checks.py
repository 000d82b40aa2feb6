"""Output checks that do not rely on fwpp itself.

Each helper recomputes an invariant from first principles (integer and
Fraction arithmetic only) so that a wrong answer from the library cannot
also hide in the check. `digest` fixes the byte form in which op outputs
are compared against the recorded SHA-256 digests.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd, isqrt


class WrongOutput(Exception):
    """An op returned, but its output breaks an invariant or a digest."""


def require(cond, message: str, *args) -> None:
    """Raise WrongOutput(message.format(*args)) unless cond; the message is
    formatted only on failure, since the values may be huge integers."""
    if not cond:
        raise WrongOutput(message.format(*args))


def digest(obj) -> str:
    """SHA-256 of bytes, of a str as UTF-8, or of the canonical JSON form
    of any other JSON-ready object."""
    if isinstance(obj, str):
        obj = obj.encode()
    elif not isinstance(obj, bytes):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(obj).hexdigest()


def det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def vertices(P):
    return [(int(v[0]), int(v[1])) for v in getattr(P, "vertices", P)]


def is_fano(P) -> bool:
    """Primitive vertices, counterclockwise, origin strictly interior."""
    vs = vertices(P)
    k = len(vs)
    if k < 3:
        return False
    if any(v == (0, 0) or gcd(abs(v[0]), abs(v[1])) != 1 for v in vs):
        return False
    return all(det(vs[i], vs[(i + 1) % k]) > 0 for i in range(k))


def degree(P) -> Fraction:
    """Twice the area of the dual polygon, one dual vertex per edge."""
    vs = vertices(P)
    k = len(vs)
    duals = []
    for i in range(k):
        p, q = vs[i], vs[(i + 1) % k]
        d = det(p, q)
        duals.append((Fraction(p[1] - q[1], d), Fraction(q[0] - p[0], d)))
    return sum((det(duals[i], duals[(i + 1) % k]) for i in range(k)), Fraction(0))


def weights_mult(P):
    """Sorted weights and multiplicity of a Fano triangle."""
    v0, v1, v2 = vertices(P)
    d = (det(v1, v2), det(v2, v0), det(v0, v1))
    g = gcd(gcd(d[0], d[1]), d[2])
    return tuple(sorted(x // g for x in d)), g


def weight_degree(weights, mult=1) -> Fraction:
    w0, w1, w2 = weights
    return Fraction((w0 + w1 + w2) ** 2, w0 * w1 * w2 * mult)


def mutate_weights(weights, pivot):
    """Weight mutation at a pivot of the sorted triple, or None when the
    pivot does not divide the square of the other two's sum."""
    w = sorted(weights)
    lp = w[pivot]
    li, lj = (w[i] for i in range(3) if i != pivot)
    sq = (li + lj) ** 2
    if sq % lp:
        return None
    return tuple(sorted((li, lj, sq // lp)))


def markov_root(weights):
    """(a, b, c) with weights (a^2, b^2, c^2) and a^2 + b^2 + c^2 = 3abc,
    or None."""
    roots = []
    for w in weights:
        r = isqrt(w)
        if r * r != w:
            return None
        roots.append(r)
    a, b, c = roots
    return (a, b, c) if a * a + b * b + c * c == 3 * a * b * c else None


def solves(eq, solution) -> bool:
    """m x0 x1 x2 == k (c0 x0^2 + c1 x1^2 + c2 x2^2)."""
    x0, x1, x2 = (int(x) for x in solution)
    c0, c1, c2 = (int(c) for c in eq.c)
    return int(eq.m) * x0 * x1 * x2 == int(eq.k) * (c0 * x0 * x0 + c1 * x1 * x1 + c2 * x2 * x2)


def solves_357(a0, a1, a2) -> bool:
    return 12 * a0 * a1 * a2 == 3 * a0 * a0 + 5 * a1 * a1 + 7 * a2 * a2

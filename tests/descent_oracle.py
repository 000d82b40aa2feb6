"""The descent to the minimal weights the long way, the way fwpp once took
it: is_well_formed on the input, then one fwps._step per level, and the
well-formed triples up to a height, by brute force.

fwpp now checks positivity on the input and coprimality on the minimal root
only. This loop stays as the reference its descents are checked against.
"""

from math import gcd

from fwpp.fwps import _step, is_well_formed
from fwpp.lattice import format_ints


def step_descent(weights):
    """The path from the sorted weights down to their minimal root; weights
    that are not well-formed raise ValueError, quoting them as given."""
    w = tuple(weights)
    if not is_well_formed(w):
        raise ValueError(f"weights {format_ints(w)} are not well-formed")
    w = tuple(sorted(w))
    path = [w]
    while w[0] + w[1] < w[2]:
        w = _step(w, 2)
        if w is None:
            break
        path.append(w)
    return path


def well_formed_up_to(max_height):
    """Every sorted, pairwise coprime triple of height at most max_height."""
    return [(a, b, c) for a in range(1, max_height // 3 + 1)
            for b in range(a, (max_height - a) // 2 + 1) if gcd(a, b) == 1
            for c in range(b, max_height - a - b + 1)
            if gcd(a, c) == gcd(b, c) == 1]

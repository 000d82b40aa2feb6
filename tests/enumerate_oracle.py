"""One-step mutations the long way, the way fwpp's enumerate_one_step once
walked them: every admissible width, every factor find_factors gives for
it, each built and checked by mutate_with and keyed by canonical_form.

enumerate_one_step now reads all its factors off one edge table, and with
triangles_only builds only the factors the T-singularity criterion names.
This loop stays as the reference it is checked against.
"""

from fwpp.lattice import FanoPolygon
from fwpp.mutation import (admissible_widths, canonical_form, find_factors,
                           mutate_with)


def enumerate_oracle(P, triangles_only=False):
    """(factor, polygon) for each class of one-step mutations of P up to
    unimodular equivalence, the first factor of each class kept, in
    canonical-form order; with triangles_only, the triangles only."""
    P = FanoPolygon(P)
    seen = {}
    for w in admissible_widths(P):
        for factor in find_factors(P, w):
            Q = mutate_with(P, factor)
            if triangles_only and len(Q) != 3:
                continue
            key = canonical_form(Q)
            if key not in seen:
                seen[key] = (factor, Q)
    return [seen[k] for k in sorted(seen)]

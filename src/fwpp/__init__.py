"""Exact-arithmetic mutations of Fano triangles and fake weighted
projective planes: weight transformations, T-singularities, Markov-type
Diophantine equations, mutation trees, and the 3/5/7 Pell families.

Each public name is imported from its one module, as in `from fwpp.mutation
import canonical_form`, or reached as `fwpp.mutation.canonical_form`."""

from . import diophantine, fwps, lattice, mutation, pell357

__all__ = ["diophantine", "fwps", "lattice", "mutation", "pell357"]
__version__ = "0.1.0"

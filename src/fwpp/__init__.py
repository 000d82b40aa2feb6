"""Exact-arithmetic mutations of Fano triangles and fake weighted
projective planes: weight transformations, T-singularities, Markov-type
Diophantine equations, mutation trees, and the 3/5/7 Pell families."""

from .lattice import (
    FanoPolygon,
    LatticeError,
    NonConvexPolygon,
    NonPrimitiveVertex,
    OriginNotInterior,
    degree,
    dual_polygon,
    is_primitive,
    make_fano_triangle,
    triangle_from_json,
    triangle_to_json,
)
from .mutation import (
    Factor,
    InvalidFactor,
    InvalidMutationData,
    admissible_widths,
    canonical_form,
    enumerate_one_step,
    find_factors,
    mutate_with,
    unimodular_equivalent,
)
from .fwps import (
    DegenerateCone,
    FwpsInvariants,
    NotDivisible,
    QuotientSingularity,
    cone_singularity,
    is_T_singularity,
    is_well_formed,
    mutate_weights,
    one_step_targets,
    quotient_singularity,
    weights_of,
    wps_triangle,
)
from .diophantine import (
    DiophantineEquation,
    GeneralDerivation,
    MutationTree,
    NonIntegral,
    SquareFreeDecomposition,
    build_mutation_tree,
    derive_equation,
    descend_to_minimal,
    height,
    mutate_solution,
    square_free_decompose,
    tree_to_dot,
    tree_to_json,
    verify_solution,
)
from . import pell357

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

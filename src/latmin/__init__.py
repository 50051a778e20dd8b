"""Exact successive minima and restricted successive minima of symmetric
rational polytopes with respect to integer lattices, with certified bound
evaluators and a verification harness."""

from .body import Box, ConvexBody, SectionData, SymmetricPolytope, coordinate_section, cross_polytope, unit_cube
from .exactarith import (
    DEFAULT_POLICY,
    Enclosure,
    PrecisionPolicy,
    Rational,
    ball_volume_enclosure,
    laguerre_at_minus_two,
    nth_root_enclosure,
    pi_enclosure,
)
from .lattice import (
    Lattice,
    MinorVector,
    hnf,
    intersect,
    kernel_lattice,
    m_value,
    minors_vector,
    union_covers,
)
from .minima import (
    ForbiddenCollection,
    MinimaResult,
    count_points,
    covering_radius_diagonal,
    distinct_cosets_in_body,
    enumerate_points,
    restricted_minima,
    successive_minima,
    torus_packing_volume,
    walk_budget,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "ConvexBody",
    "DEFAULT_POLICY",
    "Enclosure",
    "ForbiddenCollection",
    "Lattice",
    "MinimaResult",
    "MinorVector",
    "PrecisionPolicy",
    "Rational",
    "SectionData",
    "SymmetricPolytope",
    "ball_volume_enclosure",
    "coordinate_section",
    "count_points",
    "covering_radius_diagonal",
    "cross_polytope",
    "distinct_cosets_in_body",
    "enumerate_points",
    "hnf",
    "intersect",
    "kernel_lattice",
    "laguerre_at_minus_two",
    "m_value",
    "minors_vector",
    "nth_root_enclosure",
    "pi_enclosure",
    "restricted_minima",
    "successive_minima",
    "torus_packing_volume",
    "union_covers",
    "unit_cube",
    "walk_budget",
]

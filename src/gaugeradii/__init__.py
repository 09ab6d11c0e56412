"""Exact radii of rational polytopes with respect to polytopal gauge bodies.

Circumradius, inradius, diameter, Minkowski asymmetry and Minkowski centers
are computed bit-exactly over arbitrary-precision rationals via a two-phase
simplex engine, together with evaluators that verify the inequality chains,
equivalence theorems and constructions relating these functionals for
possibly non-symmetric gauges.
"""

from .bodies import (
    HPolytope,
    Halfspace,
    VPolytope,
    body_from_json,
    body_to_json,
    canonicalize,
    contains_point,
    difference_body,
    enumerate_vertices,
    facets,
    intersect,
    is_centrally_symmetric,
    minkowski_sum,
    negate,
    same_vertex_set,
    scale,
    simplex_hrep,
    support,
    translate,
    vertex_centroid,
)
from .certificates import ContainmentCertificate, extract, validate
from .constructions import (
    ExamplePair,
    SplitMix64,
    random_vpolytope,
    simplex_sandwich_pair,
    spiked_difference_pair,
    standard_centered_simplex,
    triangle_mix_gauge,
)
from .lp import LinearProgram, LPOutcome, solve, verify_outcome
from .radii import (
    AsymmetryResult,
    RadiiResult,
    asymmetry,
    breadth,
    circumradius,
    diameter,
    inradius,
    is_constant_width,
    is_minkowski_center,
    jung_ratio,
    sym_gauge_norm,
)
from .ratcore import RATIONAL_BACKEND, Rational, parse_rational, rat, rat_str
from .theorems import (
    CHAINS,
    ChainReport,
    ConditionVector,
    are_mutually_concentric,
    complete_simplex_ratio_laws,
    eval_chain,
    gauge_value,
    is_equilateral,
    is_minkowski_concentric,
    is_mirrored_concentric,
    radius_bound_checks,
    ratio_bound_checks,
    sandwich_equivalence,
    simplex_complete,
    simplex_equality_conditions,
    triangle_equality_conditions,
    triangle_gauge_decomposition,
)

__version__ = "0.1.0"

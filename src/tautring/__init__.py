"""Exact arithmetic in tautological rings of moduli of stable curves.

Stable graphs index the boundary strata; classes are rational
combinations of decorated strata; products are computed by excess
intersection, integrals by the string/dilaton & Virasoro recursions,
and the double ramification cycle by interpolating weighted-graph sums.
A small polyhedral toolkit handles cone complexes with identifications
and their piecewise-polynomial rings.  All arithmetic is exact.
"""

from .errors import ConsistencyError, DomainError
from .rationals import QQ, format_rat, parse_rat
from .stable_graphs import (
    StableGraph,
    automorphism_count,
    automorphisms,
    canonical_form,
    contract_edges,
    enumerate_stable_graphs,
    has_separating_edge,
    separating_edges,
    smooth_graph,
    stable_graph,
)
from .taut_classes import (
    Decoration,
    TautClass,
    class_of_graph,
    decoration,
    dim_moduli,
    fundamental_class,
    generators,
    kappa_class,
    psi_class,
)
from .product import multiply, power
from .integration import (
    integrate,
    kappa_to_psi,
    psi_integral,
    term_integral,
    vertex_integral,
)
from .pixton import (
    dr_cycle,
    lambda_top,
    pixton_class,
    pixton_class_at_r,
    pixton_r_polynomial,
    reference_lambda_expansion,
    weightings_mod_r,
)
from .exact_linalg import (
    AffineSolutionSet,
    QMatrix,
    QPolynomial,
    feasible,
    in_span,
    infeasibility_certificate,
    lagrange_interpolate,
    rank_of_rows,
    solve_affine,
)
from .membership import (
    MembershipReport,
    SpanReport,
    ThetaReport,
    div_membership,
    pair_integral,
    pairing_rank,
    pairing_vector,
    subalgebra_span,
    theta_solve,
)
from .cone_complex import (
    ConeComplex,
    PPFunction,
    SubdivisionMap,
    barycentric,
    explosion_chern_identity,
    generated_by_degree_one,
    pp_space,
    pullback_pp,
    simplex_cone_complex,
    star_subdivision,
    triangle_z3_complex,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSolutionSet",
    "ConeComplex",
    "ConsistencyError",
    "Decoration",
    "DomainError",
    "MembershipReport",
    "PPFunction",
    "QMatrix",
    "QPolynomial",
    "QQ",
    "SpanReport",
    "StableGraph",
    "SubdivisionMap",
    "TautClass",
    "ThetaReport",
    "automorphism_count",
    "automorphisms",
    "barycentric",
    "canonical_form",
    "class_of_graph",
    "contract_edges",
    "decoration",
    "dim_moduli",
    "div_membership",
    "dr_cycle",
    "enumerate_stable_graphs",
    "explosion_chern_identity",
    "feasible",
    "format_rat",
    "fundamental_class",
    "generated_by_degree_one",
    "generators",
    "has_separating_edge",
    "in_span",
    "infeasibility_certificate",
    "integrate",
    "kappa_class",
    "kappa_to_psi",
    "lagrange_interpolate",
    "lambda_top",
    "multiply",
    "pair_integral",
    "pairing_rank",
    "pairing_vector",
    "parse_rat",
    "pixton_class",
    "pixton_class_at_r",
    "pixton_r_polynomial",
    "power",
    "pp_space",
    "psi_class",
    "psi_integral",
    "pullback_pp",
    "rank_of_rows",
    "reference_lambda_expansion",
    "separating_edges",
    "simplex_cone_complex",
    "smooth_graph",
    "solve_affine",
    "stable_graph",
    "star_subdivision",
    "subalgebra_span",
    "term_integral",
    "theta_solve",
    "triangle_z3_complex",
    "vertex_integral",
    "weightings_mod_r",
]

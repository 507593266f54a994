"""Certificates of nonnegativity for sparse polynomials via sums of
nonnegative circuit polynomials (SONC): circuit catalogs with exact
barycentric data, entropy and exponential-cone kernels, dual-cone
membership, and certified lower bounds for unconstrained optimization.
"""

from .bounds import (
    BoundResult,
    SoncCertificate,
    Status,
    UnboundedWitness,
    certify_optimality,
    sonc_feasibility,
    verify_certificate,
    verify_unbounded,
)
from .circuits import (
    AffinelyDependentError,
    Circuit,
    CircuitCatalog,
    SupportTooLargeError,
    affinely_independent,
    barycentric_coordinates,
    circuit_number,
    enumerate_circuits,
    is_even_point,
    log_circuit_number,
)
from .dual import (
    DualWitness,
    MembershipReport,
    circuit_dual_membership,
    lp_min_infeasibility,
    psd_dual_quartic,
    quartic_dual_membership,
    sage_dual_membership,
    sonc_dual_membership,
)
from .entropy import (
    entropy_iff_expcone,
    entropy_minimizer,
    exp_cone_dual_member,
    exp_cone_member,
    relative_entropy,
    scalar_dual_member,
    xlogx_over,
)
from .nonneg import (
    CircuitPolynomial,
    EntropyWitness,
    as_sparse_polynomial,
    is_nonneg_circuit,
    is_nonneg_on_positive_orthant,
    verify_entropy_witness,
)
from .polynomials import (
    DualVector,
    Exponent,
    ParseError,
    SparsePolynomial,
    SupportSet,
    moment_vector,
    parse_polynomial,
    serialize_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "AffinelyDependentError",
    "BoundResult",
    "Circuit",
    "CircuitCatalog",
    "CircuitPolynomial",
    "DualVector",
    "DualWitness",
    "EntropyWitness",
    "Exponent",
    "MembershipReport",
    "ParseError",
    "SoncCertificate",
    "SparsePolynomial",
    "Status",
    "SupportSet",
    "SupportTooLargeError",
    "UnboundedWitness",
    "affinely_independent",
    "as_sparse_polynomial",
    "barycentric_coordinates",
    "certify_optimality",
    "circuit_dual_membership",
    "circuit_number",
    "entropy_iff_expcone",
    "entropy_minimizer",
    "enumerate_circuits",
    "exp_cone_dual_member",
    "exp_cone_member",
    "is_even_point",
    "is_nonneg_circuit",
    "is_nonneg_on_positive_orthant",
    "log_circuit_number",
    "lp_min_infeasibility",
    "moment_vector",
    "parse_polynomial",
    "psd_dual_quartic",
    "quartic_dual_membership",
    "relative_entropy",
    "sage_dual_membership",
    "scalar_dual_member",
    "serialize_polynomial",
    "sonc_dual_membership",
    "sonc_feasibility",
    "verify_certificate",
    "verify_entropy_witness",
    "verify_unbounded",
    "xlogx_over",
]

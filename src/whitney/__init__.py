"""Exact computation and cross-verification of generalized
Stirling-Whitney-Dowling number families.

The same triangle is produced four independent ways -- defining
recurrence, grammar derivative, series extraction, and brute-force
structure enumeration -- and an identity harness checks every stated
relation between the families in exact rational arithmetic.
"""

from . import identities, triangles  # identities fills the registry
from .enumeration import (
    count_augmented_partitions,
    count_r_stirling_pairs,
    count_whitney_pairs,
    iter_augmented_partitions,
    iter_whitney_pairs,
)
from .errors import (
    BadConstantTerm,
    BadGrid,
    BadParameter,
    InstanceTooLarge,
    NotInvertible,
    OrderExceeded,
    SeriesTooShort,
    StrayMonomial,
    UnknownIdentity,
    WhitneyError,
)
from .grammar import (
    Grammar,
    XYPoly,
    derive_n,
    derive_once,
    stirling_grammar,
    whitney_grammar,
    whitney_row_from_grammar,
)
from .operators import (
    DiffOpSeries,
    binomial_power_op,
    derivative_op,
    forward_difference_op,
    scaled_log_op,
    shift_op,
)
from .poly import Poly, falling_basis_expand, from_falling_basis, stepped_product
from .registry import CheckReport, registry_names, run_all, run_check
from .riordan import (
    ExpRiordan,
    connection_constants,
    identity_array,
    sheffer_polys,
    whitney1_array,
    whitney2_array,
)
from .series import Egf, expm1_scaled, log1p_scaled
from .triangles import (
    Triangle,
    bell_numbers,
    bernoulli_numbers,
    bernoulli_poly,
    build_triangle,
    cauchy_numbers,
    classical_seq,
    dowling_inverse_poly,
    dowling_poly,
    euler_poly,
    euler_zero_values,
    family,
    m_stirling1_row,
    m_stirling2_row,
    touchard_inverse_poly,
    touchard_poly,
    whitney1_row,
    whitney1_row_egf,
    whitney2_row,
    whitney2_row_egf,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty the process-wide caches: the triangle row store and its row
    polynomials, the longest Bernoulli and Euler prefixes and their
    polynomials, and the printed sums the twin identity checks share."""
    triangles._ROWS.clear()
    triangles._POLYS.clear()
    triangles._PREFIXES.clear()
    for memo in identities._SUMS:
        memo.cache_clear()

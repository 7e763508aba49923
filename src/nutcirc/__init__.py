"""nutcirc: exact-arithmetic tools for circulant nut graphs.

Construct circulant graph families, certify nut-ness by independent spectral
and null-space routes, decide cyclotomic divisibility of sparse integer
polynomials, regenerate the small-modulus residue tables, and catalog nut
graph existence by order and degree.
"""

from .circulant import (
    GeneratorSet,
    KernelReport,
    NutVerdict,
    eigen_poly,
    is_nut_kernel,
    is_nut_spectral,
    kernel_oracle,
    parity_balanced,
)
from .cyclotomy import (
    CycloDivisorReport,
    ReductionStep,
    cyclo_divisors_accelerated,
    cyclo_divisors_oracle,
    filaseta_step,
    large_prime_exclusion,
)
from .errors import CapacityError, ConfigurationError, NutcircError, ParameterError
from .families import (
    FamilyId,
    FamilyPolyId,
    GoldenReport,
    TableRow,
    appendix_golden_check,
    build_family,
    exponent_set,
    family_nut_check,
    family_poly,
    generate_table,
    unique_remainder_exists,
)
from .polyalg import (
    DensePoly,
    SparsePoly,
    cyclotomic,
    dense_div_rem,
    euler_phi,
    phi_divides,
    reduce_mod_signed,
    reduce_mod_xb,
    totient_candidates,
)
from .search import CatalogEntry, catalog

__all__ = [
    "CapacityError",
    "CatalogEntry",
    "ConfigurationError",
    "CycloDivisorReport",
    "DensePoly",
    "FamilyId",
    "FamilyPolyId",
    "GeneratorSet",
    "GoldenReport",
    "KernelReport",
    "NutVerdict",
    "NutcircError",
    "ParameterError",
    "ReductionStep",
    "SparsePoly",
    "TableRow",
    "appendix_golden_check",
    "build_family",
    "catalog",
    "cyclo_divisors_accelerated",
    "cyclo_divisors_oracle",
    "cyclotomic",
    "dense_div_rem",
    "eigen_poly",
    "euler_phi",
    "exponent_set",
    "family_nut_check",
    "family_poly",
    "filaseta_step",
    "generate_table",
    "is_nut_kernel",
    "is_nut_spectral",
    "kernel_oracle",
    "large_prime_exclusion",
    "parity_balanced",
    "phi_divides",
    "reduce_mod_signed",
    "reduce_mod_xb",
    "totient_candidates",
    "unique_remainder_exists",
]

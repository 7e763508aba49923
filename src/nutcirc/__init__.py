"""nutcirc: exact-arithmetic tools for circulant nut graphs.

Construct circulant graph families, certify nut-ness by independent spectral
and null-space routes, decide cyclotomic divisibility of sparse integer
polynomials, regenerate the small-modulus residue tables and diff them
against the golden files, and catalog nut graph existence by order and
degree.

Each exported name is imported from its defining module on first use
(PEP 562), so ``import nutcirc`` loads no layer and a command-line request
compiles only the modules its subcommand calls. The golden-file diff and
the unique-residue premise live in ``appendix``, which no request calls.
"""

from importlib import import_module

# exported name -> defining module
_EXPORTS = {
    name: module
    for module, names in {
        "appendix": (
            "GoldenReport",
            "appendix_golden_check",
            "exponent_set",
            "unique_remainder_exists",
        ),
        "circulant": (
            "GeneratorSet",
            "KernelReport",
            "NutVerdict",
            "eigen_poly",
            "is_nut_kernel",
            "is_nut_spectral",
            "kernel_oracle",
            "parity_balanced",
        ),
        "cyclotomy": (
            "CycloDivisorReport",
            "cyclo_divisors_accelerated",
            "cyclo_divisors_oracle",
            "filaseta_step",
            "totient_candidates",
        ),
        "errors": ("CapacityError", "ConfigurationError", "NutcircError", "ParameterError"),
        "families": (
            "FamilyId",
            "FamilyPolyId",
            "TableRow",
            "build_family",
            "family_nut_check",
            "family_poly",
            "generate_table",
        ),
        "polyalg": (
            "SparsePoly",
            "cyclotomic",
            "euler_phi",
            "phi_divides",
            "phi_remainder",
            "reduce_mod_xb",
        ),
        "search": ("CatalogEntry", "catalog"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

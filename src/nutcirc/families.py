"""Constructions of the circulant nut graph families and their residue tables.

Three generator-set families are built here: two block constructions (one for
orders divisible by four, one for orders congruent to 2 mod 4) and the older
consecutive-run family they extend. Each block family comes with a pair of
six-term polynomials whose cyclotomic non-divisibility is exactly what makes
every member a nut graph. The four polynomials live in one table, ``_SHAPES``,
each exponent as a*t + c. ``family_nut_check`` re-derives nut-ness through
that divisor classification without ever forming the eigenvalue polynomial,
and ``generate_table``/``appendix_golden_check`` regenerate (remainders
through ``phi_remainder``) and diff the small-modulus residue tables that
certify the small-index cases.
"""
from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Union

from .errors import CapacityError, ConfigurationError, ParameterError
from .polyalg import (
    SparsePoly,
    is_prime,
    phi_divides,
    phi_remainder,
    reduce_mod_xb,
    sparse_from_text,
    sparse_to_text,
)
from .record import Record

if TYPE_CHECKING:
    from .circulant import GeneratorSet, NutVerdict

VARIANT_DPRIME = "dprime"
VARIANT_DDPRIME = "ddprime"
VARIANT_DS_PRIOR = "ds"
VARIANTS = (VARIANT_DPRIME, VARIANT_DDPRIME, VARIANT_DS_PRIOR)

# The four six-term family polynomials, one entry per kind: whether t must be
# odd, the least t, the least prime p for ``unique_remainder_exists``, and the
# six terms (a, c, coefficient), each meaning coefficient * x^(a*t + c).
# q and r serve the 4 | n family, u and w the n = 2 (mod 4) family.
_SHAPES = {
    "q": (True, 3, 5, ((2, -1, 2), (1, 1, 1), (1, 0, -1), (1, -1, 1), (1, -2, -1), (0, 0, -2))),
    "r": (True, 3, 5, ((2, -1, 2), (1, 1, -1), (1, 0, -3), (1, -1, 3), (1, -2, 1), (0, 0, -2))),
    "u": (False, 2, 7, ((4, -1, 2), (2, 4, 1), (2, 1, -2), (2, -1, 2), (2, -4, -1), (0, 1, -2))),
    "w": (False, 2, 7, ((4, -1, 2), (2, 4, -1), (2, 1, -2), (2, -1, 2), (2, -4, 1), (0, 1, -2))),
}
POLY_KINDS = tuple(_SHAPES)
TABLE_MODULI = (3, 5, 6, 10, 15, 30)
# A member holds 2t generators: at t = 10^5, building one takes about 40 ms
# and 16 MB at peak.
FAMILY_MAX_T = 10**5


class FamilyId(Record):
    """One member of a generator-set family: variant name, parameter t, order n."""

    __slots__ = ("variant", "t", "n")
    variant: str
    t: int
    n: int

    def _check(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown family variant {self.variant!r}")
        t, n = self.t, self.n
        if t < 1:
            raise ParameterError(f"family parameter t must be >= 1, got {t}")
        if self.variant == VARIANT_DPRIME:
            if t % 2 == 0:
                raise ParameterError(f"dprime requires odd t, got t={t}")
            if n % 4:
                raise ParameterError(f"dprime requires 4 | n, got n={n}")
            if n < 4 * t + 4:
                raise ParameterError(f"dprime requires n >= 4t+4 = {4*t+4}, got n={n}")
        elif self.variant == VARIANT_DDPRIME:
            if n % 4 != 2:
                raise ParameterError(f"ddprime requires n = 2 (mod 4), got n={n}")
            if n < 4 * t + 6:
                raise ParameterError(f"ddprime requires n >= 4t+6 = {4*t+6}, got n={n}")
        else:
            if t % 2 == 0 or t < 3:
                raise ParameterError(f"ds requires odd t >= 3, got t={t}")
            if t % 10 == 1:
                raise ParameterError(f"ds excludes t = 1 (mod 10), got t={t}")
            if t % 18 == 15:
                raise ParameterError(f"ds excludes t = 15 (mod 18), got t={t}")
            if n % 2 or n < 4 * t + 4:
                raise ParameterError(f"ds requires even n >= 4t+4 = {4*t+4}, got n={n}")


class FamilyPolyId(Record):
    """Selector for one of the four six-term family polynomials."""

    __slots__ = ("kind", "t")
    kind: str
    t: int

    def _check(self):
        if self.kind not in _SHAPES:
            raise ParameterError(f"unknown family polynomial kind {self.kind!r}")
        odd, least_t = _SHAPES[self.kind][:2]
        if self.t < least_t or (odd and self.t % 2 == 0):
            parity = "odd " if odd else ""
            raise ParameterError(f"{self.kind} requires {parity}t >= {least_t}, got t={self.t}")


def build_family(fid: FamilyId) -> GeneratorSet:
    """Sorted generator set of the family member; always 2t elements.

    A t above FAMILY_MAX_T raises CapacityError before the set is built.
    """
    from .circulant import GeneratorSet

    t, n = fid.t, fid.n
    if t > FAMILY_MAX_T:
        raise CapacityError(f"family parameter t={t} exceeds the ceiling {FAMILY_MAX_T}")
    low = list(range(1, t))
    high = list(range(n // 2 - (t - 1), n // 2))
    if fid.variant == VARIANT_DPRIME:
        middle = [n // 4, n // 4 + 1]
    elif fid.variant == VARIANT_DDPRIME:
        middle = [(n + 2) // 4, (n + 6) // 4]
    else:
        return GeneratorSet(n, tuple(s for s in range(1, 2 * t + 2) if s != t))
    return GeneratorSet(n, tuple(sorted(low + middle + high)))


def _family_terms(kind: str, t: int) -> list[tuple[int, int]]:
    # Shared by the public constructor and the residue-table generator, which
    # instantiates arbitrary residues, so parity is not checked here.
    if kind not in _SHAPES:
        raise ParameterError(f"unknown family polynomial kind {kind!r}")
    _, least_t, _, terms = _SHAPES[kind]
    if t < least_t:
        raise ParameterError(f"{kind}-polynomial shape needs t >= {least_t}, got {t}")
    return [(a * t + c, coeff) for a, c, coeff in terms]


def family_poly(pid: FamilyPolyId) -> SparsePoly:
    """The six-term family polynomial, exactly as defined."""
    return SparsePoly(_family_terms(pid.kind, pid.t))


def exponent_set(pid: FamilyPolyId) -> set[int]:
    """Exponent support of the family polynomial; always six elements."""
    return {e for e, _ in _family_terms(pid.kind, pid.t)}


def unique_remainder_exists(pid: FamilyPolyId, p: int) -> bool:
    """True iff some exponent's residue mod p is unique within the support set.

    This is the pigeonhole fact that powers the prime-index exclusions; it is
    stated for primes p from the kind's least prime on: 5 for q/r, 7 for u/w.
    """
    minimum = _SHAPES[pid.kind][2]
    if p < minimum or not is_prime(p):
        raise ParameterError(
            f"unique_remainder_exists({pid.kind}) needs a prime p >= {minimum}, got {p}"
        )
    residues = [e % p for e in exponent_set(pid)]
    return any(residues.count(r) == 1 for r in residues)


def family_nut_check(fid: FamilyId) -> NutVerdict:
    """Decide nut-ness of a family member from the divisor classification alone.

    Neither the member, parity balanced by construction, nor its eigenvalue
    polynomial is formed. For the 4|n family, a divisor b >= 3 of n can only
    kill the spectrum if Phi_b divides the q-polynomial (when b | n/4) or
    the r-polynomial (when b | n/2 but not n/4); divisors of n that do not
    divide n/2 can never fail. For the n = 2 (mod 4) family the same
    classification runs at the half-exponent level: odd divisors of n check
    the u-polynomial, even ones the w-polynomial. t = 1 members reduce to a
    closed-form binomial divisibility in both families. The returned witness
    is the smallest failing divisor index in the respective scheme.
    Listing the divisors factors n, so an order above
    ``circulant.SPECTRAL_MAX_ORDER`` raises CapacityError first; with six
    terms per polynomial, that one ceiling bounds the divisibility tests
    too, whatever t is (FAMILY_MAX_T bounds only ``build_family``).
    """
    from .circulant import REASON_OK, REASON_SPECTRAL, NutVerdict, spectral_indices

    if fid.variant == VARIANT_DS_PRIOR:
        raise ParameterError(
            "family_nut_check covers the dprime/ddprime constructions only; "
            "use is_nut_spectral for the ds family"
        )
    t, n = fid.t, fid.n
    indices = spectral_indices(n)
    dprime = fid.variant == VARIANT_DPRIME
    # Each divisor b >= 3 of n is tested against the polynomial of the first
    # (m, polynomial) rule with b | m; a b matching no rule cannot fail.
    if t == 1:
        # The spectrum dies at a primitive b-th root iff that root solves
        # x^(n/2 + shift) = -1, i.e. iff Phi_b divides x^(n/2 + shift) + 1.
        shift = 1 if dprime else 2
        rules = [(n, SparsePoly([(n // 2 + shift, 1), (0, 1)]))]
    else:
        pairs = (("q", 4), ("r", 2)) if dprime else (("u", 2), ("w", 1))
        rules = [(n // k, family_poly(FamilyPolyId(kind, t))) for kind, k in pairs]
    for b in indices:
        poly = next((poly for m, poly in rules if m % b == 0), None)
        if poly is not None and phi_divides(poly, b):
            return NutVerdict(False, REASON_SPECTRAL, witness=b)
    return NutVerdict(True, REASON_OK)


# --- residue tables ---------------------------------------------------------


class TableRow(Record):
    """One residue class: the reduced polynomial and its cyclotomic remainder."""

    __slots__ = ("kind", "modulus", "residue", "reduced", "remainder")
    kind: str
    modulus: int
    residue: int
    reduced: SparsePoly
    remainder: SparsePoly


class GoldenMismatch(Record):
    __slots__ = ("kind", "modulus", "residue", "field", "expected", "actual")
    kind: str
    modulus: int
    residue: int
    field: str
    expected: str
    actual: str


class GoldenReport(Record):
    __slots__ = ("rows_checked", "mismatches", "zero_remainders")
    rows_checked: int
    mismatches: tuple[GoldenMismatch, ...]
    zero_remainders: tuple[tuple[str, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.zero_remainders


def _table_representative(kind: str, residue: int, modulus: int) -> int:
    # The reduced polynomial depends on t only through t mod modulus, so any
    # representative works; the least one at or above the kind's least t.
    t = residue % modulus
    while t < _SHAPES[kind][1]:
        t += modulus
    return t


def generate_table(kind: str, modulus: int) -> list[TableRow]:
    """Rows r = 0 .. modulus-1 of the residue table for one family polynomial.

    Each row reduces the family polynomial (instantiated at the smallest
    valid representative of the residue class) modulo x^modulus - 1 and then
    takes its remainder modulo the corresponding cyclotomic polynomial. Every
    remainder must be nonzero; that is the content of the small-index
    exclusion certified by these tables.
    """
    if kind not in POLY_KINDS:
        raise ParameterError(f"unknown table kind {kind!r}")
    if modulus not in TABLE_MODULI:
        raise ParameterError(
            f"unsupported table modulus {modulus}; expected one of {TABLE_MODULI}"
        )
    rows = []
    for residue in range(modulus):
        poly = SparsePoly(_family_terms(kind, _table_representative(kind, residue, modulus)))
        reduced = reduce_mod_xb(poly, modulus)
        rows.append(TableRow(kind, modulus, residue, reduced, phi_remainder(poly, modulus)))
    return rows


def golden_data_dir() -> Path:
    return Path(__file__).parent / "data" / "appendix"


def appendix_golden_check(data_dir: Union[Path, str, None] = None) -> GoldenReport:
    """Regenerate all residue tables and diff them against the golden files.

    Golden files live at data/appendix/{kind}_{modulus}.txt, one row per
    line: ``residue reduced-sparse remainder-sparse``. Comparison is
    bit-exact on the canonical sparse text. Zero remainders are reported
    separately even if they match the golden file.
    """
    base = Path(data_dir) if data_dir is not None else golden_data_dir()
    mismatches: list[GoldenMismatch] = []
    zero_remainders: list[tuple[str, int, int]] = []
    rows_checked = 0
    for kind in POLY_KINDS:
        for modulus in TABLE_MODULI:
            path = base / f"{kind}_{modulus}.txt"
            if not path.is_file():
                raise ConfigurationError(f"missing golden table file {path}")
            golden_rows = _parse_golden(path)
            for row in generate_table(kind, modulus):
                rows_checked += 1
                if row.remainder.is_zero():
                    zero_remainders.append((kind, modulus, row.residue))
                golden = golden_rows.pop(row.residue, None)
                if golden is None:
                    mismatches.append(
                        GoldenMismatch(kind, modulus, row.residue, "row", "<present>", "<missing>")
                    )
                    continue
                actual = (sparse_to_text(row.reduced), sparse_to_text(row.remainder))
                for field, expected, got in zip(("reduced", "remainder"), golden, actual):
                    if got != expected:
                        mismatches.append(
                            GoldenMismatch(kind, modulus, row.residue, field, expected, got)
                        )
            # Rows left over name residues the table does not have.
            mismatches += (
                GoldenMismatch(kind, modulus, residue, "row", "<absent>", "<present>")
                for residue in golden_rows
            )
    return GoldenReport(rows_checked, tuple(mismatches), tuple(zero_remainders))


def _parse_golden(path: Path) -> dict[int, tuple[str, str]]:
    rows: dict[int, tuple[str, str]] = {}
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ConfigurationError(f"{path}:{line_no}: expected 3 fields, got {len(parts)}")
        try:
            residue = int(parts[0])
            # Round-trip the reduced and remainder texts so the stored text is canonical.
            texts = tuple(sparse_to_text(sparse_from_text(text)) for text in parts[1:])
        except ValueError as exc:  # from int, or sparse_from_text's ParameterError
            raise ConfigurationError(f"{path}:{line_no}: {exc}") from None
        if residue in rows:
            raise ConfigurationError(f"{path}:{line_no}: repeated residue {residue}")
        rows[residue] = texts
    return rows

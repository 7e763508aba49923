"""Constructions of the circulant nut graph families and their residue tables.

Three generator-set families are built here: two block constructions (one for
orders divisible by four, one for orders congruent to 2 mod 4) and the older
consecutive-run family they extend. Each block family comes with a pair of
six-term polynomials whose cyclotomic non-divisibility is exactly what makes
every member a nut graph; ``family_nut_check`` re-derives nut-ness through
that divisor classification without ever forming the eigenvalue polynomial,
and ``generate_table``/``appendix_golden_check`` regenerate and diff the
small-modulus residue tables that certify the small-index cases.
"""
from __future__ import annotations

from pathlib import Path
from typing import Union

from .circulant import (
    REASON_OK,
    REASON_SPECTRAL,
    GeneratorSet,
    NutVerdict,
    parity_balanced,
)
from .errors import ConfigurationError, ParameterError
from .polyalg import (
    DensePoly,
    SparsePoly,
    cyclotomic,
    dense_div_rem,
    divisors,
    is_prime,
    phi_divides,
    reduce_mod_xb,
    sparse_from_text,
    sparse_to_text,
)
from .record import Record

VARIANT_DPRIME = "dprime"
VARIANT_DDPRIME = "ddprime"
VARIANT_DS_PRIOR = "ds"
VARIANTS = (VARIANT_DPRIME, VARIANT_DDPRIME, VARIANT_DS_PRIOR)

POLY_KINDS = ("q", "r", "u", "w")
TABLE_MODULI = (3, 5, 6, 10, 15, 30)


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
        if self.kind not in POLY_KINDS:
            raise ParameterError(f"unknown family polynomial kind {self.kind!r}")
        if self.kind in ("q", "r"):
            if self.t % 2 == 0 or self.t < 3:
                raise ParameterError(f"{self.kind} requires odd t >= 3, got t={self.t}")
        elif self.t < 2:
            raise ParameterError(f"{self.kind} requires t >= 2, got t={self.t}")


def build_family(fid: FamilyId) -> GeneratorSet:
    """Sorted generator set of the family member; always 2t elements."""
    t, n = fid.t, fid.n
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
    # Exponent/coefficient shape shared by the public constructor and the
    # residue-table generator (the latter instantiates arbitrary residues,
    # so no parity validation here).
    if kind == "q":
        if t < 3:
            raise ParameterError(f"q-polynomial shape needs t >= 3, got {t}")
        return [(2 * t - 1, 2), (t + 1, 1), (t, -1), (t - 1, 1), (t - 2, -1), (0, -2)]
    if kind == "r":
        if t < 3:
            raise ParameterError(f"r-polynomial shape needs t >= 3, got {t}")
        return [(2 * t - 1, 2), (t + 1, -1), (t, -3), (t - 1, 3), (t - 2, 1), (0, -2)]
    if kind == "u":
        if t < 2:
            raise ParameterError(f"u-polynomial shape needs t >= 2, got {t}")
        return [
            (4 * t - 1, 2),
            (2 * t + 4, 1),
            (2 * t + 1, -2),
            (2 * t - 1, 2),
            (2 * t - 4, -1),
            (1, -2),
        ]
    if kind == "w":
        if t < 2:
            raise ParameterError(f"w-polynomial shape needs t >= 2, got {t}")
        return [
            (4 * t - 1, 2),
            (2 * t + 4, -1),
            (2 * t + 1, -2),
            (2 * t - 1, 2),
            (2 * t - 4, 1),
            (1, -2),
        ]
    raise ParameterError(f"unknown family polynomial kind {kind!r}")


def family_poly(pid: FamilyPolyId) -> SparsePoly:
    """The six-term family polynomial, exactly as defined."""
    return SparsePoly(_family_terms(pid.kind, pid.t))


def exponent_set(pid: FamilyPolyId) -> set[int]:
    """Exponent support of the family polynomial; always six elements."""
    return {e for e, _ in _family_terms(pid.kind, pid.t)}


def unique_remainder_exists(pid: FamilyPolyId, p: int) -> bool:
    """True iff some exponent's residue mod p is unique within the support set.

    This is the pigeonhole fact that powers the prime-index exclusions; it is
    stated for primes p >= 5 on the q/r supports and p >= 7 on the u/w
    supports.
    """
    minimum = 5 if pid.kind in ("q", "r") else 7
    if p < minimum or not is_prime(p):
        raise ParameterError(
            f"unique_remainder_exists({pid.kind}) needs a prime p >= {minimum}, got {p}"
        )
    exps = exponent_set(pid)
    residues: dict[int, int] = {}
    for e in exps:
        residues[e % p] = residues.get(e % p, 0) + 1
    return any(count == 1 for count in residues.values())


def family_nut_check(fid: FamilyId) -> NutVerdict:
    """Decide nut-ness of a family member from the divisor classification alone.

    The eigenvalue polynomial is never formed. For the 4|n family, a divisor
    b >= 3 of n can only kill the spectrum if Phi_b divides the q-polynomial
    (when b | n/4) or the r-polynomial (when b | n/2 but not n/4); divisors of
    n that do not divide n/2 can never fail. For the n = 2 (mod 4) family the
    same classification runs at the half-exponent level: odd divisors of n
    check the u-polynomial, even ones the w-polynomial. t = 1 members reduce
    to a closed-form binomial divisibility in both families. The returned
    witness is the smallest failing divisor index in the respective scheme.
    """
    if fid.variant == VARIANT_DS_PRIOR:
        raise ParameterError(
            "family_nut_check covers the dprime/ddprime constructions only; "
            "use is_nut_spectral for the ds family"
        )
    g = build_family(fid)
    if not parity_balanced(g):  # structurally impossible; kept as a guard
        raise AssertionError("family construction lost parity balance")
    t, n = fid.t, fid.n
    dprime = fid.variant == VARIANT_DPRIME
    # Each divisor b >= 3 of n is tested against the polynomial of the first
    # (m, polynomial) rule with b | m; a b matching no rule cannot fail.
    if t == 1:
        # The spectrum dies at a primitive b-th root iff that root solves
        # x^(n/2 + shift) = -1, i.e. iff Phi_b divides x^(n/2 + shift) + 1.
        shift = 1 if dprime else 2
        rules = [(n, SparsePoly([(n // 2 + shift, 1), (0, 1)]))]
    elif dprime:
        rules = [
            (n // 4, family_poly(FamilyPolyId("q", t))),
            (n // 2, family_poly(FamilyPolyId("r", t))),
        ]
    else:
        rules = [
            (n // 2, family_poly(FamilyPolyId("u", t))),
            (n, family_poly(FamilyPolyId("w", t))),
        ]
    for b in divisors(n):
        poly = next((poly for m, poly in rules if m % b == 0), None)
        if b >= 3 and poly is not None and phi_divides(poly, b):
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
    remainder: DensePoly


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
    # representative works; the smallest one keeping the six-term shape valid
    # is used (t >= 3 for q/r, t >= 2 for u/w).
    t = residue % modulus
    minimum = 3 if kind in ("q", "r") else 2
    while t < minimum:
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
    phi = cyclotomic(modulus)
    rows = []
    for residue in range(modulus):
        t = _table_representative(kind, residue, modulus)
        reduced = reduce_mod_xb(SparsePoly(_family_terms(kind, t)), modulus)
        _, remainder = dense_div_rem(reduced.to_dense(), phi)
        rows.append(TableRow(kind, modulus, residue, reduced, remainder))
    return rows


def golden_data_dir() -> Path:
    # Imported here: on Python 3.12 and later importlib.resources loads
    # inspect, which would cost every CLI start over 10 ms.
    from importlib.resources import files

    return Path(str(files("nutcirc").joinpath("data", "appendix")))


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
                golden = golden_rows.get(row.residue)
                if golden is None:
                    mismatches.append(
                        GoldenMismatch(kind, modulus, row.residue, "row", "<present>", "<missing>")
                    )
                    continue
                expected_reduced, expected_remainder = golden
                actual_reduced = sparse_to_text(row.reduced)
                actual_remainder = sparse_to_text(row.remainder.to_sparse())
                if actual_reduced != expected_reduced:
                    mismatches.append(
                        GoldenMismatch(
                            kind, modulus, row.residue, "reduced", expected_reduced, actual_reduced
                        )
                    )
                if actual_remainder != expected_remainder:
                    mismatches.append(
                        GoldenMismatch(
                            kind,
                            modulus,
                            row.residue,
                            "remainder",
                            expected_remainder,
                            actual_remainder,
                        )
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
        residue_str, reduced, remainder = parts
        # Round-trip through the parser so the stored text is canonical.
        rows[int(residue_str)] = (
            sparse_to_text(sparse_from_text(reduced)),
            sparse_to_text(sparse_from_text(remainder)),
        )
    return rows

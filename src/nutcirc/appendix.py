"""The paper's appendix facts, for the library and the tests; no CLI request imports this.

``appendix_golden_check`` regenerates every residue table with
``families.generate_table`` and diffs it bit-exactly against the golden
files shipped in ``data/appendix/``. ``unique_remainder_exists`` is the
pigeonhole premise of the prime-index exclusions, on the exponent support
``exponent_set`` of a family polynomial.
"""
from __future__ import annotations

from pathlib import Path

from .errors import ConfigurationError, ParameterError
from .families import _SHAPES, POLY_KINDS, TABLE_MODULI, family_poly, generate_table
from .polyalg import prime_factorization, sparse_from_text, sparse_to_text
from .record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .families import FamilyPolyId


def exponent_set(pid: FamilyPolyId) -> set[int]:
    """Exponent support of the family polynomial; always six elements."""
    return set(family_poly(pid).terms)


def unique_remainder_exists(pid: FamilyPolyId, p: int) -> bool:
    """True iff some exponent's residue mod p is unique within the support set.

    This is the pigeonhole fact that powers the prime-index exclusions; it is
    stated for primes p from the kind's least prime on: 5 for q/r, 7 for u/w.
    """
    minimum = _SHAPES[pid.kind][2]
    if p < minimum or prime_factorization(p) != ((p, 1),):
        raise ParameterError(
            f"unique_remainder_exists({pid.kind}) needs a prime p >= {minimum}, got {p}"
        )
    residues = [e % p for e in exponent_set(pid)]
    return any(residues.count(r) == 1 for r in residues)


# --- golden residue tables --------------------------------------------------


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


def golden_data_dir() -> Path:
    return Path(__file__).parent / "data" / "appendix"


def appendix_golden_check(data_dir: Path | str | None = None) -> GoldenReport:
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

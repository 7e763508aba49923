"""Circulant graphs and exact nut-graph certification.

A circulant graph on n vertices is described by its generator set S, the
offsets 1 <= s < n/2 present in the first adjacency row. Nut-ness (nullity
one, kernel vector with no zero entries) is decided by two independent
routes: a spectral criterion expressed through cyclotomic divisibility of the
eigenvalue polynomial, and a rational null-space oracle built on fraction-free
integer elimination of the adjacency matrix. The two must always agree; tests
and the acceptance suite sweep them against each other.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .errors import CapacityError, ParameterError
from .polyalg import SparsePoly, divisors, phi_divides

DEFAULT_ORACLE_LIMIT = 256
ORACLE_LIMIT_ENV = "NUTCIRC_ORACLE_LIMIT"

REASON_OK = "ok"
REASON_ODD_ORDER = "odd-order"
REASON_PARITY = "parity-imbalance"
REASON_SPECTRAL = "spectral-failure"
REASON_NULLITY = "nullity-not-one"
REASON_KERNEL_ZERO = "kernel-has-zero"


@dataclass(frozen=True)
class GeneratorSet:
    """Order n plus strictly ascending offsets, each in 1 .. ceil(n/2) - 1.

    Offsets equal to n/2 are rejected: every stored offset s contributes the
    two exponents s and n - s to the eigenvalue polynomial. Odd orders are
    representable (the nut checks report them as failures rather than
    refusing to construct the graph).
    """

    n: int
    elements: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"graph order must be >= 2, got {self.n}")
        prev = 0
        for s in self.elements:
            if s <= prev:
                raise ParameterError(
                    f"generator elements must be strictly ascending positives, got {self.elements}"
                )
            if 2 * s >= self.n:
                raise ParameterError(
                    f"generator element {s} is >= n/2 for n={self.n}"
                )
            prev = s

    @property
    def degree(self) -> int:
        return 2 * len(self.elements)


@dataclass(frozen=True)
class NutVerdict:
    """Decision record: nut or not, why, and the failing evidence if any.

    witness is the smallest failing cyclotomic index for spectral failures,
    and the exact kernel vector for kernel-based reasons (including ok).
    """

    is_nut: bool
    reason: str
    witness: Union[int, tuple[int, ...], None] = None


@dataclass(frozen=True)
class KernelReport:
    """Exact null-space summary of the adjacency matrix."""

    nullity: int
    kernel_vector: Optional[tuple[int, ...]]
    full_support: bool


def parse_generator_set(n: int, csv_elements: str) -> GeneratorSet:
    """Build a GeneratorSet from a comma-separated element list (CLI format)."""
    try:
        elems = tuple(int(tok) for tok in csv_elements.split(",") if tok.strip())
    except ValueError:
        raise ParameterError(f"malformed generator list {csv_elements!r}") from None
    return GeneratorSet(n, tuple(sorted(elems)))


def eigen_poly(g: GeneratorSet) -> SparsePoly:
    """Eigenvalue polynomial P(x) = sum over s of x^s + x^(n-s).

    The graph's eigenvalues are P evaluated at the n-th roots of unity. All
    2*|S| exponents are distinct because every s is below n/2.
    """
    terms = []
    for s in g.elements:
        terms.append((s, 1))
        terms.append((g.n - s, 1))
    return SparsePoly(terms)


def parity_balanced(g: GeneratorSet) -> bool:
    """True iff S has even size and equally many odd and even members."""
    odd = sum(1 for s in g.elements if s % 2)
    return len(g.elements) % 2 == 0 and 2 * odd == len(g.elements)


def is_nut_spectral(g: GeneratorSet) -> NutVerdict:
    """Nut-ness via the spectral criterion, exactly.

    Conditions: (i) even order; (ii) a nonempty generator set with equally
    many odd and even members; (iii) for every divisor b >= 3 of n, Phi_b
    does not divide the eigenvalue polynomial. Condition (iii) is equivalent
    to P having no n-th root of unity among its roots other than 1 and -1,
    because each such root is a primitive b-th root for exactly one divisor
    b >= 3 of n. The witness on failure is the smallest failing b.
    """
    if g.n % 2:
        return NutVerdict(False, REASON_ODD_ORDER)
    if not g.elements or not parity_balanced(g):
        return NutVerdict(False, REASON_PARITY)
    p = eigen_poly(g)
    for b in divisors(g.n):
        if b >= 3 and phi_divides(p, b):
            return NutVerdict(False, REASON_SPECTRAL, witness=b)
    return NutVerdict(True, REASON_OK)


def _oracle_limit(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(ORACLE_LIMIT_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"{ORACLE_LIMIT_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_ORACLE_LIMIT


def adjacency_matrix(g: GeneratorSet) -> list[list[int]]:
    """Dense 0/1 circulant adjacency matrix of Circ(n, S)."""
    n = g.n
    offsets = set()
    for s in g.elements:
        offsets.add(s)
        offsets.add(n - s)
    first = [1 if j in offsets else 0 for j in range(n)]
    return [first[-i:] + first[:-i] for i in range(n)]


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place fraction-free row echelon; returns (matrix, pivot columns).

    One-step Bareiss: each update divides exactly by the previous pivot, so
    every intermediate entry stays an integer (a minor of the original
    matrix).
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        row_r = rows[r]
        for i in range(r + 1, n_rows):
            row_i = rows[i]
            ric = row_i[c]
            if ric:
                tail = [
                    (piv * a - ric * b) // prev
                    for a, b in zip(row_i[c + 1 :], row_r[c + 1 :])
                ]
            else:
                tail = [(piv * a) // prev for a in row_i[c + 1 :]]
            rows[i] = row_i[: c] + [0] + tail
        prev = piv
        piv_cols.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, piv_cols


def _kernel_vector_from_echelon(
    rows: list[list[int]], piv_cols: list[int], n_cols: int
) -> tuple[int, ...]:
    """Exact kernel vector for the single free column (nullity must be 1)."""
    pivot_set = set(piv_cols)
    free = next(c for c in range(n_cols) if c not in pivot_set)
    x: list[Fraction] = [Fraction(0)] * n_cols
    x[free] = Fraction(1)
    for r in range(len(piv_cols) - 1, -1, -1):
        c = piv_cols[r]
        row = rows[r]
        acc = sum((row[j] * x[j] for j in range(c + 1, n_cols) if row[j]), Fraction(0))
        x[c] = -acc / row[c]
    scale = 1
    for v in x:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    ints = [int(v * scale) for v in x]
    content = 0
    for v in ints:
        content = gcd(content, v)
    if content > 1:
        ints = [v // content for v in ints]
    first_nonzero = next((v for v in ints if v), 1)
    if first_nonzero < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def kernel_oracle(g: GeneratorSet, limit: Optional[int] = None) -> KernelReport:
    """Exact nullity of the adjacency matrix, plus the kernel vector if unique.

    Uses fraction-free integer elimination; nullity is n minus the rank. The
    order is capped (default 256, overridable via the NUTCIRC_ORACLE_LIMIT
    environment variable or the limit argument) because elimination is cubic.
    """
    cap = _oracle_limit(limit)
    if g.n > cap:
        raise CapacityError(f"order {g.n} exceeds the kernel oracle limit {cap}")
    matrix = adjacency_matrix(g)
    echelon, piv_cols = _bareiss_echelon(matrix)
    nullity = g.n - len(piv_cols)
    if nullity != 1:
        return KernelReport(nullity, None, False)
    vec = _kernel_vector_from_echelon(echelon, piv_cols, g.n)
    assert _is_in_kernel(g, vec)
    return KernelReport(1, vec, all(v != 0 for v in vec))


def _is_in_kernel(g: GeneratorSet, vec: tuple[int, ...]) -> bool:
    n = g.n
    offsets = [s for s in g.elements] + [g.n - s for s in g.elements]
    return all(sum(vec[(i + o) % n] for o in offsets) == 0 for i in range(n))


def is_nut_kernel(g: GeneratorSet, limit: Optional[int] = None) -> NutVerdict:
    """Nut-ness straight from the definition: nullity one, full-support kernel."""
    report = kernel_oracle(g, limit)
    if report.nullity != 1:
        return NutVerdict(False, REASON_NULLITY)
    if not report.full_support:
        return NutVerdict(False, REASON_KERNEL_ZERO, witness=report.kernel_vector)
    return NutVerdict(True, REASON_OK, witness=report.kernel_vector)

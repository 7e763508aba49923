"""Circulant graphs and exact nut-graph certification.

A circulant graph on n vertices is described by its generator set S, the
offsets 1 <= s < n/2 present in the first adjacency row. Nut-ness (nullity
one, kernel vector with no zero entries) is decided by two independent
routes: a spectral criterion expressed through cyclotomic divisibility of the
eigenvalue polynomial, and a null-space oracle on the adjacency matrix. The
two must always agree; tests and the acceptance suite sweep them against each
other.

The null-space oracle issues a certificate. Elimination modulo the prime
2^31 - 1, on rows packed one int per row, gives the rank mod p, and
k = n - rank_p is an upper bound on the nullity. Back substitution mod p
gives one kernel vector per free column; each is rational-reconstructed,
cleared of denominators and checked exactly against A v = 0. The k verified
vectors are independent, so the nullity is exactly k, and for k = 1 the
primitive vector is the kernel vector. If a reconstruction or a check fails,
fraction-free integer (Bareiss) elimination decides instead. No step uses
floating point, and nothing here depends on the spectral side.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from math import gcd, isqrt, lcm
from operator import mul
from typing import Optional, Union

from .errors import CapacityError, ParameterError
from .polyalg import SparsePoly, divisors, phi_divides

DEFAULT_ORACLE_LIMIT = 512
ORACLE_LIMIT_ENV = "NUTCIRC_ORACLE_LIMIT"
_PRIME = (1 << 31) - 1  # Mersenne prime of the kernel oracle's rank bound

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


def _primitive(vec: list[int]) -> tuple[int, ...]:
    """Divide out the content and make the first nonzero entry positive."""
    content = gcd(*vec)
    if content > 1:
        vec = [v // content for v in vec]
    if next((v for v in vec if v), 1) < 0:
        vec = [-v for v in vec]
    return tuple(vec)


def _kernel_vector_from_echelon(
    rows: list[list[int]], piv_cols: list[int], n_cols: int
) -> tuple[int, ...]:
    """Exact kernel vector for the single free column (nullity must be 1)."""
    # Imported here: only this fallback needs fractions, and importing it
    # (with decimal) costs every CLI start a few milliseconds.
    from fractions import Fraction

    pivot_set = set(piv_cols)
    free = next(c for c in range(n_cols) if c not in pivot_set)
    x: list[Fraction] = [Fraction(0)] * n_cols
    x[free] = Fraction(1)
    for r in range(len(piv_cols) - 1, -1, -1):
        c = piv_cols[r]
        row = rows[r]
        acc = sum((row[j] * x[j] for j in range(c + 1, n_cols) if row[j]), Fraction(0))
        x[c] = -acc / row[c]
    scale = lcm(*(v.denominator for v in x))
    return _primitive([int(v * scale) for v in x])


def _packed_rows(g: GeneratorSet) -> list[int]:
    """Adjacency rows of Circ(n, S), each packed into one int, one field per column.

    Fields are 64 bits wide and column 0 is the most significant field, so a
    row drops its leading column with one mask.
    """
    n = g.n
    first = bytearray(8 * n)
    for s in g.elements:
        first[8 * s + 7] = first[8 * (n - s) + 7] = 1
    first = bytes(first)
    return [int.from_bytes(first[-8 * i :] + first[: -8 * i], "big") for i in range(n)]


def _unpack(packed: int, count: int) -> tuple[int, ...]:
    """The `count` lowest 64-bit fields of a packed int, most significant first."""
    return struct.unpack(f">{count}Q", packed.to_bytes(8 * count, "big"))


def _eliminate_mod_p(g: GeneratorSet) -> tuple[list[tuple[int, int]], list[int]]:
    """Forward elimination of the adjacency matrix modulo the Mersenne prime _PRIME.

    Rows are packed ints with one 64-bit field per column (`_packed_rows`),
    the current column in the top field. Each pivot row is normalized to
    lead with 1, so eliminating the column from a row r with head a is the
    field-wise r + (p - a) * pivot, one multiply and one add on big ints.
    An update adds less than p^2 < 2^62 to a field, so fields need folding
    only after every third pivot: (t & LO_e) + ((t >> e) & LO_(64-e)) by
    the Mersenne identity 2^e = 1 (mod p), where LO_w holds the w low bits
    of every field. The fold leaves a field below 2^e + 2^(64-e) = 2^31 +
    2^33, and three more updates keep it below 2^64. The high mask must keep
    the whole rest of the field, 33 bits for e = 31: a 31-bit mask silently
    drops bits. After each column every row drops its top field, so rows
    shrink as the elimination proceeds.

    Returns the pivots, as (column, normalized pivot row from that column
    on, packed, with canonical residues), and the free columns. The rank mod
    p is at most the rank over Q, so n minus the number of pivots is an
    upper bound on the nullity.
    """
    p = _PRIME
    e = p.bit_length()
    n = g.n
    ones = int.from_bytes((b"\x01" + bytes(7)) * n, "little")
    lo = ones * ((1 << e) - 1)
    hi = ones * ((1 << (64 - e)) - 1)
    rows = _packed_rows(g)
    pivots: list[tuple[int, int]] = []
    free: list[int] = []
    for c in range(n):
        top = 64 * (n - c - 1)
        keep = (1 << top) - 1
        i = next((i for i, r in enumerate(rows) if (r >> top) % p), None)
        if i is None:
            free.append(c)
            for j, r in enumerate(rows):
                rows[j] = r & keep
            continue
        head = _unpack(rows.pop(i), n - c)
        inv = pow(head[0] % p, -1, p)
        piv = int.from_bytes(struct.pack(f">{n - c}Q", *[v * inv % p for v in head]), "big")
        pivots.append((c, piv))
        fold = len(pivots) % 3 == 0
        for j, r in enumerate(rows):
            if a := (r >> top) % p:
                r += (p - a) * piv
            if fold:
                r = (r & lo) + ((r >> e) & hi)
            rows[j] = r & keep
    return pivots, free


def _kernel_basis_mod_p(
    pivots: list[tuple[int, int]], free: list[int], n: int
) -> list[tuple[int, ...]]:
    """Residues of the kernel basis vectors, one per free column, mod _PRIME.

    Vector j is 1 on free column j and 0 on the other free columns. All k
    vectors are back-substituted in one pass: each unknown x_c is one int
    packed over the k vectors, vector 0 in the top field, with 128-bit
    fields so that a row's whole sum of products fits before it is reduced.
    The pass costs one big-int multiply-add per echelon entry whatever k is,
    plus k field reductions per pivot.
    """
    p = _PRIME
    k = len(free)
    xs = [0] * n
    for j, f in enumerate(free):
        xs[f] = 1 << (128 * (k - 1 - j))
    for c, piv in reversed(pivots):
        words = _unpack(sum(map(mul, _unpack(piv, n - c)[1:], xs[c + 1 :])), 2 * k)
        negated = (-(hi << 64 | lo) % p for hi, lo in zip(words[::2], words[1::2]))
        xs[c] = int.from_bytes(b"".join(v.to_bytes(16, "big") for v in negated), "big")
    return list(zip(*(_unpack(x, 2 * k)[1::2] for x in xs)))


def _rational(u: int, p: int, bound: int) -> Optional[tuple[int, int]]:
    """The fraction a/b with |a| <= bound, 0 < b <= bound and a = u b (mod p), if any.

    Extended Euclid on (p, u), stopped at the first remainder <= bound.
    With 2 bound^2 < p the fraction is unique when it exists.
    """
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _certified_report(g: GeneratorSet) -> Optional[KernelReport]:
    """The kernel report from the mod-p rank bound plus verified vectors, or None.

    k = n - rank_p bounds the nullity from above. Each free column's basis
    vector is rational-reconstructed, cleared of denominators and checked
    exactly against A v = 0. The k vectors restrict to the identity on the
    free columns, so they are independent, and if all of them verify the
    nullity is exactly k. None means a reconstruction or a check failed (an
    unlucky prime, or entries beyond the reconstruction bound).
    """
    pivots, free = _eliminate_mod_p(g)
    if not free:
        return KernelReport(0, None, False)
    p = _PRIME
    bound = isqrt((p - 1) // 2)
    basis = _kernel_basis_mod_p(pivots, free, g.n)
    rationals = {u: _rational(u, p, bound) for u in set().union(*basis)}
    if None in rationals.values():
        return None
    for residues in basis:
        pairs = [rationals[u] for u in residues]
        scale = lcm(*(b for _, b in pairs))
        vec = _primitive([a * (scale // b) for a, b in pairs])
        if not _is_in_kernel(g, vec):
            return None
    if len(free) > 1:
        return KernelReport(len(free), None, False)
    return KernelReport(1, vec, all(vec))


def _bareiss_report(g: GeneratorSet) -> KernelReport:
    """The kernel report by fraction-free elimination over the integers."""
    echelon, piv_cols = _bareiss_echelon(adjacency_matrix(g))
    nullity = g.n - len(piv_cols)
    if nullity != 1:
        return KernelReport(nullity, None, False)
    vec = _kernel_vector_from_echelon(echelon, piv_cols, g.n)
    return KernelReport(1, vec, all(v != 0 for v in vec))


def kernel_oracle(g: GeneratorSet, limit: Optional[int] = None) -> KernelReport:
    """Exact nullity of the adjacency matrix, plus the kernel vector if unique.

    The report is a certificate: the rank modulo a 31-bit prime bounds the
    nullity from above, and as many exactly verified independent kernel
    vectors bound it from below (`_certified_report`). When the certificate
    cannot be completed, fraction-free integer elimination decides instead.
    The order is capped (default 512, overridable via the
    NUTCIRC_ORACLE_LIMIT environment variable or the limit argument)
    because elimination is cubic.
    """
    cap = _oracle_limit(limit)
    if g.n > cap:
        raise CapacityError(f"order {g.n} exceeds the kernel oracle limit {cap}")
    report = _certified_report(g)
    if report is None:
        report = _bareiss_report(g)
    return report


def _is_in_kernel(g: GeneratorSet, vec: tuple[int, ...]) -> bool:
    """Exactly whether A v = 0, with all n rows checked in a few big-int additions.

    Row i of A v is the sum over offsets o of v[(i + o) mod n]. The entries,
    shifted by a bias to be nonnegative, are packed into fields wide enough
    that no row sum carries into the next field; each offset is one rotation
    of the packed bytes. A v = 0 iff every field of the sum holds exactly
    (number of offsets) * bias.
    """
    n = g.n
    offsets = [*g.elements, *(n - s for s in g.elements)]
    bias = max(map(abs, vec)) + 1
    width = (2 * max(len(offsets), 1) * bias).bit_length() // 8 + 1
    packed = b"".join((v + bias).to_bytes(width, "little") for v in vec)
    total = sum(
        int.from_bytes(packed[width * o :] + packed[: width * o], "little") for o in offsets
    )
    unit = int.from_bytes((b"\x01" + bytes(width - 1)) * n, "little")
    return total == len(offsets) * bias * unit


def is_nut_kernel(g: GeneratorSet, limit: Optional[int] = None) -> NutVerdict:
    """Nut-ness straight from the definition: nullity one, full-support kernel."""
    report = kernel_oracle(g, limit)
    if report.nullity != 1:
        return NutVerdict(False, REASON_NULLITY)
    if not report.full_support:
        return NutVerdict(False, REASON_KERNEL_ZERO, witness=report.kernel_vector)
    return NutVerdict(True, REASON_OK, witness=report.kernel_vector)

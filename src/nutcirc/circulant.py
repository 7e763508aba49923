"""Circulant graphs and exact nut-graph certification.

A circulant graph on n vertices is described by its generator set S, the
offsets 1 <= s < n/2 present in the first adjacency row. Nut-ness (nullity
one, kernel vector with no zero entries) is decided by two independent
routes: a spectral criterion expressed through cyclotomic divisibility of the
eigenvalue polynomial, and a null-space oracle on the adjacency matrix. The
two must always agree; tests and the acceptance suite sweep them against each
other.

The null-space oracle issues a certificate from one extended Euclid over
F_p on the first row a(x) and x^n - 1: the monic gcd h, of degree k, a
Bezout factor u with u a = h (mod x^n - 1), and the monic cofactor
v = (x^n - 1) / h the Euclid ends with. Checked on the adjacency rows, the
combination sum u_i row_i = h proves rank_p >= n - k, so the nullity is at
most k; v, of degree n - k, lifted to the integers and checked exactly
against A v = 0, is a kernel vector whose k cyclic shifts are independent,
so the nullity is at least k. For k = 1 the cofactor, monic and so
primitive once lifted, is the kernel vector. The certificate is tried at
two fixed primes in turn; if both fail, the oracle refuses rather than
answer unchecked. No step uses floating point, and nothing here depends on
the spectral side.
"""
from __future__ import annotations

from .errors import CapacityError, ParameterError
from .polyalg import SparsePoly, divisors, phi_fold
from .record import Record

# Size ceilings, each checked before any work; timings on a 2-core machine.
# KERNEL_MAX_ORDER bounds the kernel certificate, which is quadratic: at
# n = 2048 it takes 0.9 to 1.2 s on random degree-8 sets, 1.3 to 1.6 s on
# 50 to 1000 random offsets and 0.2 to 0.4 s on the dprime and ddprime
# members with t <= 5 (22 ms for dprime t = 3 at n = 512). Listing the
# spectral indices factors n by trial division, about 0.1 s near 10^12.
# The spectral work, terms times the sum of 2^omega(b) over those indices,
# bounds the phi_fold passes: 4118 random offsets at n = 720 720 (work
# 3.0 * 10^7) take 3 to 4 s.
KERNEL_MAX_ORDER = 2048
SPECTRAL_MAX_ORDER = 10**12
SPECTRAL_MAX_WORK = 3 * 10**7
# The kernel certificate works over F_p for each of these primes in turn.
# Below 2^30 every residue is one 30-bit CPython digit, which the
# interpreter multiplies and reduces on its single-digit paths.
_PRIMES = ((1 << 30) - 35, (1 << 30) - 41)

REASON_OK = "ok"
REASON_ODD_ORDER = "odd-order"
REASON_PARITY = "parity-imbalance"
REASON_SPECTRAL = "spectral-failure"
REASON_NULLITY = "nullity-not-one"


class GeneratorSet(Record):
    """Order n plus strictly ascending offsets, each in 1 .. ceil(n/2) - 1.

    Offsets equal to n/2 are rejected: every stored offset s contributes the
    two exponents s and n - s to the eigenvalue polynomial. Odd orders are
    representable (the nut checks report them as failures rather than
    refusing to construct the graph).
    """

    __slots__ = ("n", "elements")
    n: int
    elements: tuple[int, ...]

    def _check(self):
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


class NutVerdict(Record):
    """Decision record: nut or not, why, and the failing evidence if any.

    witness is the smallest failing cyclotomic index for spectral failures,
    and the exact kernel vector for a nut found by the kernel route.
    """

    __slots__ = ("is_nut", "reason", "witness")
    _defaults = {"witness": None}
    is_nut: bool
    reason: str
    witness: int | tuple[int, ...] | None


class KernelReport(Record):
    """Exact null-space summary of the adjacency matrix."""

    __slots__ = ("nullity", "kernel_vector")
    nullity: int
    kernel_vector: tuple[int, ...] | None


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

    Raises CapacityError, whatever the verdict, when n exceeds
    SPECTRAL_MAX_ORDER or the work, 2|S| terms times the sum of 2^omega(b)
    over the tested b, exceeds SPECTRAL_MAX_WORK. omega(b) is the number of
    primes listed with b, so no b is factored.
    """
    indices = spectral_indices(g.n)
    work = 2 * len(g.elements) * sum(1 << len(primes) for _, primes in indices)
    if work > SPECTRAL_MAX_WORK:
        raise CapacityError(
            f"spectral work {work} on order {g.n} exceeds the ceiling {SPECTRAL_MAX_WORK}"
        )
    if g.n % 2:
        return NutVerdict(False, REASON_ODD_ORDER)
    if not g.elements or not parity_balanced(g):
        return NutVerdict(False, REASON_PARITY)
    return first_obstruction(indices, [(g.n, eigen_poly(g))])


def first_obstruction(
    indices: list[tuple[int, tuple[int, ...]]], rules: list[tuple[int, SparsePoly]]
) -> NutVerdict:
    """The spectral verdict from the least b of indices whose Phi_b divides b's polynomial.

    indices holds ascending (b, primes of b) pairs, as ``spectral_indices``
    lists them. Each b is folded with its primes against the polynomial of
    the first (m, polynomial) rule with b | m; a b that no rule matches
    cannot fail. The witness on failure is the least failing b.
    """
    for b, primes in indices:
        poly = next((poly for m, poly in rules if m % b == 0), None)
        if poly is not None and not phi_fold(poly, b, primes):
            return NutVerdict(False, REASON_SPECTRAL, witness=b)
    return NutVerdict(True, REASON_OK)


def spectral_indices(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(b, primes of b) for the divisors b >= 3 of n, ascending: the Phi_b the criterion tests.

    Listing them factors n once, by trial division, so an order above
    SPECTRAL_MAX_ORDER raises CapacityError first.
    """
    if n > SPECTRAL_MAX_ORDER:
        raise CapacityError(f"order {n} exceeds the spectral order ceiling {SPECTRAL_MAX_ORDER}")
    return [(b, primes) for b, primes in divisors(n) if b >= 3]


def _trim(f: list[int]) -> list[int]:
    """Drop the zero leading coefficients of a residue list, constant term first."""
    while f and not f[-1]:
        f.pop()
    return f


def _bezout_mod_p(g: GeneratorSet, p: int) -> tuple[list[int], list[int], list[int]]:
    """(h, u, v) over F_p: h = gcd(a, x^n - 1) monic, u a = h (mod x^n - 1), h v = x^n - 1.

    a(x) = sum over s of x^s + x^(n-s) is the first adjacency row. Extended
    Euclid on (x^n - 1, a), one leading term at a time, keeps only the
    cofactors of a; the last, beside the zero remainder, is c v for a unit
    c. Polynomials are residue lists, constant term first, trimmed (`_trim`).
    """
    n = g.n
    a = [0] * n
    for s in g.elements:
        a[s] = a[n - s] = 1
    r0, r1 = [p - 1] + [0] * (n - 1) + [1], _trim(a)
    u0, u1 = [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        while len(r0) >= len(r1):
            c, d = r0[-1] * inv % p, len(r0) - len(r1)
            r0 = _trim(r0[:d] + [(x - c * y) % p for x, y in zip(r0[d:-1], r1)])
            u0 += [0] * (d + len(u1) - len(u0))
            u0[d : d + len(u1)] = [(x - c * y) % p for x, y in zip(u0[d:], u1)]
        r0, r1, u0, u1 = r1, r0, u1, u0
    v = _trim(u1)
    inv, inv_v = pow(r0[-1], -1, p), pow(v[-1], -1, p)
    return [x * inv % p for x in r0], [x * inv % p for x in u0], [x * inv_v % p for x in v]


def _certified_report(g: GeneratorSet, p: int) -> KernelReport | None:
    """The kernel report from one extended Euclid over F_p, checked on the rows, or None.

    With h, u, v from `_bezout_mod_p` and k = deg h, two exact checks bound
    the nullity from both sides:

    - nullity <= k: the row combination sum u_i row_i, which is A u since A
      is symmetric, must equal h mod p, with h(0) != 0. The rows are closed
      under the cyclic shift, so the n - k shifts x^j h (j < n - k) lie in
      the row space mod p; their lowest terms are distinct, so rank_p >=
      n - k, and the rank over Q is at least rank_p.
    - nullity >= k: the cofactor v, of degree exactly n - k, is lifted to
      the integers symmetrically (residues above p/2 become negative),
      negated if it starts negative, and checked exactly against A v = 0.
      A commutes with the cyclic shift, so its k shifts are kernel vectors
      too, with distinct top terms at n - k .. n - 1, hence independent:
      one verified vector stands for k.

    Neither check trusts the Euclid. The lift is exact whenever p is lucky:
    the gcd over Q is a monic divisor of x^n - 1, so by Gauss's lemma its
    cofactor has integer coefficients, and they are recovered while their
    height stays below p/2. v is monic, so its lift ends in 1 and has
    content 1: for k = 1 it is the primitive kernel vector. None means a
    check failed (an unlucky prime raises deg h above the nullity, or the
    cofactor is taller than p/2).
    """
    n = g.n
    h, u, v = _bezout_mod_p(g, p)
    k = len(h) - 1
    folded = (h + [0] * n)[:n]  # h mod x^n - 1; only the empty set has k = n
    folded[0] = (folded[0] + sum(h[n:])) % p
    if not h[0] or [r % p for r in _row_sums(g, (u + [0] * n)[:n])] != folded:
        return None
    if k == 0:
        return KernelReport(0, None)
    sign = -1 if 2 * v[0] > p else 1  # the reported vector starts with a positive entry
    vec = tuple(sign * (r - p if 2 * r > p else r) for r in v)
    if len(vec) != n - k + 1 or not _is_in_kernel(g, vec + (0,) * (k - 1)):
        return None
    return KernelReport(k, vec if k == 1 else None)


def kernel_oracle(g: GeneratorSet) -> KernelReport:
    """Exact nullity of the adjacency matrix, plus the kernel vector if unique.

    That vector is (1, -1, 1, ...), by an argument free of roots of unity: A
    commutes with the cyclic shift P, so P v = c v, c rational, c^n = 1, so
    c = 1 or -1; c = 1 needs A 1 = 2|S| 1 = 0, only for S empty (nullity n).

    The report is a certificate (`_certified_report`) from one extended
    Euclid over F_p: with h the gcd of the first row and x^n - 1, a Bezout
    combination of the rows equal to h bounds the nullity from above by
    k = deg h, and the Euclid's cofactor (x^n - 1) / h, verified exactly as
    a kernel vector with k independent cyclic shifts, bounds it from below.
    The first prime of _PRIMES whose certificate completes gives the
    report. If none does, CapacityError is raised: no report is ever
    returned unchecked. The certificate is quadratic in n, and an order
    above KERNEL_MAX_ORDER raises CapacityError first.
    """
    if g.n > KERNEL_MAX_ORDER:
        raise CapacityError(f"order {g.n} exceeds the kernel oracle ceiling {KERNEL_MAX_ORDER}")
    for p in _PRIMES:
        report = _certified_report(g, p)
        if report is not None:
            return report
    raise CapacityError(
        f"the kernel certificate for order {g.n} failed at all {len(_PRIMES)} primes"
    )


def _row_sums(g: GeneratorSet, vec: list[int] | tuple[int, ...]) -> list[int]:
    """A v exactly, all n rows in a few big-int additions.

    Row i of A v is the sum over offsets o of v[(i + o) mod n]. The entries,
    shifted by a bias to be nonnegative, are packed into fields wide enough
    that no row sum carries into the next field; each offset is one rotation
    of the packed bytes, and each field of the total, less (number of
    offsets) * bias, is one row sum.
    """
    n = g.n
    offsets = [*g.elements, *(n - s for s in g.elements)]
    bias = max(map(abs, vec)) + 1
    width = (2 * max(len(offsets), 1) * bias).bit_length() // 8 + 1
    packed = b"".join((v + bias).to_bytes(width, "little") for v in vec)
    total = sum(
        int.from_bytes(packed[width * o :] + packed[: width * o], "little") for o in offsets
    ).to_bytes(width * n, "little")
    shift = len(offsets) * bias
    return [int.from_bytes(total[width * i : width * (i + 1)], "little") - shift for i in range(n)]


def _is_in_kernel(g: GeneratorSet, vec: tuple[int, ...]) -> bool:
    """Exactly whether A v = 0 (`_row_sums`)."""
    return not any(_row_sums(g, vec))


def is_nut_kernel(g: GeneratorSet) -> NutVerdict:
    """Nut-ness from the kernel: nut exactly when the nullity is one.

    For a circulant the definition's kernel vector with no zero entry then
    follows: it is (1, -1, 1, ...), by the shift argument of `kernel_oracle`.
    """
    report = kernel_oracle(g)
    if report.nullity != 1:
        return NutVerdict(False, REASON_NULLITY)
    return NutVerdict(True, REASON_OK, witness=report.kernel_vector)

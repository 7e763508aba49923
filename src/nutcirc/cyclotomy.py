"""Decide which cyclotomic polynomials divide a given integer polynomial.

Two engines are provided, on two independent primitives. The oracle
decides every plausible index b by exact division (``phi_remainder``); it
is the ground truth everything else is measured against. The accelerated
engine first drops the indices that the index-reduction theorem for
lacunary polynomials rules out (removing a large prime power from b must
leave another valid index, ``filaseta_step``), then decides the rest with
the division-free ``phi_fold``. Both examine only the indices b with
euler_phi(b) <= deg p, which ``totient_candidates`` lists with their
primes; the accelerated engine folds with those and factors nothing.

The oracle divides only where an integer test lets it. Evaluation at an
integer m is a ring homomorphism Z[x] -> Z, so Phi_b | p in Z[x] gives
Phi_b(m) | p(m); at the least m >= 2 with p(m) != 0, an index b with
p(m) % Phi_b(m) != 0 cannot divide p and is dropped without a division.
The division still decides every index that passes, so the divisor set is
exact. Nearly every non-divisor fails the test. In the worst case, where
many Phi_b(m) divide p(m) by chance, the oracle divides by every candidate.

Each engine refuses an input above its ceilings with CapacityError before
it lists a candidate or evaluates p. Measured together on a 2-core machine
(Python 3.11, a fresh process per run, three runs): at its degree ceiling
of 1000 the oracle takes 0.03 s on a trinomial, on ten terms and on
(x - 2)(x^999 + x + 1), and 0.02 to 0.03 s on 400 terms or a dense
polynomial. Its worst case, a division by every candidate, costs 1.1 s on
a trinomial, 1.2 s on ten terms and 7.3 s on a dense polynomial.
Measured the same way, the accelerated engine takes 0.07 s on a trinomial
and 0.08 s on ten terms of degree 10 000 (17 MB). Its cost grows with
terms times degree, so it also bounds that product: 1.4 to 1.6 s on a
dense polynomial of degree 999 and 2.4 to 2.6 s on 100 terms of degree
10 000, both at the work ceiling.
"""
from __future__ import annotations

from math import isqrt

from .errors import CapacityError, ParameterError
from .polyalg import SparsePoly, cyclotomic_value, phi_fold, phi_remainder
from .record import Record

ORACLE_MAX_DEGREE = 1000
ACCELERATED_MAX_DEGREE = 10_000
ACCELERATED_MAX_WORK = 1_000_000  # term_count() * degree


class CycloDivisorReport(Record):
    """Complete set of indices b with Phi_b dividing the inspected polynomial."""

    __slots__ = ("divisors", "search_bound", "method")
    divisors: tuple[int, ...]
    search_bound: int  # largest index examined (0 for a constant polynomial)
    method: str  # "oracle" or "accelerated"


def totient_candidates(d: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every b >= 1 with euler_phi(b) <= d, ascending, as (b, the distinct primes of b).

    Each prime power p^k in b multiplies euler_phi(b) by (p - 1) * p^(k-1),
    so only primes p <= d + 1 (from a sieve) occur; b is built up by a
    depth-first walk over prime powers that stops once the totient exceeds d,
    and records the primes it multiplies in, ascending, as ``divisors`` does.
    """
    if d < 1:
        return []
    sieve = bytearray([1]) * (d + 2)
    for p in range(2, isqrt(d + 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
    primes = [p for p in range(2, d + 2) if sieve[p]]
    found = [(1, ())]

    def extend(b: int, phi: int, start: int, used: tuple[int, ...]) -> None:
        for i in range(start, len(primes)):
            p = primes[i]
            pb, pphi = b * p, phi * (p - 1)
            if pphi > d:
                break  # primes ascend, so every later p overshoots too
            pused = used + (p,)
            while pphi <= d:
                found.append((pb, pused))
                extend(pb, pphi, i + 1, pused)
                pb, pphi = pb * p, pphi * p

    extend(1, 1, 0, ())
    return sorted(found)


def cyclo_divisors_oracle(p: SparsePoly) -> CycloDivisorReport:
    """Ground-truth divisor set, by exact trial division.

    Phi_b has degree euler_phi(b), so only indices with euler_phi(b) <= deg p
    can divide p. Let v = p(m) at the least m >= 2 with p(m) != 0 (p has at
    most deg p roots, so the search stops). Phi_b | p in Z[x] gives
    Phi_b(m) | v, so b is kept only if Phi_b(m) divides v and then
    phi_remainder leaves zero; a chance pass costs one division and never
    changes the set. About 0.03 s at degree 1000; the worst case divides by
    every candidate, 1 s on a trinomial and 7 s dense at degree 1000. The
    cost does not follow terms times degree, so only the degree is bounded.
    """
    _check_degree(p, ORACLE_MAX_DEGREE, "oracle")
    m = 2
    while not (value := sum(c * m**e for e, c in p.terms.items())):
        m += 1
    candidates = totient_candidates(p.degree)
    found = [
        b
        for b, _ in candidates
        if value % cyclotomic_value(b, m) == 0 and phi_remainder(p, b).is_zero()
    ]
    return CycloDivisorReport(tuple(found), candidates[-1][0] if candidates else 0, "oracle")


def _check_degree(p: SparsePoly, ceiling: int, engine: str) -> None:
    """Refuse the zero polynomial, and a degree above the engine's ceiling."""
    if p.is_zero():
        raise ParameterError("zero polynomial: every cyclotomic polynomial divides it")
    if p.degree > ceiling:
        raise CapacityError(f"degree {p.degree} exceeds the {engine} engine's ceiling {ceiling}")


def filaseta_step(term_count: int, b: int, primes: tuple[int, ...]) -> list[int]:
    """Reduced indices of b for a polynomial with term_count nonzero terms.

    primes are the distinct primes of b, ascending, as ``totient_candidates``
    lists them; nothing is factored. Selects them in decreasing order until
    their (p - 2) total exceeds term_count - 2, and returns, per selected
    prime in that order, b with that prime's full power removed. If the
    total over all primes of b never exceeds term_count - 2, no reduction is
    certified and the empty list is returned. Phi_b divides the polynomial
    only if Phi_r does for at least one returned r; which one is not
    determined here.
    """
    if term_count < 1:
        raise ParameterError(f"term_count must be >= 1, got {term_count}")
    if b < 2:
        raise ParameterError(f"filaseta_step needs b >= 2, got {b}")
    reduced: list[int] = []
    total = 0
    for q in reversed(primes):
        r = b // q
        while r % q == 0:
            r //= q
        reduced.append(r)
        total += q - 2
        if total > term_count - 2:
            return reduced
    return []


def cyclo_divisors_accelerated(p: SparsePoly) -> CycloDivisorReport:
    """Same divisor set as the oracle, by index reduction and phi_fold.

    A candidate b is discarded without a test when an index reduction
    applies and none of its reduced indices is an already-confirmed divisor
    (each reduced index is smaller than b, hence already classified).
    Everything else is tested by the division-free phi_fold with b's primes.
    """
    _check_degree(p, ACCELERATED_MAX_DEGREE, "accelerated")
    terms = p.term_count()
    if terms * p.degree > ACCELERATED_MAX_WORK:
        raise CapacityError(
            f"{terms} terms times degree {p.degree} exceeds the accelerated "
            f"engine's work ceiling {ACCELERATED_MAX_WORK}"
        )
    candidates = totient_candidates(p.degree)
    found: set[int] = set()
    # Ascending order matters: every reduced index is smaller than b, so it
    # has already been classified when b is reached.
    for b, primes in candidates:
        if b >= 2:
            reduced = filaseta_step(terms, b, primes)
            if reduced and not any(r in found for r in reduced):
                continue
        if not phi_fold(p, b, primes):
            found.add(b)
    bound = candidates[-1][0] if candidates else 0
    return CycloDivisorReport(tuple(sorted(found)), bound, "accelerated")

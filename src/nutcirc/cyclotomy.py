"""Decide which cyclotomic polynomials divide a given integer polynomial.

Two engines are provided, on two independent primitives. The oracle tests
every plausible index b by exact division (``phi_remainder``); it is the
ground truth everything else is measured against. The accelerated engine
first drops the indices that the index-reduction theorem for lacunary
polynomials rules out (removing a large prime power from b must leave
another valid index, ``filaseta_step``), then decides the rest with the
division-free ``phi_divides``. Both examine only the indices b with
euler_phi(b) <= deg p, which ``totient_candidates`` lists.

Each engine refuses an input above its ceilings with CapacityError before
it lists a candidate. Measured together on a 2-core machine (Python 3.11,
a fresh process per run, two or three runs): at its degree ceiling of 1000
the oracle takes 0.8 to 1.0 s on a trinomial, 1.3 to 1.5 s on ten terms,
6.5 to 6.6 s on 400 terms and 7.8 s on a dense polynomial. The
accelerated engine takes 0.1 to 0.2 s on a trinomial or ten terms of
degree 10 000 (under 20 MB). Its cost grows with terms times degree, so it
also bounds that product: 2.5 to 3.1 s on a dense polynomial of degree 999
and 3.5 to 3.8 s on 100 terms of degree 10 000, both at the work ceiling.
"""
from __future__ import annotations

from math import isqrt

from .errors import CapacityError, ParameterError
from .polyalg import SparsePoly, phi_divides, phi_remainder, prime_factorization
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


def totient_candidates(d: int) -> list[int]:
    """Every b >= 1 with euler_phi(b) <= d, ascending.

    Each prime power p^k in b multiplies euler_phi(b) by (p - 1) * p^(k-1),
    so only primes p <= d + 1 (from a sieve) occur; b is built up by a
    depth-first walk over prime powers that stops once the totient exceeds d.
    """
    if d < 1:
        return []
    sieve = bytearray([1]) * (d + 2)
    for p in range(2, isqrt(d + 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
    primes = [p for p in range(2, d + 2) if sieve[p]]
    found = [1]

    def extend(b: int, phi: int, start: int) -> None:
        for i in range(start, len(primes)):
            p = primes[i]
            pb, pphi = b * p, phi * (p - 1)
            if pphi > d:
                break  # primes ascend, so every later p overshoots too
            while pphi <= d:
                found.append(pb)
                extend(pb, pphi, i + 1)
                pb, pphi = pb * p, pphi * p

    extend(1, 1, 0)
    return sorted(found)


def cyclo_divisors_oracle(p: SparsePoly) -> CycloDivisorReport:
    """Ground-truth divisor set, by exact trial division over all candidates.

    Phi_b has degree euler_phi(b), so only indices with euler_phi(b) <= deg p
    can divide p; each of them is tested by phi_remainder. The cost does not
    follow terms times degree (about 1 s for a trinomial, 8 s dense, both
    at degree 1000), so only the degree is bounded.
    """
    _check_degree(p, ORACLE_MAX_DEGREE, "oracle")
    candidates = totient_candidates(p.degree)
    found = [b for b in candidates if phi_remainder(p, b).is_zero()]
    return CycloDivisorReport(tuple(found), max(candidates, default=0), "oracle")


def _check_degree(p: SparsePoly, ceiling: int, engine: str) -> None:
    """Refuse the zero polynomial, and a degree above the engine's ceiling."""
    if p.is_zero():
        raise ParameterError("zero polynomial: every cyclotomic polynomial divides it")
    if p.degree > ceiling:
        raise CapacityError(f"degree {p.degree} exceeds the {engine} engine's ceiling {ceiling}")


def filaseta_step(term_count: int, b: int) -> list[int]:
    """Reduced indices of b for a polynomial with term_count nonzero terms.

    Selects the distinct primes of b in decreasing order until their (p - 2)
    total exceeds term_count - 2, then returns, per selected prime in that
    order, b with that prime's full power removed. If the total over all
    primes of b never exceeds term_count - 2, no reduction is certified and
    the empty list is returned. Phi_b divides the polynomial only if Phi_r
    does for at least one returned r; which one is not determined here.
    """
    if term_count < 1:
        raise ParameterError(f"term_count must be >= 1, got {term_count}")
    if b < 2:
        raise ParameterError(f"filaseta_step needs b >= 2, got {b}")
    factors = dict(prime_factorization(b))
    primes_desc = sorted(factors, reverse=True)
    chosen: list[int] = []
    total = 0
    for q in primes_desc:
        chosen.append(q)
        total += q - 2
        if total > term_count - 2:
            break
    else:
        return []
    return [b // q ** factors[q] for q in chosen]


def cyclo_divisors_accelerated(p: SparsePoly) -> CycloDivisorReport:
    """Same divisor set as the oracle, by index reduction and phi_divides.

    A candidate b is discarded without a test when an index reduction
    applies and none of its reduced indices is an already-confirmed divisor
    (each reduced index is smaller than b, hence already classified).
    Everything else is tested by the division-free phi_divides.
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
    for b in candidates:
        if b >= 2:
            reduced = filaseta_step(terms, b)
            if reduced and not any(r in found for r in reduced):
                continue
        if phi_divides(p, b):
            found.add(b)
    return CycloDivisorReport(tuple(sorted(found)), max(candidates, default=0), "accelerated")

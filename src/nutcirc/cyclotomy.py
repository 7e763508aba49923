"""Decide which cyclotomic polynomials divide a given integer polynomial.

Two engines are provided. The oracle enumerates every plausible index b and
tests divisibility by exact division; it is the ground truth everything else
is measured against. The accelerated engine prunes candidates first, using
the index-reduction theorem for lacunary polynomials (removing a large prime
power from b must leave another valid index) and a term-count argument that
rules out prime and twice-prime indices without any division.

Each engine refuses a polynomial above its degree ceiling with CapacityError
before it lists a candidate. Each ceiling is the degree at which lacunary
inputs take a second or two on a 2-core machine (Python 3.11): the oracle
takes 0.9-1.2 s on trinomials and 2.5 s on a ten-term polynomial of degree
1000 (6.6 s on x^2000 + x + 1); the accelerated engine 0.3-1.4 s (under
60 MB) on trinomials and ten-term polynomials of degree 10 000 (4.4 s and
142 MB on x^20000 + x + 1). The ceilings bound the degree, not the number
of terms: a dense polynomial of degree 600 takes about 4 s in either engine.
"""
from __future__ import annotations

from .errors import CapacityError, ParameterError
from .polyalg import (
    SparsePoly,
    is_prime,
    phi_divides,
    prime_factorization,
    reduce_mod_signed,
    reduce_mod_xb,
    totient_candidates,
)
from .record import Record

ORACLE_MAX_DEGREE = 1000
ACCELERATED_MAX_DEGREE = 10_000


class CycloDivisorReport(Record):
    """Complete set of indices b with Phi_b dividing the inspected polynomial."""

    __slots__ = ("divisors", "search_bound", "method")
    divisors: tuple[int, ...]
    search_bound: int  # largest index examined (0 for a constant polynomial)
    method: str  # "oracle" or "accelerated"

    def __contains__(self, b: int) -> bool:
        return b in self.divisors


class ReductionStep(Record):
    """One candidate index reduction b -> b / prime**exponent.

    condition_sum is the total of (p - 2) over the selected primes; a step is
    only emitted when that total exceeds term_count - 2.
    """

    __slots__ = ("b", "prime", "exponent", "reduced", "term_count", "condition_sum")
    b: int
    prime: int
    exponent: int
    reduced: int
    term_count: int
    condition_sum: int


def cyclo_divisors_oracle(p: SparsePoly) -> CycloDivisorReport:
    """Ground-truth divisor set, by exact trial division over all candidates.

    Phi_b has degree euler_phi(b), so only indices with euler_phi(b) <= deg p
    can divide p; each of them is tested.
    """
    candidates = _candidates(p, ORACLE_MAX_DEGREE, "oracle")
    found = [b for b in candidates if phi_divides(p, b)]
    return CycloDivisorReport(tuple(found), max(candidates, default=0), "oracle")


def _candidates(p: SparsePoly, ceiling: int, engine: str) -> list[int]:
    """totient_candidates(deg p), for a nonzero p within the engine's degree ceiling."""
    if p.is_zero():
        raise ParameterError("zero polynomial: every cyclotomic polynomial divides it")
    if p.degree > ceiling:
        raise CapacityError(f"degree {p.degree} exceeds the {engine} engine's ceiling {ceiling}")
    return totient_candidates(p.degree)


def filaseta_step(term_count: int, b: int) -> list[ReductionStep]:
    """Candidate index reductions for a polynomial with term_count nonzero terms.

    Selects the distinct primes of b in decreasing order until their (p - 2)
    total exceeds term_count - 2, then emits one step per contributing prime
    (each removing that prime's full power from b). If the total over all
    primes of b never exceeds term_count - 2, no reduction is certified and
    the empty list is returned. At least one emitted candidate is guaranteed
    to preserve divisibility; which one is not determined here.
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
    return [
        ReductionStep(
            b=b,
            prime=q,
            exponent=factors[q],
            reduced=b // q ** factors[q],
            term_count=term_count,
            condition_sum=total,
        )
        for q in chosen
    ]


def large_prime_exclusion(p: SparsePoly, q: int) -> bool:
    """Certify Phi_q and Phi_2q do not divide p, for prime q >= 7, by term count.

    Reducing p modulo x^q - 1 (resp. x^q + 1) caps the degree below q; a
    nonzero reduction that is a multiple of Phi_q (resp. Phi_2q) must then
    have exactly q nonzero terms. If both reductions are nonzero with fewer
    than q terms, neither index can divide p. Returns False whenever the
    argument is inconclusive (a zero reduction or one with >= q terms);
    intended for lacunary inputs, where the reductions stay far below q
    terms, but sound for any p.
    """
    if q < 7 or not is_prime(q):
        raise ParameterError(f"large_prime_exclusion needs a prime q >= 7, got {q}")
    plain = reduce_mod_xb(p, q)
    signed = reduce_mod_signed(p, q)
    plain_ok = not plain.is_zero() and plain.term_count() < q
    signed_ok = not signed.is_zero() and signed.term_count() < q
    return plain_ok and signed_ok


def cyclo_divisors_accelerated(p: SparsePoly) -> CycloDivisorReport:
    """Same divisor set as the oracle, with candidate pruning before division.

    A candidate b is discarded without division when (a) an index reduction
    applies and none of its reduced indices is an already-confirmed divisor
    (each reduced index is smaller than b, hence already classified), or
    (b) b is q or 2q for a prime q >= 7 and the term-count argument excludes
    both, whatever the number of terms. Everything else falls back to exact
    division.
    """
    candidates = _candidates(p, ACCELERATED_MAX_DEGREE, "accelerated")
    terms = p.term_count()
    found: set[int] = set()
    excluded: set[int] = set()
    # Ascending order matters: every reduced index is smaller than b, so it
    # has already been classified when b is reached.
    for b in candidates:
        if b in excluded:
            continue
        if b >= 2:
            steps = filaseta_step(terms, b)
            if steps and not any(s.reduced in found for s in steps):
                continue
        q = _prime_or_double_prime(b)
        if q is not None and large_prime_exclusion(p, q):
            excluded.update((q, 2 * q))
            continue
        if phi_divides(p, b):
            found.add(b)
    return CycloDivisorReport(tuple(sorted(found)), max(candidates, default=0), "accelerated")


def _prime_or_double_prime(b: int) -> int | None:
    """Return q when b is q or 2q for a prime q >= 7, else None."""
    if b >= 7 and is_prime(b):
        return b
    if b % 2 == 0 and b >= 14 and is_prime(b // 2):
        return b // 2
    return None

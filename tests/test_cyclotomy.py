"""Tests for the cyclotomic-divisor engines and the lacunary pruning machinery."""
from __future__ import annotations

import random
import tracemalloc

import pytest
from polyref import add, div_rem, evaluate, mul

from nutcirc import cyclotomy
from nutcirc.cyclotomy import (
    cyclo_divisors_accelerated,
    cyclo_divisors_oracle,
    filaseta_step,
    totient_candidates,
)
from nutcirc.errors import ParameterError
from nutcirc.families import FamilyPolyId, family_poly
from nutcirc.polyalg import (
    SparsePoly,
    cyclotomic,
    cyclotomic_value,
    divisors,
    euler_phi,
    phi_remainder,
    prime_factorization,
)

# Degree-capped polynomials whose roots are never roots of unity: the two
# quadratics and their compositions with x^3 and x^5.
Z1 = SparsePoly({10: 2, 5: 1, 0: 2})
Z2 = SparsePoly({10: 2, 5: -1, 0: 2})
Z3 = SparsePoly({6: 2, 3: 1, 0: 2})
Z4 = SparsePoly({6: 2, 3: -1, 0: 2})
ZP = SparsePoly({2: 2, 1: 1, 0: 2})
ZPP = SparsePoly({2: 2, 1: -1, 0: 2})


def test_oracle_on_x2_minus_1():
    report = cyclo_divisors_oracle(SparsePoly({2: 1, 0: -1}))
    assert report.divisors == (1, 2)
    assert report.method == "oracle"
    # The largest index with euler_phi(b) <= 2 is 6.
    assert report.search_bound == 6


def test_oracle_quadratic_with_no_unit_roots():
    assert cyclo_divisors_oracle(ZP).divisors == ()


def test_oracle_q3():
    assert cyclo_divisors_oracle(family_poly(FamilyPolyId("q", 3))).divisors == (1, 2)


def test_oracle_u2_includes_eighth_roots():
    # U_2 vanishes at the primitive eighth roots of unity: at psi^4 = -1 the
    # polynomial collapses to 2psi(psi^2-1)(psi^4+1) = 0. The divisor set is
    # {1, 2, 8}, within the {1, 2, 4, 8} cap but strictly larger than {1, 2}.
    assert cyclo_divisors_oracle(family_poly(FamilyPolyId("u", 2))).divisors == (1, 2, 8)
    assert cyclo_divisors_oracle(family_poly(FamilyPolyId("w", 2))).divisors == (1, 2, 8)


def test_oracle_rejects_zero():
    with pytest.raises(ParameterError):
        cyclo_divisors_oracle(SparsePoly())


def test_oracle_report_invariants():
    for poly in (Z1, ZP, family_poly(FamilyPolyId("q", 5))):
        report = cyclo_divisors_oracle(poly)
        for b in report.divisors:
            assert euler_phi(b) <= poly.degree
            assert div_rem(poly, cyclotomic(b))[1].is_zero()


def test_oracle_detects_roots_of_unity():
    assert not cyclo_divisors_oracle(Z1).divisors
    assert not cyclo_divisors_oracle(Z4).divisors
    assert cyclo_divisors_oracle(cyclotomic(5)).divisors == (5,)


def test_prime_factorization_holds_no_cache():
    # Each check factors its order once and hands every divisor its primes,
    # so the factorization keeps nothing between calls.
    assert not hasattr(prime_factorization, "cache_info")
    assert not hasattr(prime_factorization, "__wrapped__")


def test_cyclotomic_cache_is_bounded():
    # Phi_b is not memoized, so the oracle keeps none of the Phi_b it forms
    # for the candidates that pass its integer test; a memo of all 588
    # candidates at degree 300 would hold about 1.8 MB.
    assert not hasattr(cyclotomic, "cache_info")
    tracemalloc.start()
    try:
        cyclo_divisors_oracle(SparsePoly({300: 1, 1: 1, 0: 1}))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 512 * 1024, retained


def test_all_six_blocked_polynomials_have_empty_divisor_sets():
    for poly in (Z1, Z2, Z3, Z4, ZP, ZPP):
        assert cyclo_divisors_oracle(poly).divisors == ()


def test_totient_candidates_match_exhaustive_scan():
    # phi(b) >= sqrt(b/2), so every b with phi(b) <= d lies in 1 .. 2d^2.
    # Each b comes with its distinct primes, which the fast engine folds with.
    top = 120
    phi = [0] + [euler_phi(b) for b in range(1, 2 * top * top + 1)]
    for d in range(0, top + 1):
        assert [b for b, _ in totient_candidates(d)] == [
            b for b in range(1, 2 * d * d + 1) if phi[b] <= d
        ], d
    for b, primes in totient_candidates(top):
        assert primes == tuple(q for q, _ in prime_factorization(b)), b


def test_totient_candidates_examples():
    assert totient_candidates(0) == []
    assert totient_candidates(1) == [(1, ()), (2, (2,))]
    assert totient_candidates(2) == [(1, ()), (2, (2,)), (3, (3,)), (4, (2,)), (6, (2, 3))]
    assert [b for b, _ in totient_candidates(4)] == [1, 2, 3, 4, 5, 6, 8, 10, 12]


def _filaseta_reference(term_count: int, b: int) -> list[int]:
    """The reduction step from b alone: factor b, pick primes largest first."""
    factors = dict(prime_factorization(b))
    chosen, total = [], 0
    for q in sorted(factors, reverse=True):
        chosen.append(q)
        total += q - 2
        if total > term_count - 2:
            return [b // q ** factors[q] for q in chosen]
    return []


def test_filaseta_step_examples():
    # Six terms need a (p - 2) total above 4: 7 - 2 = 5 clears it, so 21 -> 3.
    assert filaseta_step(6, 21, (3, 7)) == [3]
    # 5 - 2 + 3 - 2 = 4 does not.
    assert filaseta_step(6, 15, (3, 5)) == []
    assert filaseta_step(3, 7, (7,)) == [1]
    # Prime powers are removed whole: 7^2 * 3 -> 3.
    assert filaseta_step(6, 147, (3, 7)) == [3]
    # Handed b's primes, the step factors nothing and agrees with factoring b.
    for b in range(2, 5001):
        primes = tuple(q for q, _ in prime_factorization(b))
        for term_count in range(1, 13):
            expected = _filaseta_reference(term_count, b)
            assert filaseta_step(term_count, b, primes) == expected, (term_count, b)


def test_filaseta_step_prime_powers_and_multiple_candidates():
    # Powers of two alone never satisfy the condition for N >= 2.
    assert filaseta_step(6, 8, (2,)) == []
    # For N=2 both primes of 35 contribute before the sum clears 0? No:
    # largest first, 7-2 = 5 > 0 already, so only one candidate appears.
    assert filaseta_step(2, 35, (5, 7)) == [5]
    # N=8 needs 5 + 3 from {7, 5} to clear 6, so both candidates appear,
    # largest prime first; N=9 needs more than 7, which 8 still is.
    assert filaseta_step(8, 35, (5, 7)) == [5, 7]
    assert filaseta_step(9, 35, (5, 7)) == [5, 7]
    assert filaseta_step(10, 35, (5, 7)) == []


def test_filaseta_step_validation():
    with pytest.raises(ParameterError):
        filaseta_step(0, 10, (2, 5))
    with pytest.raises(ParameterError):
        filaseta_step(6, 1, ())


def test_engines_agree_on_family_polynomials():
    for kind, ts in (("q", (3, 5)), ("r", (3, 5)), ("u", (2, 3)), ("w", (2, 3))):
        for t in ts:
            poly = family_poly(FamilyPolyId(kind, t))
            assert (
                cyclo_divisors_oracle(poly).divisors
                == cyclo_divisors_accelerated(poly).divisors
            )


def test_engines_agree_on_random_sparse_polynomials():
    rng = random.Random(99)
    for _ in range(60):
        terms = [
            (rng.randint(0, 14), rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))
        ]
        poly = SparsePoly(terms)
        if poly.is_zero():
            continue
        assert (
            cyclo_divisors_oracle(poly).divisors
            == cyclo_divisors_accelerated(poly).divisors
        )


def test_engines_agree_on_products_with_cyclotomic_factors():
    # Products with known cyclotomic divisors exercise the non-pruned path.
    rng = random.Random(7)
    for b in (4, 7, 9, 14, 21):
        base = cyclotomic(b)
        other = cyclotomic(rng.choice((1, 2, 3)))
        poly = mul(base, other)
        oracle = cyclo_divisors_oracle(poly).divisors
        assert b in oracle
        assert cyclo_divisors_accelerated(poly).divisors == oracle


def test_filaseta_consistency_on_divisor_chains():
    # Wherever a reduction step applies to an actual divisor index, at least
    # one reduced index must also divide: x^21 - 1 has divisor chain
    # 21 -> 3 and 7 -> 1 under removal of the prime 7.
    poly = SparsePoly({21: 1, 0: -1})
    found = set(cyclo_divisors_oracle(poly).divisors)
    assert found == {1, 3, 7, 21}
    for b in found:
        primes = tuple(p for p, _ in prime_factorization(b))
        if b < 2 or max(primes) < 7:
            continue
        reduced = filaseta_step(poly.term_count(), b, primes)
        assert reduced
        assert any(r in found for r in reduced)


# --- the oracle's integer test ---------------------------------------------
#
# Phi_b | p in Z[x] gives Phi_b(m) | p(m), so the oracle divides only where
# Phi_b(m) divides p(m), at the least m >= 2 with p(m) != 0.

X_MINUS_2 = SparsePoly({1: 1, 0: -2})
ROOT_AT_2 = mul(X_MINUS_2, SparsePoly({299: 1, 1: 1, 0: 1}))


def _divided_by_every_candidate(p: SparsePoly) -> tuple[int, ...]:
    candidates = totient_candidates(p.degree)
    return tuple(b for b, _ in candidates if div_rem(p, cyclotomic(b))[1].is_zero())


def test_oracle_integer_test_edge_cases():
    roots_at_2_and_3 = mul(mul(X_MINUS_2, SparsePoly({1: 1, 0: -3})), cyclotomic(12))
    # Phi_7(2) = 127 = p(2), so 7 passes the integer test, but Phi_7 does
    # not divide (x - 2) * x^5.
    chance_pass = add(cyclotomic(7), mul(X_MINUS_2, SparsePoly({5: 1})))
    assert evaluate(chance_pass, 2) == cyclotomic_value(7, 2) == 127
    cases = [(ROOT_AT_2, (3,)), (roots_at_2_and_3, (12,)), (chance_pass, ())]
    for poly, expected in cases:
        assert cyclo_divisors_oracle(poly).divisors == expected
        assert _divided_by_every_candidate(poly) == expected
        assert cyclo_divisors_accelerated(poly).divisors == expected


def test_oracle_divides_only_where_the_integer_test_passes(monkeypatch):
    # p(2) = 0 here, so the test runs at m = 3 and leaves few divisions.
    divided = []

    def counting(p, b):
        divided.append(b)
        return phi_remainder(p, b)

    monkeypatch.setattr(cyclotomy, "phi_remainder", counting)
    report = cyclo_divisors_oracle(ROOT_AT_2)
    assert report.divisors == (3,)
    assert len(totient_candidates(ROOT_AT_2.degree)) == 588
    assert 3 in divided and len(divided) < 20, divided


def test_engines_agree_on_large_lacunary_polynomials():
    # Seeded lacunary polynomials of degree 300 to 1000, two in three times
    # with planted cyclotomic factors: x^k - 1 (so Phi_d for every d | k)
    # or two small Phi_b. Both engines must find every planted index and
    # agree on the whole set.
    rng = random.Random(20261019)
    small = [b for b, _ in totient_candidates(24)]
    for i in range(12):
        planted: set[int] = set()
        factor = SparsePoly({0: 1})
        if i % 3 == 1:
            k = rng.randint(2, 60)
            factor = SparsePoly({k: 1, 0: -1})
            planted = {b for b, _ in divisors(k)}
        elif i % 3 == 2:
            for b in rng.sample(small, 2):
                factor = mul(factor, cyclotomic(b))
                planted.add(b)
        degree = rng.randint(300, 1000) - factor.degree
        terms = {degree: 1, 0: rng.choice((-2, -1, 1, 2))}
        for _ in range(rng.randint(1, 6)):
            terms[rng.randrange(1, degree)] = rng.choice((-3, -2, -1, 1, 2, 3))
        poly = mul(SparsePoly(terms), factor)
        oracle = cyclo_divisors_oracle(poly).divisors
        assert planted <= set(oracle), (i, sorted(planted), oracle)
        assert cyclo_divisors_accelerated(poly).divisors == oracle, i

"""Tests for the cyclotomic-divisor engines and the lacunary pruning machinery."""
from __future__ import annotations

import random

import pytest

from nutcirc.cyclotomy import (
    cyclo_divisors_accelerated,
    cyclo_divisors_oracle,
    filaseta_step,
    large_prime_exclusion,
)
from nutcirc.errors import ParameterError
from nutcirc.families import FamilyPolyId, family_poly
from nutcirc.polyalg import (
    ARITH_CACHE_SIZE,
    SparsePoly,
    cyclotomic,
    dense_div_rem,
    divisors,
    euler_phi,
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
        dense = poly.to_dense()
        for b in report.divisors:
            assert euler_phi(b) <= poly.degree
            assert dense_div_rem(dense, cyclotomic(b))[1].is_zero()


def test_oracle_detects_roots_of_unity():
    assert not cyclo_divisors_oracle(Z1).divisors
    assert not cyclo_divisors_oracle(Z4).divisors
    assert cyclo_divisors_oracle(cyclotomic(5).to_sparse()).divisors == (5,)


def test_oracle_leaves_arithmetic_caches_bounded():
    for memo in (prime_factorization, divisors, euler_phi):
        assert memo.cache_info().maxsize == ARITH_CACHE_SIZE
    euler_phi.cache_clear()
    cyclo_divisors_oracle(SparsePoly({300: 1, 1: 1, 0: 1}))
    assert euler_phi.cache_info().currsize < ARITH_CACHE_SIZE


def test_cyclotomic_cache_is_bounded():
    assert cyclotomic.cache_info().maxsize == ARITH_CACHE_SIZE
    cyclotomic.cache_clear()
    first = cyclotomic(105)
    assert cyclotomic(105) is first
    info = cyclotomic.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    cyclo_divisors_oracle(SparsePoly({300: 1, 1: 1, 0: 1}))
    assert cyclotomic.cache_info().currsize < ARITH_CACHE_SIZE


def test_all_six_blocked_polynomials_have_empty_divisor_sets():
    for poly in (Z1, Z2, Z3, Z4, ZP, ZPP):
        assert cyclo_divisors_oracle(poly).divisors == ()


def test_filaseta_step_examples():
    steps = filaseta_step(6, 21)
    assert len(steps) == 1
    step = steps[0]
    assert (step.prime, step.exponent, step.reduced) == (7, 1, 3)
    assert step.condition_sum == 5
    assert step.condition_sum > step.term_count - 2

    assert filaseta_step(6, 15) == []

    steps = filaseta_step(3, 7)
    assert len(steps) == 1
    assert (steps[0].prime, steps[0].reduced, steps[0].condition_sum) == (7, 1, 5)


def test_filaseta_step_prime_powers_and_multiple_candidates():
    # Powers of two alone never satisfy the condition for N >= 2.
    assert filaseta_step(6, 8) == []
    # For N=2 both primes of 35 contribute before the sum clears 0? No:
    # largest first, 7-2 = 5 > 0 already, so only one candidate appears.
    steps = filaseta_step(2, 35)
    assert [(s.prime, s.reduced) for s in steps] == [(7, 5)]
    # N=8 needs 5 + 3 from {7, 5} to clear 6, so both candidates appear.
    steps = filaseta_step(8, 35)
    assert [(s.prime, s.reduced) for s in steps] == [(7, 5), (5, 7)]
    assert all(s.condition_sum == 8 for s in steps)


def test_filaseta_step_validation():
    with pytest.raises(ParameterError):
        filaseta_step(0, 10)
    with pytest.raises(ParameterError):
        filaseta_step(6, 1)


def test_large_prime_exclusion_examples():
    q3 = family_poly(FamilyPolyId("q", 3))
    assert large_prime_exclusion(q3, 7) is True
    # Phi_7 itself reduces to Phi_7 (exactly 7 terms): inconclusive.
    assert large_prime_exclusion(cyclotomic(7).to_sparse(), 7) is False
    assert large_prime_exclusion(family_poly(FamilyPolyId("u", 2)), 7) is True


def test_large_prime_exclusion_validation():
    q3 = family_poly(FamilyPolyId("q", 3))
    with pytest.raises(ParameterError):
        large_prime_exclusion(q3, 5)
    with pytest.raises(ParameterError):
        large_prime_exclusion(q3, 9)
    # A 7-term input is inconclusive at q=7, not an error.
    assert large_prime_exclusion(SparsePoly({e: 1 for e in range(7)}), 7) is False


def test_large_prime_exclusion_sound_against_oracle():
    polys = [family_poly(FamilyPolyId(k, t)) for k in ("q", "r") for t in (3, 5, 7)]
    polys += [family_poly(FamilyPolyId(k, t)) for k in ("u", "w") for t in (2, 3, 4)]
    for poly in polys:
        found = set(cyclo_divisors_oracle(poly).divisors)
        for q in (7, 11, 13, 17):
            if large_prime_exclusion(poly, q):
                assert q not in found
                assert 2 * q not in found


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
        poly = (base * other).to_sparse()
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
        if b < 2 or max(p for p, _ in prime_factorization(b)) < 7:
            continue
        steps = filaseta_step(poly.term_count(), b)
        assert steps
        assert any(s.reduced in found for s in steps)

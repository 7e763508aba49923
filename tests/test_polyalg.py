"""Unit and property tests for the exact polynomial layer."""
from __future__ import annotations

import math
import random

import pytest

from nutcirc.errors import ParameterError
from nutcirc.polyalg import (
    DensePoly,
    SparsePoly,
    cyclotomic,
    dense_div_rem,
    dense_to_text,
    divisors,
    euler_phi,
    phi_divides,
    phi_remainder,
    prime_factorization,
    reduce_mod_signed,
    reduce_mod_xb,
    sparse_from_text,
    sparse_to_text,
    totient_candidates,
)

Q3 = SparsePoly({5: 2, 4: 1, 3: -1, 2: 1, 1: -1, 0: -2})
U2 = SparsePoly({8: 1, 7: 2, 5: -2, 3: 2, 1: -2, 0: -1})


def test_dense_trims_trailing_zeros():
    p = DensePoly([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert DensePoly([0, 0]).is_zero()
    assert DensePoly().degree == -1


def test_dense_div_rem_factorization():
    q, r = dense_div_rem(DensePoly([-1, 0, 1]), DensePoly([-1, 1]))
    assert q == DensePoly([1, 1])
    assert r.is_zero()


def test_dense_div_rem_q3_reduction_remainder():
    # (-3 + 3x^2) divided by Phi_3 leaves -6 - 3x.
    q, r = dense_div_rem(DensePoly([-3, 0, 3]), cyclotomic(3))
    assert q == DensePoly([3])
    assert r == DensePoly([-6, -3])


def test_dense_div_rem_ten_five_binomial_by_phi4():
    # Schoolbook long division oracle, worked by hand: x^2 = -1 at the roots,
    # so 2x^10 + x^5 + 2 = (x^2+1)*q + x; the remainder is exactly x.
    a = DensePoly([2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2])
    q, r = dense_div_rem(a, cyclotomic(4))
    assert r == DensePoly([0, 1])
    assert not r.is_zero()
    assert q * cyclotomic(4) + r == a


def test_dense_div_rem_rejects_zero_divisor():
    with pytest.raises(ParameterError):
        dense_div_rem(DensePoly([1, 1]), DensePoly())


def test_dense_div_rem_rejects_fractional_step():
    with pytest.raises(ParameterError):
        dense_div_rem(DensePoly([1, 0, 1]), DensePoly([1, 2]))


def test_dense_div_rem_round_trip_random_monic():
    rng = random.Random(20240811)
    for _ in range(200):
        a = DensePoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 12))])
        b_coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [1]
        b = DensePoly(b_coeffs)
        q, r = dense_div_rem(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_cyclotomic_small_values():
    assert cyclotomic(1) == DensePoly([-1, 1])
    assert cyclotomic(2) == DensePoly([1, 1])
    assert cyclotomic(6) == DensePoly([1, -1, 1])
    # Derived by dividing x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6.
    assert cyclotomic(12) == DensePoly([1, 0, -1, 0, 1])


def _cyclotomic_by_division(b: int, memo: dict[int, DensePoly]) -> DensePoly:
    # Reference construction: divide x^b - 1 by every lower Phi_d, d | b
    # (largest first, which keeps the intermediate quotients short).
    if b not in memo:
        quo = DensePoly([-1] + [0] * (b - 1) + [1])
        for d in reversed(divisors(b)[:-1]):
            quo, rem = dense_div_rem(quo, _cyclotomic_by_division(d, memo))
            assert rem.is_zero()
        memo[b] = quo
    return memo[b]


def test_cyclotomic_matches_division_construction():
    memo: dict[int, DensePoly] = {}
    for b in [*range(1, 501), 2310, 4620]:
        assert cyclotomic(b) == _cyclotomic_by_division(b, memo), b


def test_cyclotomic_rejects_zero():
    with pytest.raises(ParameterError):
        cyclotomic(0)


def test_cyclotomic_degree_is_totient():
    for b in range(1, 61):
        assert cyclotomic(b).degree == euler_phi(b)


def test_cyclotomic_product_over_divisors():
    for b in range(1, 61):
        product = DensePoly([1])
        for d in divisors(b):
            product = product * cyclotomic(d)
        assert product == DensePoly([-1] + [0] * (b - 1) + [1])


def test_cyclotomic_prime_power_substitution():
    # Phi_b(x) = Phi_{b/p}(x^p) whenever p^2 divides b.
    for b in range(2, 201):
        for p, e in prime_factorization(b):
            if e >= 2:
                assert cyclotomic(b) == cyclotomic(b // p).compose_xpow(p)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(2) == 1
    assert euler_phi(30) == 8


def test_euler_phi_matches_unit_count():
    for b in range(1, 301):
        assert euler_phi(b) == sum(1 for k in range(1, b + 1) if math.gcd(k, b) == 1)


def test_totient_candidates_match_exhaustive_scan():
    # phi(b) >= sqrt(b/2), so every b with phi(b) <= d lies in 1 .. 2d^2.
    top = 120
    phi = [0] + [euler_phi(b) for b in range(1, 2 * top * top + 1)]
    for d in range(0, top + 1):
        assert totient_candidates(d) == [
            b for b in range(1, 2 * d * d + 1) if phi[b] <= d
        ], d


def test_totient_candidates_examples():
    assert totient_candidates(0) == []
    assert totient_candidates(1) == [1, 2]
    assert totient_candidates(2) == [1, 2, 3, 4, 6]
    assert totient_candidates(4) == [1, 2, 3, 4, 5, 6, 8, 10, 12]


def test_phi_divides_matches_dense_division():
    rng = random.Random(20261017)
    for i in range(16):
        poly = SparsePoly(
            (rng.randint(0, 150), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(1, 10))
        )
        if i % 2:
            planted = rng.choice([b for b in range(1, 40) if euler_phi(b) <= 24])
            cofactor = SparsePoly(
                (rng.randint(0, 150 - euler_phi(planted)), rng.choice((-1, 1, 2)))
                for _ in range(rng.randint(1, 10))
            )
            poly = (cofactor.to_dense() * cyclotomic(planted)).to_sparse()
            if not cofactor.is_zero():
                assert phi_divides(poly, planted)
        dense = poly.to_dense()
        for b in totient_candidates(poly.degree):
            remainder = dense_div_rem(dense, cyclotomic(b))[1]
            assert phi_remainder(poly, b) == remainder, (sparse_to_text(poly), b)
            assert phi_divides(poly, b) == remainder.is_zero(), (sparse_to_text(poly), b)


def test_phi_divides_edge_cases():
    assert not phi_divides(SparsePoly({0: 2}), 1)
    # x^4 + 1 folds to the constant 2 modulo x^2 - 1; Phi_8 is x^4 + 1 itself.
    assert not phi_divides(SparsePoly({4: 1, 0: 1}), 2)
    assert phi_divides(SparsePoly({4: 1, 0: 1}), 8)
    assert phi_divides(SparsePoly({21: 1, 0: -1}), 7)
    assert phi_divides(SparsePoly(), 5)
    # Folding x^7 - x^2 modulo x^5 - 1 cancels it; Phi_4 leaves x^3 + 1 as -x + 1.
    assert phi_remainder(SparsePoly({7: 1, 2: -1}), 5).is_zero()
    assert phi_remainder(SparsePoly({3: 1, 0: 1}), 4) == DensePoly([1, -1])
    with pytest.raises(ParameterError):
        phi_divides(Q3, 0)


def test_reduce_mod_xb_q3():
    assert reduce_mod_xb(Q3, 3) == SparsePoly({2: 3, 0: -3})


def test_reduce_mod_xb_monomial_wraps():
    assert reduce_mod_xb(SparsePoly({7: 1}), 7) == SparsePoly({0: 1})


def test_reduce_mod_xb_u2_mod_5():
    assert reduce_mod_xb(U2, 5) == SparsePoly({0: -3, 1: -2, 2: 2, 3: 3})


def test_reduce_mod_xb_difference_divisible():
    rng = random.Random(5)
    for _ in range(100):
        b = rng.randint(1, 30)
        p = SparsePoly(
            (rng.randint(0, 90), rng.randint(-5, 5)) for _ in range(rng.randint(0, 8))
        )
        diff = p.to_dense() - reduce_mod_xb(p, b).to_dense()
        modulus = DensePoly([-1] + [0] * (b - 1) + [1])
        assert dense_div_rem(diff, modulus)[1].is_zero()


def test_reduce_mod_signed_examples():
    assert reduce_mod_signed(SparsePoly({7: 1}), 7) == SparsePoly({0: -1})
    assert reduce_mod_signed(SparsePoly({13: 2, 0: 1}), 7) == SparsePoly({6: -2, 0: 1})
    assert reduce_mod_signed(Q3, 7) == Q3


def test_reduce_mod_signed_matches_xq_plus_one():
    rng = random.Random(6)
    for _ in range(100):
        q = rng.randint(1, 20)
        p = SparsePoly(
            (rng.randint(0, 60), rng.randint(-5, 5)) for _ in range(rng.randint(0, 8))
        )
        diff = p.to_dense() - reduce_mod_signed(p, q).to_dense()
        modulus = DensePoly([1] + [0] * (q - 1) + [1])
        assert dense_div_rem(diff, modulus)[1].is_zero()


def test_sparse_collision_and_zero_handling():
    p = SparsePoly([(3, 2), (3, -2), (1, 5)])
    assert p.terms == {1: 5}
    with pytest.raises(ParameterError):
        SparsePoly([(-1, 2)])


def test_sparse_text_round_trip():
    assert sparse_to_text(Q3) == "5:2,4:1,3:-1,2:1,1:-1,0:-2"
    assert sparse_from_text("5:2,4:1,3:-1,2:1,1:-1,0:-2") == Q3
    assert sparse_to_text(SparsePoly()) == "0"
    assert sparse_from_text("0").is_zero()
    for text in ("5:2,bogus", "5:1,5:-1,3:2", "0:1,2:1", "7:1,3:1,4:1"):
        with pytest.raises(ParameterError):
            sparse_from_text(text)


def test_dense_text_round_trip():
    p = DensePoly([-2, -1, 1, -1, 1, 2])
    assert dense_to_text(p) == "-2,-1,1,-1,1,2"
    assert dense_to_text(DensePoly()) == "0"


def test_evaluate_both_representations():
    assert Q3.evaluate(1) == 0
    assert Q3.evaluate(-1) == 0
    assert Q3.to_dense().evaluate(2) == Q3.evaluate(2)

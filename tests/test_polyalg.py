"""Unit and property tests for the exact polynomial layer."""
from __future__ import annotations

import math
import random
import sys

import pytest
from polyref import add, compose_xpow, div_rem, evaluate, mul, sub, x_pow_minus_one

from nutcirc.circulant import GeneratorSet, is_nut_spectral
from nutcirc.cyclotomy import cyclo_divisors_accelerated, totient_candidates
from nutcirc.errors import ParameterError
from nutcirc.families import FamilyId, FamilyPolyId, family_nut_check, family_poly
from nutcirc.polyalg import (
    SparsePoly,
    cyclotomic,
    cyclotomic_value,
    divisors,
    euler_phi,
    phi_divides,
    phi_remainder,
    prime_factorization,
    reduce_mod_xb,
    sparse_from_text,
    sparse_to_text,
)

Q3 = SparsePoly({5: 2, 4: 1, 3: -1, 2: 1, 1: -1, 0: -2})
U2 = SparsePoly({8: 1, 7: 2, 5: -2, 3: 2, 1: -2, 0: -1})


def test_phi_remainder_x2_minus_1_by_phi1():
    # x^2 - 1 = (x + 1)(x - 1).
    a = SparsePoly({2: 1, 0: -1})
    assert phi_remainder(a, 1).is_zero()
    assert div_rem(a, cyclotomic(1)) == (SparsePoly({1: 1, 0: 1}), SparsePoly())


def test_phi_remainder_q3_reduction():
    # (-3 + 3x^2) divided by Phi_3 leaves -6 - 3x.
    a = SparsePoly({2: 3, 0: -3})
    assert phi_remainder(a, 3) == SparsePoly({1: -3, 0: -6})
    assert div_rem(a, cyclotomic(3)) == (SparsePoly({0: 3}), SparsePoly({1: -3, 0: -6}))


def test_phi_remainder_ten_five_binomial_by_phi4():
    # Schoolbook long division, worked by hand: x^2 = -1 at the roots, so
    # 2x^10 + x^5 + 2 = (x^2+1)*q + x; the remainder is exactly x.
    a = SparsePoly({10: 2, 5: 1, 0: 2})
    r = phi_remainder(a, 4)
    assert r == SparsePoly({1: 1})
    assert not r.is_zero()
    q, reference = div_rem(a, cyclotomic(4))
    assert reference == r
    assert add(mul(q, cyclotomic(4)), r) == a


def test_phi_remainder_rejects_index_below_one():
    for b in (0, -3):
        with pytest.raises(ParameterError):
            phi_remainder(Q3, b)


def test_reference_long_division_round_trip_random_monic():
    rng = random.Random(20240811)
    for _ in range(200):
        a = SparsePoly(enumerate(rng.randint(-9, 9) for _ in range(rng.randint(0, 12))))
        b_coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [1]
        b = SparsePoly(enumerate(b_coeffs))
        q, r = div_rem(a, b)
        assert add(mul(q, b), r) == a
        assert r.degree < b.degree


def test_cyclotomic_small_values():
    assert cyclotomic(1) == SparsePoly({1: 1, 0: -1})
    assert cyclotomic(2) == SparsePoly({1: 1, 0: 1})
    assert cyclotomic(6) == SparsePoly({2: 1, 1: -1, 0: 1})
    # Derived by dividing x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6.
    assert cyclotomic(12) == SparsePoly({4: 1, 2: -1, 0: 1})


def _cyclotomic_by_division(b: int, memo: dict[int, SparsePoly]) -> SparsePoly:
    # Reference construction: divide x^b - 1 by every lower Phi_d, d | b
    # (largest first, which keeps the intermediate quotients short).
    if b not in memo:
        quo = x_pow_minus_one(b)
        for d, _ in reversed(divisors(b)[:-1]):
            quo, rem = div_rem(quo, _cyclotomic_by_division(d, memo))
            assert rem.is_zero()
        memo[b] = quo
    return memo[b]


def test_cyclotomic_matches_division_construction():
    memo: dict[int, SparsePoly] = {}
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
        product = SparsePoly({0: 1})
        for d, _ in divisors(b):
            product = mul(product, cyclotomic(d))
        assert product == x_pow_minus_one(b)


def test_cyclotomic_prime_power_substitution():
    # Phi_b(x) = Phi_{b/p}(x^p) whenever p^2 divides b.
    for b in range(2, 201):
        for p, e in prime_factorization(b):
            if e >= 2:
                assert cyclotomic(b) == compose_xpow(cyclotomic(b // p), p)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(2) == 1
    assert euler_phi(30) == 8
    with pytest.raises(ParameterError, match="euler_phi needs b >= 1, got 0"):
        euler_phi(0)
    with pytest.raises(ParameterError, match="cannot factor 0"):
        prime_factorization(0)


def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
    """The reference factorization: trial division by every d >= 2, in one loop."""
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        if e:
            out.append((d, e))
        d += 1
    return tuple(out) + (((n, 1),) if n > 1 else ())


def test_prime_factorization_matches_trial_division():
    for n in [*range(1, 20_001), 2**40, 963_761_198_400]:
        assert prime_factorization(n) == _trial_division(n), n


def test_each_check_factors_its_order_once(monkeypatch):
    # The divisors of n carry their primes, so a spectral or family check
    # factors n once and no divisor b again: at b = p, a second trial
    # division of the large prime p would cost as much as the first.
    calls = []

    def counted(n):
        calls.append(n)
        return factor(n)

    factor = prime_factorization
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "nutcirc" and hasattr(module, "prime_factorization"):
            monkeypatch.setattr(module, "prime_factorization", counted)
    n = 2 * 499_999_999_979
    assert is_nut_spectral(GeneratorSet(n, (1, 2, 3, 4))).is_nut
    assert calls == [n]
    calls.clear()
    assert family_nut_check(FamilyId("dprime", 3, 963_761_198_400)).is_nut
    assert calls == [963_761_198_400]
    # The fast divisor engine folds with the primes its candidates carry,
    # so it factors nothing at all.
    calls.clear()
    assert cyclo_divisors_accelerated(SparsePoly({10_000: 1, 1: 1, 0: 1})).divisors == ()
    assert cyclo_divisors_accelerated(family_poly(FamilyPolyId("q", 4_999))).divisors == (1, 2)
    assert calls == []


def test_divisors_carry_their_primes():
    # Each divisor b of n, ascending, comes with the distinct primes of b,
    # which phi_fold is handed in place of factoring b.
    def primes_of(b):
        return tuple(q for q, _ in prime_factorization(b))

    small = {b: primes_of(b) for b in range(1, 20_001)}
    for n in [*range(1, 20_001), 2**40, 720_720, 963_761_198_400, 2 * 499_999_999_979]:
        listed = divisors(n)
        assert len(listed) == math.prod(e + 1 for _, e in prime_factorization(n)), n
        assert all(b < c for (b, _), (c, _) in zip(listed, listed[1:])), n
        for b, primes in listed:
            assert n % b == 0 and primes == (small.get(b) or primes_of(b)), (n, b)


def test_euler_phi_matches_unit_count():
    for b in range(1, 301):
        assert euler_phi(b) == sum(1 for k in range(1, b + 1) if math.gcd(k, b) == 1)


def test_phi_divides_matches_dense_division():
    # Beyond the small indices: three or more primes (210, 2310) and prime
    # powers (128, 243, 343), each planted once and tested on every input.
    large = (128, 210, 243, 343, 2310)
    small = [b for b in range(1, 40) if euler_phi(b) <= 24]
    rng = random.Random(20261017)
    for i in range(16 + len(large)):
        poly = SparsePoly(
            (rng.randint(0, 150), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(1, 10))
        )
        if i % 2 or i >= 16:
            planted = large[i - 16] if i >= 16 else rng.choice(small)
            cofactor = SparsePoly(
                (rng.randint(0, max(0, 150 - euler_phi(planted))), rng.choice((-1, 1, 2)))
                for _ in range(rng.randint(1, 10))
            )
            poly = mul(cofactor, cyclotomic(planted))
            if not cofactor.is_zero():
                assert phi_divides(poly, planted)
        for b in sorted({b for b, _ in totient_candidates(min(poly.degree, 150))} | set(large)):
            remainder = div_rem(poly, cyclotomic(b))[1]
            assert phi_remainder(poly, b) == remainder, (sparse_to_text(poly), b)
            assert phi_divides(poly, b) == remainder.is_zero(), (sparse_to_text(poly), b)


def test_cyclotomic_and_remainder_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def from_sympy(poly) -> SparsePoly:
        return SparsePoly((e, int(c)) for (e,), c in sympy.Poly(poly, x).as_dict().items())

    def to_sympy(p: SparsePoly):
        return sympy.Poly.from_dict({(e,): c for e, c in p.terms.items()}, x)

    for b in range(1, 301):
        assert cyclotomic(b) == from_sympy(sympy.cyclotomic_poly(b, x)), b
    rng = random.Random(20261019)
    indices = [b for b, _ in totient_candidates(150)]
    for i in range(50):
        b = rng.choice(indices)
        phi_b = sympy.Poly(sympy.cyclotomic_poly(b, x), x)
        degree = 150 - euler_phi(b) if i % 2 else 150
        poly = to_sympy(
            SparsePoly(
                (rng.randint(0, degree), rng.choice((-3, -2, -1, 1, 2, 3)))
                for _ in range(rng.randint(1, 10))
            )
        )
        if i % 2:
            poly *= phi_b
        expected = from_sympy(sympy.rem(poly, phi_b))
        assert phi_remainder(from_sympy(poly), b) == expected, (b, i)
        assert expected.is_zero() or not i % 2


def test_cyclotomic_value_matches_evaluation_and_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for b in range(1, 301):
        phi_b = sympy.cyclotomic_poly(b, x, polys=True)
        for m in (2, 3, 10):
            value = cyclotomic_value(b, m)
            assert value == evaluate(cyclotomic(b), m) == int(phi_b.eval(m)), (b, m)


def test_cyclotomic_value_rejects_small_arguments():
    # Phi_1(1) = 0: at m = 1 the Moebius product would divide by zero.
    for b, m in ((0, 2), (-3, 2), (1, 1), (5, 0), (4, -2)):
        with pytest.raises(ParameterError):
            cyclotomic_value(b, m)


def test_phi_divides_edge_cases():
    assert not phi_divides(SparsePoly({0: 2}), 1)
    # x^4 + 1 folds to the constant 2 modulo x^2 - 1; Phi_8 is x^4 + 1 itself.
    assert not phi_divides(SparsePoly({4: 1, 0: 1}), 2)
    assert phi_divides(SparsePoly({4: 1, 0: 1}), 8)
    assert phi_divides(SparsePoly({21: 1, 0: -1}), 7)
    assert phi_divides(SparsePoly(), 5)
    # Folding x^7 - x^2 modulo x^5 - 1 cancels it; Phi_4 leaves x^3 + 1 as -x + 1.
    assert phi_remainder(SparsePoly({7: 1, 2: -1}), 5).is_zero()
    assert phi_remainder(SparsePoly({3: 1, 0: 1}), 4) == SparsePoly({1: -1, 0: 1})
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
        diff = sub(p, reduce_mod_xb(p, b))
        assert div_rem(diff, x_pow_minus_one(b))[1].is_zero()


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


def test_evaluate_both_representations():
    assert evaluate(Q3, 1) == 0
    assert evaluate(Q3, -1) == 0
    # A map and a list of pairs build the same polynomial.
    assert evaluate(SparsePoly(sorted(Q3.terms.items())), 2) == evaluate(Q3, 2) == 72

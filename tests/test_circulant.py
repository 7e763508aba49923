"""Tests for circulant graph modeling and both nut-ness routes."""
from __future__ import annotations

import random

import pytest

from nutcirc import circulant
from nutcirc.circulant import (
    GeneratorSet,
    adjacency_matrix,
    eigen_poly,
    is_nut_kernel,
    is_nut_spectral,
    kernel_oracle,
    parity_balanced,
)
from nutcirc.errors import CapacityError, ParameterError
from nutcirc.families import FamilyId, build_family
from nutcirc.polyalg import SparsePoly, reduce_mod_xb

NUT_12REG = GeneratorSet(16, (1, 2, 4, 5, 6, 7))


def test_generator_set_validation():
    with pytest.raises(ParameterError):
        GeneratorSet(16, (1, 2, 16))
    with pytest.raises(ParameterError):
        GeneratorSet(16, (1, 8))  # n/2 is excluded
    with pytest.raises(ParameterError):
        GeneratorSet(16, (2, 1))
    with pytest.raises(ParameterError):
        GeneratorSet(16, (1, 1, 2))
    with pytest.raises(ParameterError):
        GeneratorSet(1, ())
    # Odd orders construct fine; the nut checks reject them with a reason.
    GeneratorSet(9, (1, 2, 4))


def test_eigen_poly_examples():
    assert eigen_poly(GeneratorSet(8, (2, 3))) == SparsePoly({2: 1, 3: 1, 5: 1, 6: 1})
    assert eigen_poly(GeneratorSet(6, (1, 2))) == SparsePoly({1: 1, 2: 1, 4: 1, 5: 1})
    assert eigen_poly(GeneratorSet(14, (1, 4, 5, 6))) == SparsePoly(
        {1: 1, 4: 1, 5: 1, 6: 1, 8: 1, 9: 1, 10: 1, 13: 1}
    )


def test_eigen_poly_term_count_and_row_sum():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(6, 30, 2)
        pool = list(range(1, n // 2))
        k = rng.randint(1, len(pool))
        g = GeneratorSet(n, tuple(sorted(rng.sample(pool, k))))
        p = eigen_poly(g)
        assert p.term_count() == 2 * len(g.elements)
        assert p.evaluate(1) == g.degree


def test_eigen_poly_trace_is_zero():
    # Constant coefficient of P mod x^n - 1 vanishes: the graph has no loops.
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randrange(6, 30, 2)
        pool = list(range(1, n // 2))
        g = GeneratorSet(n, tuple(sorted(rng.sample(pool, rng.randint(1, len(pool))))))
        reduced = reduce_mod_xb(eigen_poly(g), n)
        assert reduced.terms.get(0, 0) == 0


def test_parity_balanced_examples():
    assert parity_balanced(GeneratorSet(16, (1, 2, 4, 5, 6, 7)))
    assert not parity_balanced(GeneratorSet(8, (1, 3)))
    assert parity_balanced(GeneratorSet(14, (1, 4, 5, 6)))


def test_is_nut_spectral_known_nut():
    verdict = is_nut_spectral(NUT_12REG)
    assert verdict.is_nut and verdict.reason == "ok" and verdict.witness is None


def test_is_nut_spectral_odd_order():
    verdict = is_nut_spectral(GeneratorSet(9, (1, 2)))
    assert not verdict.is_nut
    assert verdict.reason == "odd-order"


def test_is_nut_spectral_imbalance_and_empty():
    assert is_nut_spectral(GeneratorSet(8, (1, 3))).reason == "parity-imbalance"
    assert is_nut_spectral(GeneratorSet(8, ())).reason == "parity-imbalance"


def test_is_nut_spectral_half_order_duplication():
    # Degree 12 at order 14: the first 7 adjacency rows repeat the last 7.
    verdict = is_nut_spectral(GeneratorSet(14, (1, 2, 3, 4, 5, 6)))
    assert not verdict.is_nut


def test_is_nut_spectral_octahedron_witness():
    verdict = is_nut_spectral(GeneratorSet(6, (1, 2)))
    assert not verdict.is_nut
    assert verdict.reason == "spectral-failure"
    # P = x + x^2 + x^4 + x^5 survives the primitive cube roots (value -2)
    # and dies exactly at the primitive sixth roots, so the witness is 6.
    assert verdict.witness == 6


def test_kernel_oracle_unique_full_support():
    report = kernel_oracle(NUT_12REG)
    assert report.nullity == 1
    assert report.full_support
    assert report.kernel_vector == tuple((-1) ** i for i in range(16))


def test_kernel_oracle_four_cycle():
    report = kernel_oracle(GeneratorSet(4, (1,)))
    assert report.nullity == 2
    assert report.kernel_vector is None
    assert not report.full_support


def test_kernel_oracle_octahedron():
    assert kernel_oracle(GeneratorSet(6, (1, 2))).nullity == 3


def test_kernel_oracle_capacity():
    with pytest.raises(CapacityError):
        kernel_oracle(GeneratorSet(300, (1, 2)), limit=256)
    with pytest.raises(CapacityError):
        kernel_oracle(GeneratorSet(12, (1, 2)), limit=10)


def test_kernel_oracle_env_override(monkeypatch):
    monkeypatch.setenv("NUTCIRC_ORACLE_LIMIT", "8")
    with pytest.raises(CapacityError):
        kernel_oracle(GeneratorSet(10, (3, 4)))
    monkeypatch.setenv("NUTCIRC_ORACLE_LIMIT", "16")
    assert kernel_oracle(GeneratorSet(10, (3, 4))).nullity == 1


def test_is_nut_kernel_examples():
    assert is_nut_kernel(NUT_12REG).is_nut
    verdict = is_nut_kernel(GeneratorSet(4, (1,)))
    assert not verdict.is_nut and verdict.reason == "nullity-not-one"
    assert is_nut_kernel(GeneratorSet(10, (3, 4))).is_nut


def test_adjacency_matrix_is_symmetric_circulant():
    g = GeneratorSet(10, (1, 4))
    m = adjacency_matrix(g)
    assert all(m[i][i] == 0 for i in range(10))
    assert all(m[i][j] == m[j][i] for i in range(10) for j in range(10))
    assert all(sum(row) == g.degree for row in m)
    assert all(m[i][(i + 1) % 10] == 1 for i in range(10))


def test_spectral_and_kernel_agree_on_random_sets():
    rng = random.Random(20)
    for _ in range(120):
        n = rng.randrange(4, 21, 2)
        pool = list(range(1, n // 2))
        if not pool:
            continue
        g = GeneratorSet(n, tuple(sorted(rng.sample(pool, rng.randint(1, len(pool))))))
        assert is_nut_spectral(g).is_nut == is_nut_kernel(g).is_nut


def test_nullity_equals_totient_weighted_divisor_count():
    # Eigenvalues group by the multiplicative order b of the evaluation
    # point; the whole group vanishes iff Phi_b divides P. So the nullity is
    # the sum of euler_phi(b) over divisors b of n with Phi_b | P.
    from nutcirc.polyalg import cyclotomic, dense_div_rem, divisors, euler_phi

    rng = random.Random(22)
    for _ in range(60):
        n = rng.randrange(4, 21, 2)
        pool = list(range(1, n // 2))
        g = GeneratorSet(n, tuple(sorted(rng.sample(pool, rng.randint(1, len(pool))))))
        dense = eigen_poly(g).to_dense()
        predicted = sum(
            euler_phi(b)
            for b in divisors(n)
            if dense_div_rem(dense, cyclotomic(b))[1].is_zero()
        )
        assert kernel_oracle(g).nullity == predicted


def test_kernel_nullity_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(21)
    for _ in range(12):
        n = rng.randrange(4, 15)
        pool = list(range(1, (n + 1) // 2))
        if not pool:
            continue
        g = GeneratorSet(n, tuple(sorted(rng.sample(pool, rng.randint(1, len(pool))))))
        expected = len(sympy.Matrix(adjacency_matrix(g)).nullspace())
        assert kernel_oracle(g).nullity == expected


# --- the certified kernel oracle against the Bareiss reference ---------------


def _random_circulants(seed, count, n_max):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, n_max + 1)
        pool = list(range(1, (n + 1) // 2))
        yield GeneratorSet(n, tuple(sorted(rng.sample(pool, rng.randint(0, len(pool))))))


def _family_members(t_max, n_max):
    for t in range(1, t_max + 1):
        if t % 2:
            for n in range(4 * t + 4, n_max + 1, 4):
                yield build_family(FamilyId("dprime", t, n))
        for n in range(4 * t + 6, n_max + 1, 4):
            yield build_family(FamilyId("ddprime", t, n))


def test_certificate_matches_bareiss_on_random_circulants():
    nullities = set()
    for g in _random_circulants(seed=31, count=250, n_max=64):
        reference = circulant._bareiss_report(g)
        assert circulant._certified_report(g) == reference, g
        assert kernel_oracle(g) == reference, g
        nullities.add(min(reference.nullity, 2))
    assert nullities == {0, 1, 2}


def test_certificate_matches_bareiss_on_family_members():
    members = list(_family_members(t_max=5, n_max=72))
    assert len(members) > 40
    for g in members:
        reference = circulant._bareiss_report(g)
        assert reference.nullity == 1 and reference.full_support, g
        assert circulant._certified_report(g) == reference, g


def test_tiny_prime_falls_back_to_bareiss(monkeypatch):
    # Modulo 7, ranks drop and reconstructions (bound 1) fail often; every
    # report must still be the exact one.
    monkeypatch.setattr(circulant, "_PRIME", 7)
    unlucky_rank = failed_certificate = 0
    for g in _random_circulants(seed=3, count=600, n_max=40):
        reference = circulant._bareiss_report(g)
        assert kernel_oracle(g) == reference, g
        _, free = circulant._eliminate_mod_p(g)
        assert len(free) >= reference.nullity, g
        if len(free) > reference.nullity:
            unlucky_rank += 1
        elif circulant._certified_report(g) is None:
            failed_certificate += 1
    assert unlucky_rank > 0 and failed_certificate > 0


def test_rejected_vectors_fall_back_to_bareiss(monkeypatch):
    monkeypatch.setattr(circulant, "_is_in_kernel", lambda g, vec: False)
    cases = [NUT_12REG, GeneratorSet(4, (1,)), GeneratorSet(6, (1, 2)), GeneratorSet(10, (3, 4))]
    cases += list(_random_circulants(seed=5, count=60, n_max=30))
    for g in cases:
        reference = circulant._bareiss_report(g)
        if reference.nullity:
            assert circulant._certified_report(g) is None, g
        assert kernel_oracle(g) == reference, g


@pytest.mark.parametrize("elements, nullity", [((16, 48, 80, 112), 224), ((32, 96), 192)])
def test_high_nullity_at_order_256(elements, nullity):
    g = GeneratorSet(256, elements)
    report = kernel_oracle(g)
    assert report == circulant.KernelReport(nullity, None, False)
    assert report == circulant._bareiss_report(g)


def test_is_in_kernel_matches_row_sums():
    rng = random.Random(41)
    for g in _random_circulants(seed=42, count=80, n_max=40):
        offsets = [*g.elements, *(g.n - s for s in g.elements)]
        for _ in range(4):
            size = rng.choice((1, 3, 1 << 20, 1 << 70))
            vec = tuple(rng.randint(-size, size) for _ in range(g.n))
            rows_vanish = all(
                sum(vec[(i + o) % g.n] for o in offsets) == 0 for i in range(g.n)
            )
            assert circulant._is_in_kernel(g, vec) == rows_vanish
        report = kernel_oracle(g)
        if report.nullity == 1:
            big = tuple(v * (1 << 64) for v in report.kernel_vector)
            assert circulant._is_in_kernel(g, big)
            nudged = (big[0] + 1,) + big[1:]
            assert not circulant._is_in_kernel(g, nudged)


def test_default_oracle_limit_is_512(monkeypatch):
    monkeypatch.delenv("NUTCIRC_ORACLE_LIMIT", raising=False)
    assert circulant.DEFAULT_ORACLE_LIMIT == 512
    with pytest.raises(CapacityError):
        kernel_oracle(GeneratorSet(514, (1, 2)))

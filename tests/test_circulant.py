"""Tests for circulant graph modeling and both nut-ness routes."""
from __future__ import annotations

import random
import tracemalloc

import pytest
from kernelref import adjacency_matrix, bareiss_report
from polyref import div_rem, evaluate

from nutcirc import circulant
from nutcirc.circulant import (
    GeneratorSet,
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
        assert evaluate(p, 1) == g.degree


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


def test_spectral_ceilings_are_inclusive(monkeypatch):
    # NUT_12REG: 12 terms; the divisors 4, 8 and 16 of 16 have one prime each,
    # so the work is 12 * (2 + 2 + 2) = 72.
    monkeypatch.setattr(circulant, "SPECTRAL_MAX_ORDER", 16)
    monkeypatch.setattr(circulant, "SPECTRAL_MAX_WORK", 72)
    assert is_nut_spectral(NUT_12REG).is_nut
    monkeypatch.setattr(circulant, "SPECTRAL_MAX_WORK", 71)
    with pytest.raises(CapacityError, match="spectral work 72 on order 16 exceeds the ceiling 71"):
        is_nut_spectral(NUT_12REG)
    # Over a ceiling, shortcut verdicts (odd order, imbalance) are refused too.
    for g in (GeneratorSet(17, (1, 2)), GeneratorSet(18, (1, 3))):
        with pytest.raises(CapacityError, match=f"order {g.n} exceeds the spectral order ceiling 16"):
            is_nut_spectral(g)


def test_spectral_ceilings_refuse_before_factoring_or_testing():
    # Factoring this order by trial division takes over a minute.
    with pytest.raises(CapacityError, match="spectral order ceiling"):
        is_nut_spectral(GeneratorSet(2 * 10**18 + 6, (1, 2)))
    # 720720 has 240 divisors, 238 of them >= 3, and the sum of 2^omega(b)
    # over those is 3642; {1..4120} is balanced with 8240 terms, so the work
    # is 30 010 080, just above the ceiling.
    g = GeneratorSet(720720, tuple(range(1, 4121)))
    assert circulant.SPECTRAL_MAX_WORK == 3 * 10**7
    with pytest.raises(CapacityError, match="spectral work 30010080 on order 720720"):
        is_nut_spectral(g)


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


def test_kernel_oracle_capacity(monkeypatch):
    # The ceiling is inclusive: order 10 runs at a ceiling of 10, order 11 does not.
    monkeypatch.setattr(circulant, "KERNEL_MAX_ORDER", 10)
    assert kernel_oracle(GeneratorSet(10, (3, 4))).nullity == 1
    assert is_nut_kernel(GeneratorSet(10, (3, 4))).is_nut
    for check in (kernel_oracle, is_nut_kernel):
        with pytest.raises(CapacityError, match="order 11 exceeds the kernel oracle ceiling 10"):
            check(GeneratorSet(11, (1, 2)))


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
    from nutcirc.polyalg import cyclotomic, divisors, euler_phi

    rng = random.Random(22)
    for _ in range(60):
        n = rng.randrange(4, 21, 2)
        pool = list(range(1, n // 2))
        g = GeneratorSet(n, tuple(sorted(rng.sample(pool, rng.randint(1, len(pool))))))
        p = eigen_poly(g)
        predicted = sum(
            euler_phi(b) for b in divisors(n) if div_rem(p, cyclotomic(b))[1].is_zero()
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
        basis = sympy.Matrix(adjacency_matrix(g)).nullspace()
        reference = bareiss_report(g)
        assert kernel_oracle(g).nullity == reference.nullity == len(basis)
        if len(basis) == 1:
            # The reference vector spans the same line as sympy's.
            pair = sympy.Matrix.hstack(basis[0], sympy.Matrix(reference.kernel_vector))
            assert pair.rank() == 1, g


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
        reference = bareiss_report(g)
        for p in circulant._PRIMES:
            assert circulant._certified_report(g, p) == reference, (g, p)
        assert kernel_oracle(g) == reference, g
        nullities.add(min(reference.nullity, 2))
        if reference.nullity == 1:
            # Only a real root of unity can be a simple zero of the real a(x)
            # (a non-real one brings its conjugate), and a(1) = 2|S| != 0,
            # so the kernel is spanned by the powers of -1.
            assert reference.kernel_vector == tuple((-1) ** i for i in range(g.n)), g
    assert nullities == {0, 1, 2}


def test_certificate_matches_bareiss_on_family_members():
    members = list(_family_members(t_max=5, n_max=72))
    assert len(members) > 40
    for g in members:
        reference = bareiss_report(g)
        assert reference.nullity == 1 and reference.full_support, g
        for p in circulant._PRIMES:
            assert circulant._certified_report(g, p) == reference, (g, p)


def test_tiny_prime_falls_back_to_bareiss(monkeypatch):
    # Modulo 3 and 5, gcds gain factors and lifts (entries up to 1 and 2)
    # fail often. The oracle tries the next prime and, when every prime
    # fails, refuses: a report it returns is always the exact one.
    monkeypatch.setattr(circulant, "_PRIMES", (3, 5))
    outcomes = {"first": 0, "second": 0, "refused": 0}
    for g in _random_circulants(seed=3, count=600, n_max=40):
        reference = bareiss_report(g)
        for p in (3, 5):
            h = circulant._bezout_mod_p(g, p)[0]
            assert len(h) - 1 >= reference.nullity, (g, p)
        try:
            assert kernel_oracle(g) == reference, g
        except CapacityError:
            outcomes["refused"] += 1
            continue
        outcomes["first" if circulant._certified_report(g, 3) else "second"] += 1
    assert all(outcomes.values()), outcomes


def test_rejected_vectors_fall_back_to_bareiss(monkeypatch):
    # With every kernel vector rejected, a nonzero nullity cannot be
    # certified and is refused; nullity zero needs no vector.
    monkeypatch.setattr(circulant, "_is_in_kernel", lambda g, vec: False)
    cases = [NUT_12REG, GeneratorSet(4, (1,)), GeneratorSet(6, (1, 2)), GeneratorSet(10, (3, 4))]
    cases += list(_random_circulants(seed=5, count=60, n_max=30))
    for g in cases:
        reference = bareiss_report(g)
        if not reference.nullity:
            assert kernel_oracle(g) == reference, g
            continue
        for p in circulant._PRIMES:
            assert circulant._certified_report(g, p) is None, (g, p)
        with pytest.raises(CapacityError, match=f"kernel certificate for order {g.n} failed at all 2 primes"):
            kernel_oracle(g)


def _pivot_columns_mod(rows, p):
    # Plain Gauss-Jordan elimination mod p over every column.
    rows = [[v % p for v in row] for row in rows]
    columns = []
    for c in range(len(rows[0])):
        i = next((i for i, row in enumerate(rows) if row[c]), None)
        if i is None:
            continue
        pivot = rows.pop(i)
        inv = pow(pivot[c], -1, p)
        rows = [[(a - row[c] * inv * b) % p for a, b in zip(row, pivot)] for row in rows]
        columns.append(c)
    return columns


def test_gcd_degree_is_the_corank_mod_p():
    # The rows span the ideal of h = gcd(a, x^n - 1) in F_p[x]/(x^n - 1), so
    # over any prime field deg h = n - rank_p, u combines the rows into h,
    # and the monic v of degree n - deg h is the cofactor (x^n - 1) / h.
    for p in (2, 3, 7, *circulant._PRIMES):
        for g in _random_circulants(seed=41, count=60, n_max=40):
            rows = adjacency_matrix(g)
            h, u, v = circulant._bezout_mod_p(g, p)
            assert h[-1] == 1 and len(h) - 1 == g.n - len(_pivot_columns_mod(rows, p)), (g, p)
            assert v[-1] == 1 and len(v) - 1 == g.n - (len(h) - 1), (g, p)
            product = [0] * (g.n + 1)
            for i, x in enumerate(h):
                for j, y in enumerate(v):
                    product[i + j] = (product[i + j] + x * y) % p
            assert product == [p - 1] + [0] * (g.n - 1) + [1], (g, p)
            u = (u + [0] * g.n)[: g.n]
            combined = [sum(c * row[j] for c, row in zip(u, rows)) % p for j in range(g.n)]
            assert [r % p for r in circulant._row_sums(g, u)] == combined, (g, p)
            if g.elements:
                assert combined == h + [0] * (g.n - len(h)), (g, p)


# Each forgery receives the forged function's result and, for
# _bezout_mod_p(g, p), the prime.
FORGERIES = {
    "wrong-bezout-factor": (
        "_bezout_mod_p",
        lambda huv, p: (huv[0], [(huv[1][0] + 1) % p] + huv[1][1:], huv[2]),
    ),
    "gcd-degree-too-high": (
        "_bezout_mod_p",
        lambda huv, p: ([(b - a) % p for a, b in zip(huv[0] + [0], [0] + huv[0])], *huv[1:]),
    ),
    "gcd-degree-too-low": ("_bezout_mod_p", lambda huv, p: ([1], *huv[1:])),
    "shifted-kernel-vector": ("_bezout_mod_p", lambda huv, p: (*huv[:2], [0] + huv[2])),
    "nudged-kernel-vector": ("_primitive", lambda vec: (vec[0] + 1,) + vec[1:]),
}


@pytest.mark.parametrize("name, forge", FORGERIES.values(), ids=list(FORGERIES))
def test_forged_certificates_are_refused(monkeypatch, name, forge):
    # Each forgery (u + e_0, h (x - 1), h = 1, x v, one entry + 1) breaks
    # the Bezout row check, the degree of v or the exact kernel check at
    # every prime, so the oracle refuses. x v is still a kernel vector, but
    # its shifts wrap around. Every case has a nonzero nullity, and the
    # first three have nullity one.
    cases = [NUT_12REG, GeneratorSet(10, (3, 4)), build_family(FamilyId("ddprime", 3, 46))]
    cases += [GeneratorSet(6, (1, 2)), GeneratorSet(32, (4, 12))]
    references = [bareiss_report(g) for g in cases]
    original = getattr(circulant, name)
    monkeypatch.setattr(circulant, name, lambda *args: forge(original(*args), *args[1:]))
    for g, reference in zip(cases, references):
        assert reference.nullity > 0
        for p in circulant._PRIMES:
            assert circulant._certified_report(g, p) is None, (g, p)
        with pytest.raises(CapacityError, match="kernel certificate"):
            kernel_oracle(g)


@pytest.mark.parametrize("elements", [(16, 48, 80, 112), (32, 96)])
def test_certificate_allocates_under_half_of_bareiss(elements):
    # One verified vector stands for the whole kernel, whatever the nullity.
    g = GeneratorSet(256, elements)
    reports, peaks = [], []
    for report in (kernel_oracle, bareiss_report):
        tracemalloc.start()
        try:
            reports.append(report(g))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert reports[0] == reports[1]
    assert 2 * peaks[0] < peaks[1], peaks


def test_spectral_and_kernel_agree_up_to_the_kernel_ceiling():
    # Parity-balanced degree-8 sets at orders up to 512; a set of multiples
    # of 3 at an order divisible by 3 is disconnected, so it is never nut.
    rng = random.Random(52)
    cases = []
    for _ in range(12):
        m = rng.choice((1, 3))
        k = rng.randrange(20, 512 // m + 1, 2)
        offsets = rng.sample(range(1, k // 2, 2), 2) + rng.sample(range(2, k // 2, 2), 2)
        cases.append(GeneratorSet(m * k, tuple(sorted(m * s for s in offsets))))
    for t in range(1, 6):
        for kind, top in (("dprime", 512), ("ddprime", 510)) if t % 2 else (("ddprime", 510),):
            cases += [build_family(FamilyId(kind, t, n)) for n in (top, top - 4 * rng.randrange(1, 100))]
    # Above the old ceiling of 512: the t = 3 members at the top, and four
    # parity-balanced degree-8 sets.
    cases += [build_family(FamilyId("dprime", 3, 2048)), build_family(FamilyId("ddprime", 3, 2046))]
    for _ in range(4):
        n = rng.randrange(514, 2049, 2)
        offsets = rng.sample(range(1, n // 2, 2), 2) + rng.sample(range(2, n // 2, 2), 2)
        cases.append(GeneratorSet(n, tuple(sorted(offsets))))
    verdicts = set()
    for g in cases:
        kernel = is_nut_kernel(g)
        assert is_nut_spectral(g).is_nut == kernel.is_nut, g
        verdicts.add(kernel.is_nut)
    assert verdicts == {True, False}


def test_certificate_matches_bareiss_up_to_order_128():
    for g in _random_circulants(seed=53, count=24, n_max=128):
        assert kernel_oracle(g) == bareiss_report(g), g


@pytest.mark.parametrize("elements, nullity", [((16, 48, 80, 112), 224), ((32, 96), 192)])
def test_high_nullity_at_order_256(elements, nullity):
    g = GeneratorSet(256, elements)
    report = kernel_oracle(g)
    assert report == circulant.KernelReport(nullity, None, False)
    assert report == bareiss_report(g)


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


def test_default_oracle_limit_is_2048():
    assert circulant.KERNEL_MAX_ORDER == 2048
    with pytest.raises(CapacityError, match="order 2049 exceeds the kernel oracle ceiling 2048"):
        kernel_oracle(GeneratorSet(2049, (1, 2)))

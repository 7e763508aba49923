"""Property-based differential checks: spectral vs kernel vs family check, oracle vs
accelerated, division-free divisibility vs exact division.

Skipped when hypothesis is not installed. Examples are derandomized and no
example database is kept, so every run checks the same inputs.
"""
from __future__ import annotations

from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from polyref import mul  # noqa: E402

from nutcirc.circulant import (  # noqa: E402
    GeneratorSet,
    eigen_poly,
    is_nut_kernel,
    is_nut_spectral,
    kernel_oracle,
    spectral_indices,
)
from nutcirc.cyclotomy import (  # noqa: E402
    cyclo_divisors_accelerated,
    cyclo_divisors_oracle,
    totient_candidates,
)
from nutcirc.families import FamilyId, build_family, family_nut_check  # noqa: E402
from nutcirc.polyalg import (  # noqa: E402
    SparsePoly,
    cyclotomic,
    divisors,
    euler_phi,
    phi_divides,
    phi_fold,
    phi_remainder,
    prime_factorization,
)
from nutcirc.search import catalog  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def circulants(draw, n_max=64):
    n = draw(st.integers(min_value=2, max_value=n_max))
    pool = range(1, (n + 1) // 2)
    elements = draw(st.sets(st.sampled_from(pool))) if pool else set()
    return GeneratorSet(n, tuple(sorted(elements)))


@PROPERTY_SETTINGS
@given(circulants())
def test_spectral_and_kernel_routes_agree(g):
    assert is_nut_spectral(g).is_nut == is_nut_kernel(g).is_nut


@PROPERTY_SETTINGS
@given(circulants())
def test_nullity_is_totient_weighted_divisor_count(g):
    # The eigenvalue at a primitive b-th root of unity vanishes iff Phi_b
    # divides P, and there are euler_phi(b) such roots among the n-th roots.
    p = eigen_poly(g)
    predicted = sum(euler_phi(b) for b, _ in divisors(g.n) if phi_divides(p, b))
    assert kernel_oracle(g).nullity == predicted


@st.composite
def family_members(draw, n_max=160):
    """dprime members (odd t, 4 | n, n >= 4t+4) and ddprime members (n = 2 mod 4, n >= 4t+6)."""
    if draw(st.booleans()):
        t = draw(st.sampled_from(range(1, (n_max - 4) // 4 + 1, 2)))
        return FamilyId("dprime", t, draw(st.sampled_from(range(4 * t + 4, n_max + 1, 4))))
    t = draw(st.integers(min_value=1, max_value=(n_max - 6) // 4))
    return FamilyId("ddprime", t, draw(st.sampled_from(range(4 * t + 6, n_max + 1, 4))))


# Fewer examples than the circulant checks: members reach order 160, where
# the kernel route costs tens of milliseconds.
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(family_members())
def test_family_check_matches_spectral_and_kernel(fid):
    # Every member of both families is a nut graph, so the three verdicts
    # agree by all being True.
    g = build_family(fid)
    verdicts = (family_nut_check(fid).is_nut, is_nut_spectral(g).is_nut, is_nut_kernel(g).is_nut)
    assert verdicts == (True, True, True), fid


# Planted factors: small indices, primes and twice-primes, a prime power
# (128) and products of three or four primes (30, 42, 210).
PLANTED = (1, 2, 3, 4, 6, 7, 12, 14, 15, 22, 26, 30, 42, 128, 210)


@st.composite
def lacunary_polys(draw, degree_max=200, terms_max=10):
    """Sparse polynomials with up to terms_max terms, some multiplied by a planted Phi_b.

    Returns the polynomial and the planted index (None if nothing is planted).
    """
    planted = draw(st.one_of(st.none(), st.sampled_from(PLANTED)))
    cofactor_max = degree_max - (euler_phi(planted) if planted else 0)
    degree = draw(st.integers(min_value=1, max_value=cofactor_max))
    count = draw(st.integers(min_value=1, max_value=min(terms_max, degree + 1)))
    exponents = draw(st.sets(st.integers(0, degree - 1), min_size=count - 1, max_size=count - 1))
    coefficient = st.integers(min_value=-3, max_value=3).filter(bool)
    p = SparsePoly({e: draw(coefficient) for e in exponents | {degree}})
    if planted:
        p = mul(p, cyclotomic(planted))
    return p, planted


# Fewer examples than the circulant checks: each one runs the oracle, over
# every index b with phi(b) up to the degree.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lacunary_polys())
def test_accelerated_engine_matches_oracle(case):
    p, planted = case
    oracle = cyclo_divisors_oracle(p)
    assert cyclo_divisors_accelerated(p).divisors == oracle.divisors
    if planted:
        assert planted in oracle.divisors


@PROPERTY_SETTINGS
@given(lacunary_polys())
def test_phi_divides_matches_exact_division(case):
    p, _ = case
    for b in [b for b, _ in totient_candidates(p.degree)] + [210, 2310]:
        assert phi_divides(p, b) == phi_remainder(p, b).is_zero(), b


# Prime powers (4, 128, 243), products of distinct primes (105, 210, 385,
# 1155) and a mixed index (12).
FOLD_INDICES = (3, 4, 12, 105, 128, 210, 243, 385, 1155)


@st.composite
def polys_with_index(draw, degree_max=300, terms_max=10):
    """An index b and a sparse polynomial, multiplied by Phi_b half the time."""
    b = draw(st.sampled_from(FOLD_INDICES))
    degree = draw(st.integers(min_value=0, max_value=degree_max))
    exponents = draw(st.sets(st.integers(0, degree), min_size=1, max_size=terms_max))
    coefficient = st.integers(min_value=-3, max_value=3).filter(bool)
    p = SparsePoly({e: draw(coefficient) for e in exponents})
    planted = draw(st.booleans())
    if planted:
        p = mul(p, cyclotomic(b))
    return p, b, planted


@PROPERTY_SETTINGS
@given(polys_with_index())
def test_fold_low_coefficients_match_exact_division(case):
    # The catalog keeps only the lowest phi(b) coefficients of each fold.
    p, b, planted = case
    fold = phi_fold(p, b, [q for q, _ in prime_factorization(b)])
    low_zero = not any(fold.get(i, 0) for i in range(euler_phi(b)))
    assert low_zero == phi_remainder(p, b).is_zero()
    assert low_zero or not planted


def failing_indices(g):
    """Every b >= 3 dividing n with Phi_b | P_S; is_nut_spectral stops at the first."""
    p = eigen_poly(g)
    return [b for b, _ in spectral_indices(g.n) if phi_divides(p, b)]


def unit_image(g, u):
    """uS: each offset s goes to u*s mod n, folded into 1 .. n/2 - 1 by s -> n - s."""
    n = g.n
    return GeneratorSet(n, tuple(sorted(min(u * s % n, -u * s % n) for s in g.elements)))


@st.composite
def unit_multiples(draw):
    """(S, units, member): an even order n < 10^6, a set S, three units mod n, a member.

    n is below 64, 1024 or 10^6, a third of the time each: the catalog check
    runs below 64 and the kernel check up to its ceiling 2048, and the
    middle tier stops at 1024 because the kernel certificate is quadratic
    in n. n/2 is a multiple of 1, 9 or 60, so that many orders have many
    divisors, some of them multiples of 9. Half the sets are planted so that
    Phi_2m divides P_S, for an m > 1 dividing n/2: m times a parity-balanced
    set, or pairs {s, s + m} (x^s + x^(s+m) vanishes where x^m = -1).
    member is a dprime or ddprime FamilyId, or None below the least order.
    """
    bound = draw(st.sampled_from((31, 511, 499_999)))
    smooth = draw(st.sampled_from((1, 9, 60)))
    n = 2 * max(2, smooth * draw(st.integers(1, max(1, bound // smooth))))
    half = n // 2
    plantable = [m for m, _ in divisors(half) if m > 1 and half // m >= 4]
    plant = draw(st.sampled_from((None, None, "multiples", "pairs"))) if plantable else None
    if plant:
        m = draw(st.sampled_from(plantable))
        top = half // m
        j = draw(st.integers(1, min(3, (top - 1) // 2)))
    if plant == "multiples":
        odd = draw(st.sets(st.sampled_from(range(1, top, 2)), min_size=j, max_size=j))
        even = draw(st.sets(st.sampled_from(range(2, top, 2)), min_size=j, max_size=j))
        elements = {m * s for s in odd | even}
    elif plant == "pairs":
        # s mod 2m < m keeps every s + m off the other pairs.
        low = st.integers(1, half - m - 1).filter(lambda s: s % (2 * m) < m)
        elements = {e for s in draw(st.sets(low, min_size=1, max_size=j)) for e in (s, s + m)}
    else:
        elements = draw(st.sets(st.integers(1, half - 1), min_size=1, max_size=8))
    units = []
    for u in draw(st.lists(st.integers(1, n - 1), min_size=3, max_size=3)):
        u |= 1
        while gcd(u, n) > 1:
            u += 2
        units.append(u)
    member = None
    if n % 4 == 0 and n >= 8:
        member = FamilyId("dprime", draw(st.sampled_from(range(1, min(25, n // 4 - 1) + 1, 2))), n)
    elif n % 4 == 2 and n >= 10:
        member = FamilyId("ddprime", draw(st.integers(1, min(25, (n - 6) // 4))), n)
    return GeneratorSet(n, tuple(sorted(elements))), units, member


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(unit_multiples())
def test_unit_multiples_keep_every_verdict(case):
    # s -> +-u s mod n, u a unit, maps Circ(n, S) onto an isomorphic graph
    # and permutes the primitive b-th roots of unity for each b | n, so the
    # failing b, the verdict and the nullity of S and uS agree, and a
    # catalog witness W maps to a nut set uW. This checks the spectral route
    # at orders no second route reaches. Mutations of phi_fold it catches,
    # each checked on a copy of the package: folding mod b - 1 when 9 | b
    # (the failing-b and family checks); dropping the reduced term at
    # exponent b - 1, and squaring one binomial factor of g_b (the catalog
    # check: the kernel route refuses uW).
    g, units, fid = case
    failing = failing_indices(g)
    for u in units:
        assert failing_indices(unit_image(g, u)) == failing, (g, u)
    if fid is not None:
        verdict = family_nut_check(fid)
        member = build_family(fid)
        for u in units:
            image = is_nut_spectral(unit_image(member, u))
            assert (image.is_nut, image.reason) == (verdict.is_nut, verdict.reason), (fid, u)
    if g.n <= 2048:
        assert kernel_oracle(unit_image(g, units[0])).nullity == kernel_oracle(g).nullity, g
    if g.n < 64:
        for d in (4, 8):
            (entry,) = catalog(d, g.n, g.n)
            if entry.exists:
                image = unit_image(GeneratorSet(g.n, entry.witness), units[0])
                assert is_nut_spectral(image).is_nut and is_nut_kernel(image).is_nut, image

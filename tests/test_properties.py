"""Property-based differential checks: spectral vs kernel vs family check, oracle vs accelerated.

Skipped when hypothesis is not installed. Examples are derandomized and no
example database is kept, so every run checks the same inputs.
"""
from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nutcirc.circulant import (  # noqa: E402
    GeneratorSet,
    eigen_poly,
    is_nut_kernel,
    is_nut_spectral,
    kernel_oracle,
)
from nutcirc.cyclotomy import cyclo_divisors_accelerated, cyclo_divisors_oracle  # noqa: E402
from nutcirc.families import FamilyId, build_family, family_nut_check  # noqa: E402
from nutcirc.polyalg import (  # noqa: E402
    SparsePoly,
    cyclotomic,
    divisors,
    euler_phi,
    phi_divides,
)

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
    predicted = sum(euler_phi(b) for b in divisors(g.n) if phi_divides(p, b))
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


# Planted factors: small indices, prime and twice-prime indices q, 2q with
# q >= 7 (the term-count exclusion's targets) and composite ones.
PLANTED = (1, 2, 3, 4, 6, 7, 12, 14, 15, 22, 26, 30, 42)


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
        p = (p.to_dense() * cyclotomic(planted)).to_sparse()
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

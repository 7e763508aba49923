"""Property-based differential checks between the spectral and kernel routes.

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
from nutcirc.polyalg import divisors, euler_phi, phi_divides  # noqa: E402

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

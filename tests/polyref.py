"""Schoolbook polynomial arithmetic for the tests.

The package never adds, multiplies, substitutes into or evaluates
polynomials; the tests use these helpers to state identities about what it
computes (x^b - 1 as a product of cyclotomic polynomials, Phi_b(x) =
Phi_(b/p)(x^p), long division, values at +-1).
"""
from __future__ import annotations

from typing import Union

from nutcirc.polyalg import DensePoly, SparsePoly

Poly = Union[DensePoly, SparsePoly]


def _terms(p: Poly) -> list[tuple[int, int]]:
    if isinstance(p, SparsePoly):
        return list(p.terms.items())
    return [(e, c) for e, c in enumerate(p.coeffs) if c]


def evaluate(p: Poly, x: int) -> int:
    return sum(c * x**e for e, c in _terms(p))


def add(a: Poly, b: Poly) -> DensePoly:
    return SparsePoly(_terms(a) + _terms(b)).to_dense()


def sub(a: Poly, b: Poly) -> DensePoly:
    return SparsePoly(_terms(a) + [(e, -c) for e, c in _terms(b)]).to_dense()


def mul(a: Poly, b: Poly) -> DensePoly:
    return SparsePoly(
        (ea + eb, ca * cb) for ea, ca in _terms(a) for eb, cb in _terms(b)
    ).to_dense()


def compose_xpow(p: Poly, k: int) -> DensePoly:
    """p(x^k)."""
    return SparsePoly((e * k, c) for e, c in _terms(p)).to_dense()


def x_pow_minus_one(b: int) -> DensePoly:
    return DensePoly([-1] + [0] * (b - 1) + [1])

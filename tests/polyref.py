"""Schoolbook polynomial arithmetic for the tests.

The package never adds, multiplies or substitutes into polynomials, and
evaluates one only in the divisor oracle's integer test; the tests use
these helpers to state identities about what it computes (x^b - 1 as a
product of cyclotomic polynomials, Phi_b(x) = Phi_(b/p)(x^p), values at
+-1 and at the oracle's m). ``div_rem``, schoolbook long division of the
unfolded polynomial, is their reference for every remainder the package
computes.
"""
from __future__ import annotations

from nutcirc.polyalg import SparsePoly


def evaluate(p: SparsePoly, x: int) -> int:
    return sum(c * x**e for e, c in p.terms.items())


def add(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    return SparsePoly([*a.terms.items(), *b.terms.items()])


def sub(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    return SparsePoly([*a.terms.items(), *((e, -c) for e, c in b.terms.items())])


def mul(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    return SparsePoly(
        (ea + eb, ca * cb) for ea, ca in a.terms.items() for eb, cb in b.terms.items()
    )


def compose_xpow(p: SparsePoly, k: int) -> SparsePoly:
    """p(x^k)."""
    return SparsePoly((e * k, c) for e, c in p.terms.items())


def x_pow_minus_one(b: int) -> SparsePoly:
    return SparsePoly({b: 1, 0: -1})


def div_rem(a: SparsePoly, b: SparsePoly) -> tuple[SparsePoly, SparsePoly]:
    """Long division by a monic b, one dense coefficient at a time: a = q*b + r, deg r < deg b."""
    m = b.degree
    assert m >= 0 and b.terms[m] == 1, "the divisor must be monic"
    rem = [0] * (max(a.degree, m) + 1)
    for e, c in a.terms.items():
        rem[e] = c
    quo = {}
    for i in range(len(rem) - 1, m - 1, -1):
        t = rem[i]
        quo[i - m] = t
        for e, c in b.terms.items():
            rem[i - m + e] -= t * c
    return SparsePoly(quo), SparsePoly(enumerate(rem[:m]))

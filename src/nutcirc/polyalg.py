"""Exact integer polynomial arithmetic.

One representation is used throughout the package: ``SparsePoly``, a map
from exponent to nonzero coefficient, for the lacunary six-term family
polynomials, circulant eigenvalue polynomials, cyclotomic polynomials and
remainders alike. Coefficients are arbitrary-precision integers everywhere;
no operation in this module ever rounds, so divisibility verdicts are exact.

Three primitives answer every question about Phi_b. ``phi_remainder``
gives the remainder, by exact division. ``phi_fold`` is the linear one: it
multiplies p by one binomial per prime of b modulo x^b - 1, without forming
Phi_b, and the product is zero iff Phi_b divides p. ``phi_divides`` is that
zero test. ``cyclotomic_value`` gives the integer Phi_b(m), which the
oracle uses to skip divisions that cannot come out exact.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import ParameterError


class SparsePoly:
    """Integer polynomial as a map from exponent to nonzero coefficient.

    Construction accepts a mapping or an iterable of (exponent, coefficient)
    pairs; coefficients landing on the same exponent are summed and zero
    coefficients are dropped, so the stored map never contains a zero.
    Polynomials compare by value and are unhashable.
    """

    __slots__ = ("terms",)
    terms: dict[int, int]

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for e, c in items:
            if e < 0:
                raise ParameterError(f"negative exponent {e} in sparse polynomial")
            acc[e] = acc.get(e, 0) + c
        self.terms = {e: c for e, c in acc.items() if c != 0}

    @property
    def degree(self) -> int:
        return max(self.terms) if self.terms else -1

    def term_count(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"SparsePoly({sparse_to_text(self)!r})"


def prime_factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending, by trial division."""
    if n < 1:
        raise ParameterError(f"cannot factor {n}; need n >= 1")
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n, e = n // d, e + 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    return tuple(factors) + (((n, 1),) if n > 1 else ())


def divisors(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every divisor b of n >= 1, ascending, as (b, the distinct primes of b), factoring n once."""
    ds = [(1, ())]
    for p, e in prime_factorization(n):
        ds = [(d * p**k, primes + (p,) * (k > 0)) for d, primes in ds for k in range(e + 1)]
    return sorted(ds)


def euler_phi(b: int) -> int:
    """Euler totient of b >= 1."""
    if b < 1:
        raise ParameterError(f"euler_phi needs b >= 1, got {b}")
    result = b
    for p, _ in prime_factorization(b):
        result -= result // p
    return result


def _moebius_factors(b: int) -> list[tuple[int, int]]:
    """(e, mu(e)) for every squarefree e | b, for b >= 1, starting with (1, 1).

    Phi_b(x) is the product of (x^(b/e) - 1)^mu(e) over these e.
    """
    factors = [(1, 1)]
    for p, _ in prime_factorization(b):
        factors += [(e * p, -mu) for e, mu in factors]
    return factors


def cyclotomic(b: int) -> SparsePoly:
    """The b-th cyclotomic polynomial: monic, integer, degree euler_phi(b).

    Built without division as the power series, up to x^euler_phi(b), of the
    Moebius product of (1 - x^(b/e))^mu(e) over squarefree e | b: mu(e) = +1
    is a stride-(b/e) difference, mu(e) = -1 a stride-(b/e) prefix sum. For
    b >= 2 the mu(e) sum to zero, so the series is Phi_b; at b = 1 it would
    be -Phi_1, which is returned directly. Not memoized: a build costs about
    half of one phi_remainder by Phi_b, and the oracle builds only the Phi_b
    that pass its integer test.
    """
    if b < 1:
        raise ParameterError(f"cyclotomic needs b >= 1, got {b}")
    if b == 1:
        return SparsePoly({1: 1, 0: -1})
    factors = _moebius_factors(b)
    phi = sum(mu * (b // e) for e, mu in factors)
    coeffs = [1] + [0] * phi
    for e, mu in factors:
        k = b // e
        if mu == 1:
            coeffs[k:] = [c - s for c, s in zip(coeffs[k:], coeffs)]
        else:
            for i in range(k, phi + 1):
                coeffs[i] += coeffs[i - k]
    return SparsePoly(enumerate(coeffs))


def cyclotomic_value(b: int, m: int) -> int:
    """Phi_b(m), for b >= 1 and an integer m >= 2, without forming Phi_b.

    The Moebius product of (m^(b/e) - 1)^mu(e) over squarefree e | b: the
    mu(e) = +1 factors and the mu(e) = -1 factors are multiplied separately
    and the first product is divided exactly by the second. Every factor is
    at least m - 1 >= 1; at m = 1 every factor would be zero.
    """
    if b < 1 or m < 2:
        raise ParameterError(f"cyclotomic_value needs b >= 1 and m >= 2, got b={b}, m={m}")
    products = {1: 1, -1: 1}
    for e, mu in _moebius_factors(b):
        products[mu] *= m ** (b // e) - 1
    return products[1] // products[-1]


def phi_remainder(p: SparsePoly, b: int) -> SparsePoly:
    """Remainder of p modulo Phi_b, for b >= 1, by exact division.

    Phi_b divides x^b - 1, so p is first folded modulo x^b - 1 into a list
    of b coefficients, and only that is divided by Phi_b, in place. Phi_b is
    monic, so each step's quotient term is the leading coefficient, and the
    step subtracts it times Phi_b's other nonzero terms. The remainder is
    linear in p.
    """
    cyclo = cyclotomic(b)
    phi = cyclo.degree
    lower = [(e - phi, c) for e, c in cyclo.terms.items() if e != phi]
    coeffs = [0] * b
    for e, c in p.terms.items():
        coeffs[e % b] += c
    for i in range(b - 1, phi - 1, -1):
        q = coeffs[i]
        if q:
            for k, c in lower:
                coeffs[i + k] -= q * c
    return SparsePoly(enumerate(coeffs[:phi]))


def phi_fold(p: SparsePoly, b: int, primes: Iterable[int]) -> dict[int, int]:
    """p * g_b modulo x^b - 1, for b >= 1, as exponent -> nonzero coefficient.

    g_b is the product of x^(b/q) - 1 over primes, the distinct primes q | b
    as ``divisors`` lists them (g_1 = 1). The fold reduces p modulo x^b - 1
    and multiplies it by each factor of g_b modulo x^b - 1, so it has degree
    below b and is linear in p. It is zero iff Phi_b divides p.

    Proof. Let z be a primitive b-th root of unity. The factor z^(jb/q) - 1
    vanishes iff q | j, so g_b(z^j) = 0 iff some prime of b divides j, that
    is iff z^j is not a primitive b-th root. x^b - 1 has the b distinct roots
    z^j, so it divides a polynomial iff that polynomial vanishes at every
    z^j. Hence x^b - 1 divides p * g_b iff p vanishes at every primitive b-th
    root of unity. Phi_b is monic and has exactly those roots, each simple,
    so this holds iff Phi_b divides p in Z[x]. Folding p modulo x^b - 1
    changes none of these values.

    Each factor costs one pass over at most b terms, and the product has at
    most 2^omega(b) times the terms of the fold.
    """
    terms = reduce_mod_xb(p, b).terms
    for q in primes:
        # terms * (x^k - 1) modulo x^b - 1, on a plain dict.
        k = b // q
        product = {e: -c for e, c in terms.items()}
        for e, c in terms.items():
            shifted = (e + k) % b
            product[shifted] = product.get(shifted, 0) + c
        terms = {e: c for e, c in product.items() if c}
    return terms


def phi_divides(p: SparsePoly, b: int) -> bool:
    """True iff Phi_b divides p, for b >= 1, without forming Phi_b or dividing."""
    return not phi_fold(p, b, [q for q, _ in prime_factorization(b)])


def reduce_mod_xb(p: SparsePoly, b: int) -> SparsePoly:
    """Reduce p modulo x^b - 1: every exponent is replaced by its residue mod b.

    Coefficients whose exponents collide are summed, so the result is
    congruent to p modulo x^b - 1 and has degree < b.
    """
    if b < 1:
        raise ParameterError(f"reduce_mod_xb needs b >= 1, got {b}")
    return SparsePoly((e % b, c) for e, c in p.terms.items())


# --- textual interchange format -------------------------------------------
#
# Sparse form: `exp:coeff` pairs joined by commas, exponents strictly
# descending (the zero polynomial is the literal "0").


def sparse_to_text(p: SparsePoly) -> str:
    if p.is_zero():
        return "0"
    return ",".join(f"{e}:{p.terms[e]}" for e in sorted(p.terms, reverse=True))


def sparse_from_text(text: str) -> SparsePoly:
    body = text.strip()
    if body == "0" or not body:
        return SparsePoly()
    pairs = []
    for chunk in body.split(","):
        try:
            e_str, c_str = chunk.split(":")
            pairs.append((int(e_str), int(c_str)))
        except ValueError:
            raise ParameterError(f"malformed sparse polynomial term {chunk!r}") from None
    if any(e <= e_next for (e, _), (e_next, _) in zip(pairs, pairs[1:])):
        raise ParameterError(f"sparse polynomial exponents must be strictly descending: {body!r}")
    return SparsePoly(pairs)

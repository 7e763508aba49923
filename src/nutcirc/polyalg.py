"""Exact integer polynomial arithmetic.

Two representations are used throughout the package: a dense ascending
coefficient vector (``DensePoly``) for cyclotomic polynomials, quotients and
remainders, and a sparse exponent-to-coefficient map (``SparsePoly``) for the
lacunary six-term family polynomials and circulant eigenvalue polynomials.
Coefficients are arbitrary-precision integers everywhere; no operation in this
module ever rounds, so divisibility verdicts are exact.
"""
from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Iterable, Iterator, Mapping, Union

from .errors import ParameterError

TermSource = Union[Mapping[int, int], Iterable[tuple[int, int]]]


class DensePoly:
    """Integer polynomial as a coefficient tuple, ascending from x^0.

    Trailing zeros are trimmed on construction, so the last coefficient is
    nonzero unless the polynomial is zero (empty tuple). The zero polynomial
    has degree -1. Polynomials compare by value and are unhashable.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_xpow(self, k: int) -> "DensePoly":
        """Return p(x^k) for k >= 1."""
        if k < 1:
            raise ParameterError(f"compose_xpow needs k >= 1, got {k}")
        out = [0] * (len(self.coeffs) * k)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return DensePoly(out)

    def to_sparse(self) -> "SparsePoly":
        return SparsePoly((i, c) for i, c in enumerate(self.coeffs) if c != 0)

    def __add__(self, other: "DensePoly") -> "DensePoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DensePoly(out)

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        return self + (-other)

    def __neg__(self) -> "DensePoly":
        return DensePoly(-c for c in self.coeffs)

    def __mul__(self, other: "Union[DensePoly, int]") -> "DensePoly":
        if isinstance(other, int):
            return DensePoly(c * other for c in self.coeffs)
        if self.is_zero() or other.is_zero():
            return DensePoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j, d in enumerate(other.coeffs):
                out[i + j] += c * d
        return DensePoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"DensePoly({dense_to_text(self)!r})"


class SparsePoly:
    """Integer polynomial as a map from exponent to nonzero coefficient.

    Construction accepts a mapping or an iterable of (exponent, coefficient)
    pairs; coefficients landing on the same exponent are summed and zero
    coefficients are dropped, so the stored map never contains a zero.
    Polynomials compare by value and are unhashable.
    """

    __slots__ = ("terms",)
    terms: dict[int, int]

    def __init__(self, terms: TermSource = ()):
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

    def evaluate(self, x: int) -> int:
        return sum(c * x**e for e, c in self.terms.items())

    def to_dense(self) -> DensePoly:
        if not self.terms:
            return DensePoly()
        out = [0] * (self.degree + 1)
        for e, c in self.terms.items():
            out[e] = c
        return DensePoly(out)

    def items_descending(self) -> Iterator[tuple[int, int]]:
        for e in sorted(self.terms, reverse=True):
            yield e, self.terms[e]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"SparsePoly({sparse_to_text(self)!r})"


def dense_div_rem(a: DensePoly, b: DensePoly) -> tuple[DensePoly, DensePoly]:
    """Exact long division: a = q*b + r with deg r < deg b.

    The divisor must be nonzero and each elimination step must stay integral,
    which holds for every monic divisor. A non-monic divisor that would force
    a fractional quotient coefficient raises ParameterError.
    """
    if b.is_zero():
        raise ParameterError("division by the zero polynomial")
    ra = list(a.coeffs)
    bc = b.coeffs
    m = len(bc)
    if len(ra) < m:
        return DensePoly(), a
    lead = bc[-1]
    q = [0] * (len(ra) - m + 1)
    for i in range(len(ra) - m, -1, -1):
        c = ra[i + m - 1]
        if c == 0:
            continue
        t, frac = divmod(c, lead)
        if frac != 0:
            raise ParameterError(
                f"non-integral quotient step ({c} / {lead}); divisor must be monic"
            )
        q[i] = t
        for j in range(m):
            ra[i + j] -= t * bc[j]
    return DensePoly(q), DensePoly(ra[: m - 1])


# Bound on each arithmetic memo below: scans revisit an index only shortly
# after first use, so a modest window keeps the hits and caps the memory.
ARITH_CACHE_SIZE = 4096


@lru_cache(maxsize=ARITH_CACHE_SIZE)
def prime_factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending."""
    if n < 1:
        raise ParameterError(f"cannot factor {n}; need n >= 1")
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factorization(n) == ((n, 1),)


@lru_cache(maxsize=ARITH_CACHE_SIZE)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n >= 1, ascending."""
    ds = [1]
    for p, e in prime_factorization(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return tuple(sorted(ds))


@lru_cache(maxsize=ARITH_CACHE_SIZE)
def euler_phi(b: int) -> int:
    """Euler totient of b >= 1."""
    if b < 1:
        raise ParameterError(f"euler_phi needs b >= 1, got {b}")
    result = b
    for p, _ in prime_factorization(b):
        result -= result // p
    return result


def totient_candidates(d: int) -> list[int]:
    """Every b >= 1 with euler_phi(b) <= d, ascending.

    Each prime power p^k in b multiplies euler_phi(b) by (p - 1) * p^(k-1),
    so only primes p <= d + 1 (from a sieve) occur; b is built up by a
    depth-first walk over prime powers that stops once the totient exceeds d.
    """
    if d < 1:
        return []
    sieve = bytearray([1]) * (d + 2)
    for p in range(2, isqrt(d + 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
    primes = [p for p in range(2, d + 2) if sieve[p]]
    found = [1]

    def extend(b: int, phi: int, start: int) -> None:
        for i in range(start, len(primes)):
            p = primes[i]
            pb, pphi = b * p, phi * (p - 1)
            if pphi > d:
                break  # primes ascend, so every later p overshoots too
            while pphi <= d:
                found.append(pb)
                extend(pb, pphi, i + 1)
                pb, pphi = pb * p, pphi * p

    extend(1, 1, 0)
    return sorted(found)


@lru_cache(maxsize=ARITH_CACHE_SIZE)
def cyclotomic(b: int) -> DensePoly:
    """The b-th cyclotomic polynomial: monic, integer, degree euler_phi(b).

    Built without division as the power series of the Moebius product of
    (1 - x^(b/e))^mu(e) over squarefree e | b: mu(e) = +1 is a stride-(b/e)
    difference, mu(e) = -1 a stride-(b/e) prefix sum. For b >= 2 the signs
    cancel and Phi_b is palindromic, so the series is cut after
    x^(euler_phi(b) // 2) and mirrored. Memoized process-wide, bounded
    like the arithmetic memos.
    """
    if b < 1:
        raise ParameterError(f"cyclotomic needs b >= 1, got {b}")
    factors = [(1, 1)]  # (squarefree e, mu(e))
    for p, _ in prime_factorization(b):
        factors += [(e * p, -mu) for e, mu in factors]
    if b == 1:
        coeffs = [-1, 1]
    else:
        phi = sum(mu * (b // e) for e, mu in factors)
        coeffs = [1] + [0] * (phi // 2)
        half = len(coeffs)
        for e, mu in factors:
            k = b // e
            if k >= half:
                continue
            if mu == 1:
                coeffs[k:] = [c - s for c, s in zip(coeffs[k:], coeffs)]
            else:
                for i in range(k, half):
                    coeffs[i] += coeffs[i - k]
        coeffs += reversed(coeffs[: phi + 1 - half])
    return DensePoly(coeffs)


def phi_remainder(p: SparsePoly, b: int) -> DensePoly:
    """Remainder of p modulo Phi_b, for b >= 1.

    Phi_b divides x^b - 1, so p is first folded modulo x^b - 1 (exponents
    taken mod b, colliding coefficients summed) into a polynomial of degree
    below b, and only that is divided by Phi_b. The remainder is linear in p.
    """
    if b < 1:
        raise ParameterError(f"phi_remainder needs b >= 1, got {b}")
    # Same fold as reduce_mod_xb, written straight into a dense list: the
    # intermediate SparsePoly would triple the cost on the spectral hot path.
    folded = [0] * min(b, p.degree + 1)
    for e, c in p.terms.items():
        folded[e % b] += c
    return dense_div_rem(DensePoly(folded), cyclotomic(b))[1]


def phi_divides(p: SparsePoly, b: int) -> bool:
    """True iff Phi_b divides p, for b >= 1."""
    return phi_remainder(p, b).is_zero()


def reduce_mod_xb(p: SparsePoly, b: int) -> SparsePoly:
    """Reduce p modulo x^b - 1: every exponent is replaced by its residue mod b.

    Coefficients whose exponents collide are summed, so the result is
    congruent to p modulo x^b - 1 and has degree < b.
    """
    if b < 1:
        raise ParameterError(f"reduce_mod_xb needs b >= 1, got {b}")
    return SparsePoly((e % b, c) for e, c in p.terms.items())


def reduce_mod_signed(p: SparsePoly, q: int) -> SparsePoly:
    """Reduce p modulo x^q + 1: c*x^a maps to c*(-1)^(a//q) * x^(a mod q)."""
    if q < 1:
        raise ParameterError(f"reduce_mod_signed needs q >= 1, got {q}")
    return SparsePoly((e % q, -c if (e // q) % 2 else c) for e, c in p.terms.items())


# --- textual interchange format -------------------------------------------
#
# Sparse form: `exp:coeff` pairs joined by commas, exponents strictly
# descending (the zero polynomial is the literal "0").
# Dense form: comma-separated coefficients ascending from x^0.


def sparse_to_text(p: SparsePoly) -> str:
    if p.is_zero():
        return "0"
    return ",".join(f"{e}:{c}" for e, c in p.items_descending())


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


def dense_to_text(p: DensePoly) -> str:
    if p.is_zero():
        return "0"
    return ",".join(str(c) for c in p.coeffs)

"""Constructions of the circulant nut graph families and their residue tables.

Three generator-set families are built here: two block constructions (one for
orders divisible by four, one for orders congruent to 2 mod 4) and the older
consecutive-run family they extend. Each block family comes with a pair of
six-term polynomials whose cyclotomic non-divisibility is exactly what makes
every member a nut graph. The four polynomials live in one table, ``_SHAPES``,
each exponent as a*t + c; ``family_poly`` evaluates it at a validated t.
``family_nut_check`` re-derives nut-ness through that divisor classification
without ever forming the eigenvalue polynomial, and ``generate_table``
regenerates the small-modulus residue tables that certify the small-index
cases. A table row is built from its residue class alone: reduced modulo
x^m - 1, the exponent a*t + c depends on t only through t mod m. Its
remainder comes from ``phi_remainder``. The golden-file diff of those tables
and the unique-residue premise, which no CLI request calls, live in
``nutcirc.appendix``.
"""
from __future__ import annotations

from .errors import CapacityError, ParameterError
from .polyalg import SparsePoly, phi_remainder
from .record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .circulant import GeneratorSet, NutVerdict

VARIANT_DPRIME = "dprime"
VARIANT_DDPRIME = "ddprime"
VARIANT_DS_PRIOR = "ds"
VARIANTS = (VARIANT_DPRIME, VARIANT_DDPRIME, VARIANT_DS_PRIOR)

# The four six-term family polynomials, one entry per kind: whether t must be
# odd, the least t, the least prime p for ``appendix.unique_remainder_exists``,
# and the six terms (a, c, coefficient), each meaning coefficient * x^(a*t + c).
# q and r serve the 4 | n family, u and w the n = 2 (mod 4) family.
_SHAPES = {
    "q": (True, 3, 5, ((2, -1, 2), (1, 1, 1), (1, 0, -1), (1, -1, 1), (1, -2, -1), (0, 0, -2))),
    "r": (True, 3, 5, ((2, -1, 2), (1, 1, -1), (1, 0, -3), (1, -1, 3), (1, -2, 1), (0, 0, -2))),
    "u": (False, 2, 7, ((4, -1, 2), (2, 4, 1), (2, 1, -2), (2, -1, 2), (2, -4, -1), (0, 1, -2))),
    "w": (False, 2, 7, ((4, -1, 2), (2, 4, -1), (2, 1, -2), (2, -1, 2), (2, -4, 1), (0, 1, -2))),
}
POLY_KINDS = tuple(_SHAPES)
TABLE_MODULI = (3, 5, 6, 10, 15, 30)
# A member holds 2t generators: at t = 10^5, building one takes about 40 ms
# and 16 MB at peak.
FAMILY_MAX_T = 10**5


class FamilyId(Record):
    """One member of a generator-set family: variant name, parameter t, order n."""

    __slots__ = ("variant", "t", "n")
    variant: str
    t: int
    n: int

    def _check(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown family variant {self.variant!r}")
        t, n = self.t, self.n
        if t < 1:
            raise ParameterError(f"family parameter t must be >= 1, got {t}")
        if self.variant == VARIANT_DPRIME:
            if t % 2 == 0:
                raise ParameterError(f"dprime requires odd t, got t={t}")
            if n % 4:
                raise ParameterError(f"dprime requires 4 | n, got n={n}")
            if n < 4 * t + 4:
                raise ParameterError(f"dprime requires n >= 4t+4 = {4*t+4}, got n={n}")
        elif self.variant == VARIANT_DDPRIME:
            if n % 4 != 2:
                raise ParameterError(f"ddprime requires n = 2 (mod 4), got n={n}")
            if n < 4 * t + 6:
                raise ParameterError(f"ddprime requires n >= 4t+6 = {4*t+6}, got n={n}")
        else:
            if t % 2 == 0 or t < 3:
                raise ParameterError(f"ds requires odd t >= 3, got t={t}")
            if t % 10 == 1:
                raise ParameterError(f"ds excludes t = 1 (mod 10), got t={t}")
            if t % 18 == 15:
                raise ParameterError(f"ds excludes t = 15 (mod 18), got t={t}")
            if n % 2 or n < 4 * t + 4:
                raise ParameterError(f"ds requires even n >= 4t+4 = {4*t+4}, got n={n}")


class FamilyPolyId(Record):
    """Selector for one of the four six-term family polynomials."""

    __slots__ = ("kind", "t")
    kind: str
    t: int

    def _check(self):
        if self.kind not in _SHAPES:
            raise ParameterError(f"unknown family polynomial kind {self.kind!r}")
        odd, least_t = _SHAPES[self.kind][:2]
        if self.t < least_t or (odd and self.t % 2 == 0):
            parity = "odd " if odd else ""
            raise ParameterError(f"{self.kind} requires {parity}t >= {least_t}, got t={self.t}")


def build_family(fid: FamilyId) -> GeneratorSet:
    """Sorted generator set of the family member; always 2t elements.

    dprime and ddprime members are 1 .. t - 1, then (n + 2)//4 and (n + 6)//4
    (n/4 and n/4 + 1 when 4 | n), then n/2 - t + 1 .. n/2 - 1: ascending, as
    n >= 4t + 4 (dprime) or 4t + 6 (ddprime) puts t - 1 below the pair and
    the pair below n/2 - t + 1, which GeneratorSet checks. A t above
    FAMILY_MAX_T raises CapacityError before the set is built.
    """
    from .circulant import GeneratorSet

    t, n = fid.t, fid.n
    if t > FAMILY_MAX_T:
        raise CapacityError(f"family parameter t={t} exceeds the ceiling {FAMILY_MAX_T}")
    if fid.variant == VARIANT_DS_PRIOR:
        return GeneratorSet(n, tuple(s for s in range(1, 2 * t + 2) if s != t))
    middle = ((n + 2) // 4, (n + 6) // 4)
    return GeneratorSet(n, (*range(1, t), *middle, *range(n // 2 - t + 1, n // 2)))


def family_poly(pid: FamilyPolyId) -> SparsePoly:
    """The six-term family polynomial, exactly as defined."""
    return SparsePoly((a * pid.t + c, coeff) for a, c, coeff in _SHAPES[pid.kind][3])


def family_nut_check(fid: FamilyId) -> NutVerdict:
    """Decide nut-ness of a family member from the divisor classification alone.

    Neither the member, parity balanced by construction, nor its eigenvalue
    polynomial is formed. For the 4|n family, a divisor b >= 3 of n can only
    kill the spectrum if Phi_b divides the q-polynomial (when b | n/4) or
    the r-polynomial (when b | n/2 but not n/4); divisors of n that do not
    divide n/2 can never fail. For the n = 2 (mod 4) family the same
    classification runs at the half-exponent level: odd divisors of n check
    the u-polynomial, even ones the w-polynomial. t = 1 members reduce to a
    closed-form binomial divisibility in both families. The rules go through
    ``circulant.first_obstruction``: the witness is the least failing b.
    Listing the divisors factors n, so an order above
    ``circulant.SPECTRAL_MAX_ORDER`` raises CapacityError first; with six
    terms per polynomial, that one ceiling bounds the divisibility tests
    too, whatever t is (FAMILY_MAX_T bounds only ``build_family``).
    """
    from .circulant import first_obstruction, spectral_indices

    if fid.variant == VARIANT_DS_PRIOR:
        raise ParameterError(
            "family_nut_check covers the dprime/ddprime constructions only; "
            "use is_nut_spectral for the ds family"
        )
    t, n = fid.t, fid.n
    indices = spectral_indices(n)
    dprime = fid.variant == VARIANT_DPRIME
    if t == 1:
        # The spectrum dies at a primitive b-th root iff that root solves
        # x^(n/2 + shift) = -1, i.e. iff Phi_b divides x^(n/2 + shift) + 1.
        shift = 1 if dprime else 2
        rules = [(n, SparsePoly([(n // 2 + shift, 1), (0, 1)]))]
    else:
        pairs = (("q", 4), ("r", 2)) if dprime else (("u", 2), ("w", 1))
        rules = [(n // k, family_poly(FamilyPolyId(kind, t))) for kind, k in pairs]
    return first_obstruction(indices, rules)


# --- residue tables ---------------------------------------------------------


class TableRow(Record):
    """One residue class: the reduced polynomial and its cyclotomic remainder."""

    __slots__ = ("kind", "modulus", "residue", "reduced", "remainder")
    kind: str
    modulus: int
    residue: int
    reduced: SparsePoly
    remainder: SparsePoly


def generate_table(kind: str, modulus: int) -> list[TableRow]:
    """Rows r = 0 .. modulus-1 of the residue table for one family polynomial.

    Every exponent is a*t + c, so the family polynomial reduced modulo
    x^modulus - 1 depends on t only through its residue r: each row's
    reduced polynomial is the sum of coefficient * x^((a*r + c) mod modulus),
    and its remainder is that polynomial's remainder modulo the cyclotomic
    polynomial of index modulus. Every remainder must be nonzero; that is
    the content of the small-index exclusion certified by these tables.
    """
    if kind not in POLY_KINDS:
        raise ParameterError(f"unknown table kind {kind!r}")
    if modulus not in TABLE_MODULI:
        raise ParameterError(
            f"unsupported table modulus {modulus}; expected one of {TABLE_MODULI}"
        )
    rows = []
    for residue in range(modulus):
        reduced = SparsePoly(
            ((a * residue + c) % modulus, coeff) for a, c, coeff in _SHAPES[kind][3]
        )
        rows.append(TableRow(kind, modulus, residue, reduced, phi_remainder(reduced, modulus)))
    return rows


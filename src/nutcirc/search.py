"""Exhaustive existence search for circulant nut graphs by order and degree.

The catalog decides, for every generator set of the requested degree, the
spectral criterion of ``circulant.is_nut_spectral``: S is a nut set iff it is
parity balanced and, for every divisor b >= 3 of n, Phi_b does not divide
P_S(x) = sum over s in S of x^s + x^(n-s). Phi_b divides P_S iff
``polyalg.phi_fold(P_S, b)`` is zero, and so iff the fold's lowest phi(b)
coefficients, its residue, are all zero (proof in ``_pack_residues``). The
fold is linear in S, so it is the sum of the folds of x^s + x^(n-s), and as
b divides n those depend only on s mod b. Nothing forms Phi_b or divides by
it.

For a walk over k-sets each fold is packed into one int: coefficient i plus
2 in the i-th of phi(b) fields of w = bit_length(4k) bits, since every
coefficient lies in [-2, 2] (proof in ``_pack_residues``). Folding x^s
multiplies the fold of 1 by x^s modulo x^b - 1, which rotates it, so each b
takes one ``phi_fold`` and packs the residue of each s mod b as the sum of
two rotations of it. Row s, one int per offset, ORs together every b's
packed residue for s mod b, each b in its own block of fields. A field of a
sum of at most k rows then lies in [0, 4k] and fits in w bits, so adding
two packed ints adds every field at once and never carries.

A parity-balanced k-set is an odd half (k/2 odd offsets) plus an even half
(k/2 even ones), and its b-slice is zero exactly when every field in it
holds 2k. A half's fields lie in [0, 2k], so that happens exactly when the
even half's masked sum is ``zero_b - (odd sum & mask_b)``, a subtraction
that never borrows. So the walk is a join: the even halves of an order are
put once into one bucket per b, keyed by their masked sums, and each odd
half looks up one bucket per b; the union of the bitmasks found is the set
of even halves it fails with, and a set is a nut set iff no b-slice is zero.
Every step is exact integer arithmetic, so the verdict is the spectral
check's verdict. Unbalanced sets are never visited, since no nut set is
unbalanced: ``sets_enumerated`` is the closed-form count of all
d/2-subsets (of the balanced ones with ``balanced_only``), while
``sets_passing`` and the lexicographically least witness come from the
walk.

The catalog walks its orders in ascending order on one process. Each
walked order builds its rows and buckets once and returns its count and
least nut set, so every entry is fixed by its order alone. An order whose
walk could hold more than ``CATALOG_MAX_BYTES``, by the bound
``_walk_bytes`` computes from n and d alone, is marked skipped rather than
silently truncated, and so is an order that is not walked but whose count
would have more digits than Python prints. A range of more than
``CATALOG_MAX_ORDERS`` even orders, or whose walked orders' bounds sum to
more than ``CATALOG_MAX_RANGE_BYTES``, raises ``CapacityError`` before any
order is walked.

The case the paper leaves open, degree 4t with t even at an order n
divisible by four, is ``catalog(4 * t, n, n)``, whose witness is the least
4t-regular nut set of order n. Orders n = 2 (mod 4) are covered by the
ddprime family, which ``families.family_nut_check`` verifies. This module
builds on ``polyalg`` alone: a witness is its offsets tuple, so a catalog
request never compiles ``circulant``.
"""
from __future__ import annotations

import sys
from itertools import combinations
from math import comb

from .errors import CapacityError, ParameterError
from .polyalg import SparsePoly, divisors, euler_phi, phi_fold
from .record import Record

# Most bytes the walk of one order may hold, as ``_walk_bytes`` bounds them.
# Every even order is walked up to 9 238 at degree 4, 646 at 8, 190 at 12,
# 112 at 16, 82 at 20 and 76 at 24. No sampled admitted order took over 0.4
# s or 100 MB peak RSS in a fresh process (2-core machine).
CATALOG_MAX_BYTES = 10**8
# Most even orders in one catalog range: 10 000 skipped entries build and
# print in about 0.2 s. It bounds the entries only; the walks' time is
# bounded by CATALOG_MAX_RANGE_BYTES.
CATALOG_MAX_ORDERS = 10_000
# Most bytes, by ``_walk_bytes``, summed over the walked orders of one range.
# A range takes 2.5 to 3.1 s per summed GB: degree 12 on orders 14..190 sums
# 1.14 GB and takes 3.0 s, degree 4 on 2..2 000 sums 1.51 GB and takes 4.7 s.
# Degree 8 on 14..646 (4.9 GB, about 17 s) and degree 4 on 2..20 000 (174 GB,
# about 7 minutes) are refused.
CATALOG_MAX_RANGE_BYTES = 2 * 10**9


class CatalogEntry(Record):
    """Existence record for one (order, degree) pair."""

    __slots__ = ("n", "d", "exists", "witness", "sets_enumerated", "sets_passing", "skipped")
    _defaults = {"skipped": False}
    n: int
    d: int
    exists: bool
    witness: tuple[int, ...] | None  # offsets of the least nut set of order n
    sets_enumerated: int
    sets_passing: int
    skipped: bool


def _pack_residues(n: int, k: int) -> tuple[list[int], tuple[tuple[int, int], ...]]:
    """Fold residues of x^s + x^(n-s) for each Phi_b, b >= 3 dividing n, packed for k-sets.

    Returns (rows, tests), laid out as the module docstring says: each such
    b, ascending, has a block of phi(b) fields of bit_length(4k) bits, and
    field i of rows[s], 0 <= s < n/2, holds coefficient i of
    ``phi_fold(x^s + x^(n-s), b)`` plus 2. tests holds, per block, (mask_b,
    base_b * k), base_b with 2 in every field: Phi_b divides the sum's P_S
    exactly when ``total & mask_b`` equals ``base_b * k``.

    The rows are built by rotation. That fold is (x^s + x^(n-s)) * g_b
    modulo x^b - 1, with g_b = ``phi_fold(1, b)``, and multiplying by x^r
    modulo x^b - 1 rotates the b coefficients by r. Packed over b fields
    with 1 added to each, g_b's coefficients 0, -1 and +1 become the fields
    1, 0 and 2 (by the first proof below), an int whose fields rotate as its
    bits do. Its rotations by s and by -s (mod b) add up to the fold plus 2
    in every field, and the mask keeps the lowest phi(b) of them.

    Proof that every coefficient lies in [-2, 2]. The fold multiplier g_b,
    the product of x^(b/q) - 1 over the primes q | b, has 2^omega(b) terms
    +-1 at the exponents sum over q in I of b/q, one per set I of those
    primes, distinct mod b: modulo the full power of q in b the sum is
    nonzero exactly when q is in I. The fold of x^r + x^(b-r) is the sum of
    two shifts of g_b; at r = 0 it is 2 * g_b, whose constant term is +-2.

    Proof that phi(b) coefficients suffice. The fold is linear, so the fold
    F of P_S is the sum of its rows' folds; F has degree below b and is zero
    iff Phi_b divides P_S. Let Psi_b = (x^b - 1) / Phi_b, the product of
    Phi_c over c | b, c < b. Each such c divides b/q for some prime q | b,
    so Phi_c divides x^(b/q) - 1, and the distinct Phi_c are coprime: Psi_b
    divides g_b as well as x^b - 1, hence F = Psi_b * m with deg m <
    phi(b). Psi_b(0) = -1, so coefficient i of F is -m_i plus a combination
    of m_0 .. m_(i-1): the lowest phi(b) coefficients of F determine m, and
    they are all zero only when m, hence F, is zero.
    """
    width = (4 * k).bit_length()
    field = (1 << width) - 1
    rows = [0] * (n // 2)
    tests = []
    offset = 0
    for b, primes in divisors(n):
        if b < 3:
            continue  # b = 1 and 2 are the parity condition: the walk visits balanced sets only
        phi = euler_phi(b)
        mask = (1 << (width * phi)) - 1
        span = width * b
        g = ((1 << span) - 1) // field  # 1 in every field
        g += sum(c << (width * e) for e, c in phi_fold(SparsePoly({0: 1}), b, primes).items())
        # Field i of turned[r] holds field (i - r) mod b of g, for 0 <= i < phi(b).
        turned = [g & mask] + [
            ((g << shift) | (g >> (span - shift))) & mask for shift in range(width, span, width)
        ]
        cycle = [turned[r] + turned[-r] for r in range(b)]
        for s in range(n // 2):
            rows[s] |= cycle[s % b] << offset
        tests.append((mask << offset, mask // field * 2 * k << offset))
        offset += width * phi
    return rows, tuple(tests)


def _walk(n: int, k: int) -> tuple[int, tuple[int, ...] | None]:
    """Nut sets among the balanced k-sets of order n, k even and 2 <= k < n/2.

    Returns the number of nut sets and the lexicographically least one (or
    None). A balanced k-set is an odd half, k/2 odd offsets, plus an even
    half, k/2 even ones, so its packed sum is the odd half's, acc, plus the
    even half's. Every field of a half's sum lies in [0, 2k], so the set's
    b-slice is zero, each field 2k, exactly when the even half's masked sum
    is ``zero_b - (acc & mask_b)``: that subtraction never borrows between
    fields. So the even halves, in lexicographic order, go into one bucket
    per block, keyed by their masked sums, with the bitmask of their indices
    as the value, and one lookup per block gives dead, the bitmask of the
    even halves that fail with an odd half; the rest pass. The catalog walks
    only orders whose ``_walk_bytes`` is within CATALOG_MAX_BYTES, so the
    halves and buckets stay few.

    Fix an odd half O and let E < E' be even halves whose first difference
    is e < e'. Below e, the sorted sets O + E and O + E' both hold O's
    elements and the common prefix of E and E'; next, O + E holds e and
    O + E' something larger (e' or an odd element, never the even e). So
    O + E < O + E': the lowest clear bit of dead, the first passing even
    half, gives the least nut set containing O, and the order's least is
    the least of those over all O.
    """
    rows, blocks = _pack_residues(n, k)
    evens = list(combinations(range(2, n // 2, 2), k // 2))
    # Each sum starts from its first row, so a one-offset half shares its row, not a copy.
    sums = [sum(map(rows.__getitem__, half[1:]), rows[half[0]]) for half in evens]
    tests = []
    for mask, zero in blocks:
        bucket: dict[int, int] = {}
        for i, total in enumerate(sums):
            key = total & mask
            bucket[key] = bucket.get(key, 0) | 1 << i
        tests.append((mask, zero, bucket))
    passing = 0
    witness: tuple[int, ...] | None = None
    for odd in combinations(range(1, n // 2, 2), k // 2):
        acc = sum(rows[s] for s in odd)
        dead = 0
        for mask, zero, bucket in tests:
            dead |= bucket.get(zero - (acc & mask), 0)
        passing += len(evens) - dead.bit_count()
        least = (~dead & (dead + 1)).bit_length() - 1
        if least < len(evens):
            found = tuple(sorted(odd + evens[least]))
            witness = min(witness, found) if witness else found
    return passing, witness


def _walk_bytes(n: int, k: int) -> int:
    """Upper bound on the bytes ``_walk(n, k)`` holds at once, from n and k alone.

    A CPython int below 2^B takes at most 28 + 4 * (B // 30) bytes (30-bit
    digits), and a list slot 8. Let w = bit_length(4k) and E = C((n - 2) // 4,
    k/2), the number of even halves. The terms, cheapest first, so that an
    order far over CATALOG_MAX_BYTES is refused before n is factored or a
    binomial formed:

    - rows: n/2 packed rows of w * (n - 2) bits;
    - halves: the E even halves, each a tuple of k/2 offsets and its sum,
      one row wide, and the odd halves and witnesses the walk drops, which
      CPython keeps for reuse, up to 2 000 tuples of each length;
    - rotations: per block b, the lists turned and cycle of
      ``_pack_residues``, b ints each of w * phi(b) + 1 bits, summed over
      every b although only the latest two blocks' lists coexist;
    - buckets: per block b, a key is the half's sum masked to the blocks up
      to b, and as row s's block depends on s mod b alone, it is fixed by
      the multiset of the half's offsets mod b: at most min(E, C(b + k/2 -
      1, k/2)) keys. Each key's bitmask has distinct highest bits below E, so
      the bitmasks' digits take at most min(E^2 / 15, keys * E * 2 / 15)
      bytes, and each key adds 100 bytes for its dict slot and its bitmask's
      header.

    The rotation lists are freed before the halves are built, so the bound
    is rows plus the larger of rotations and halves plus buckets.
    """
    width = (4 * k).bit_length()
    row = 36 + width * n // 30 * 4
    rows = n // 2 * row
    if rows > CATALOG_MAX_BYTES:
        return rows
    evens = comb((n - 2) // 4, k // 2)
    halves = evens * (row + 48 + 4 * k) + 2000 * (80 + 12 * k)
    if rows + halves > CATALOG_MAX_BYTES:
        return rows + halves
    rotations = buckets = bits = 0
    for b, _ in divisors(n):
        if b < 3:
            continue
        phi = euler_phi(b)
        bits += width * phi
        rotations += 2 * b * (36 + (width * phi + 1) // 30 * 4)
        keys = min(evens, comb(b + k // 2 - 1, k // 2))
        masks = min(evens * evens // 15, keys * evens * 2 // 15)
        buckets += masks + keys * (128 + bits // 30 * 4)
    return rows + max(rotations, halves + buckets)


def _balanced_count(m: int, k: int) -> int:
    """Number of parity-balanced k-subsets of {1, .., m}."""
    if k % 2:
        return 0
    return comb((m + 1) // 2, k // 2) * comb(m // 2, k // 2)


def catalog(
    d: int,
    n_min: int,
    n_max: int,
    balanced_only: bool = False,
) -> list[CatalogEntry]:
    """Existence catalog for degree d over every even order in [n_min, n_max].

    sets_enumerated counts every d/2-subset (only the balanced ones with
    balanced_only), sets_passing every nut set, and the witness is the
    lexicographically least nut set. A walked order is skipped when its
    ``_walk_bytes`` exceeds CATALOG_MAX_BYTES. An order that is not walked
    (d/2 odd or zero, or no d/2-set at all) is skipped only when its count
    C(n/2 - 1, d/2) might have more digits than ``sys.get_int_max_str_digits``
    lets Python print, judged without forming it. Neither test reads
    balanced_only, so an entry is the same with and without it. A range of
    more than CATALOG_MAX_ORDERS even orders raises CapacityError before any
    order is built, and one whose walked orders' ``_walk_bytes`` sum to more
    than CATALOG_MAX_RANGE_BYTES before any order is walked.
    """
    if d < 0 or d % 2:
        raise ParameterError(f"degree must be a nonnegative even integer, got {d}")
    if n_min < 2:
        raise ParameterError(f"graph orders start at 2, got n_min={n_min}")
    if n_min > n_max:
        raise ParameterError(f"empty order range [{n_min}, {n_max}]")
    orders = n_max // 2 - (n_min + 1) // 2 + 1
    if orders > CATALOG_MAX_ORDERS:
        raise CapacityError(
            f"{orders} even orders in [{n_min}, {n_max}] exceed "
            f"the catalog range ceiling {CATALOG_MAX_ORDERS}"
        )
    k = d // 2
    evens = range(n_min + n_min % 2, n_max + 1, 2)
    # Odd k and k = 0 admit no balanced nonempty set, hence no nut set. Above
    # n/2 - 1 there is no k-set at all, and both counts below are 0. An order
    # is walked iff it gets a bound here, and only admitted bounds are summed.
    bounds = {}
    admitted = 0
    for n in evens:
        if k % 2 or not 0 < k < n // 2:
            continue
        bounds[n] = bound = _walk_bytes(n, k)
        admitted += bound if bound <= CATALOG_MAX_BYTES else 0
        if admitted > CATALOG_MAX_RANGE_BYTES:
            raise CapacityError(
                f"the walks of degree {d} on the even orders in [{n_min}, {n_max}] exceed "
                f"the catalog range budget of {CATALOG_MAX_RANGE_BYTES} bytes"
            )
    # Python before 3.10.7 prints any int; 4 300 digits is the later default.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    entries = []
    for n in evens:
        m = n // 2 - 1
        walked = n in bounds
        if walked:
            skipped = bounds[n] > CATALOG_MAX_BYTES
        else:
            # C(m, j) < 2^(j * bit_length(m)) for j = min(k, m - k), and
            # log10(2) < 1/3: the count has at most that exponent // 3 + 1
            # digits. A limit of 0 prints any int.
            skipped = 0 < digits <= min(k, m - k) * m.bit_length() // 3
        if skipped:
            entries.append(CatalogEntry(n, d, False, None, 0, 0, skipped=True))
            continue
        passing, witness = _walk(n, k) if walked else (0, None)
        enumerated = _balanced_count(m, k) if balanced_only else comb(m, k)
        entries.append(CatalogEntry(n, d, witness is not None, witness, enumerated, passing))
    return entries

"""Exhaustive existence search for circulant nut graphs by order and degree.

The catalog decides, for every generator set of the requested degree, the
spectral criterion of ``circulant.is_nut_spectral``: S is a nut set iff it is
parity balanced and, for every divisor b >= 3 of n, Phi_b does not divide
P_S(x) = sum over s in S of x^s + x^(n-s). Phi_b divides P_S iff
``polyalg.phi_fold(P_S, b)`` is zero, and so iff the fold's lowest phi(b)
coefficients, its residue, are all zero (proof in ``_pack_residues``). The
fold is linear in S, so it is the sum of the folds of x^s + x^(n-s), and as
b divides n those depend only on s mod b, the same for residues r and b - r.
So each b takes only the b/2 + 1 residues with r <= b/2. Nothing forms
Phi_b or divides by it.

For a walk over k-sets each residue is packed once into one int: coefficient
i plus 2 in the i-th of phi(b) fields of w = bit_length(4k) bits, since
every coefficient lies in [-2, 2] (proof in ``_pack_residues``). Row s, one
int per offset, ORs together every b's packed residue for s mod b, each b in
its own block of fields. A field of a sum of at most k rows then lies in
[0, 4k] and fits in w bits, so adding two packed ints adds every field at
once and never carries. A parity-balanced k-set is an odd half (k/2 odd
offsets) plus an even half (k/2 even ones), so the walk is a double loop:
the packed sums of all even halves are computed once per order and k, and
each odd half's sum is added to each of them. A leaf's b-slice is zero
exactly when every field in it holds 2k, that is when ``total & mask_b``
equals ``base_b * k``; a leaf is a nut set iff no b-slice is zero. Every
step is exact integer arithmetic, so the verdict is the spectral check's
verdict. Unbalanced sets are never visited, since no nut set is unbalanced:
``sets_enumerated`` is the closed-form count of all d/2-subsets (of the
balanced ones with ``balanced_only``), while ``sets_passing`` and the
lexicographically least witness come from the walk.

Work is split into shards by (order, least odd offset). A catalog whose walk
(the balanced sets of all its scanned orders) has at least
``POOL_MIN_SETS`` sets may run on one process pool; smaller ones run
serially, where starting the pool costs more than it saves. Each shard
returns its least nut set and the merge keeps the least of those, so the
output (including witnesses) is identical for any job count and shard
order. A range of more than ``CATALOG_MAX_ORDERS`` even orders raises
``CapacityError``; orders above ``CATALOG_MAX_ORDER``, or with more than
``CATALOG_MAX_SETS`` candidate sets, are marked skipped rather than silently
truncated.

The case the paper leaves open, degree 4t with t even at an order n
divisible by four, is ``catalog(4 * t, n, n)``, whose witness is the least
4t-regular nut set of order n. Orders n = 2 (mod 4) are covered by the
ddprime family, which ``families.family_nut_check`` verifies. This module
builds on ``polyalg`` alone: a witness is its offsets tuple, so a catalog
request never compiles ``circulant``.
"""
from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import CapacityError, ParameterError
from .polyalg import SparsePoly, divisors, euler_phi, phi_fold
from .record import Record

# Most candidate sets, C(n/2 - 1, d/2), of a scanned order.
CATALOG_MAX_SETS = 10**7
# Largest scanned order. The degree-4 walk, about n^2/16 leaves with one
# test per divisor of n, sets the cost: catalog(4, n, n) takes 1.3 to 1.6 s
# and 21 MB at n = 2 880, the slowest order up to 3 000, 1.9 s at 3 360 and
# 2.8 s at 4 000 (fresh processes on a 2-core machine).
CATALOG_MAX_ORDER = 3000
# Most even orders in one catalog range: 10 000 entries build and print in
# about 0.3 s.
CATALOG_MAX_ORDERS = 10_000
# Smallest walk, in balanced sets, that may use a process pool. On a 2-core
# machine the pool wins from about 700 000 sets at degrees 12 to 20, and
# from about 1 400 000 at degree 8.
POOL_MIN_SETS = 1_500_000


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


def _pack_residues(n: int, k: int) -> tuple[tuple[int, ...], int, tuple[tuple[int, int], ...]]:
    """Fold residues of x^s + x^(n-s) for each Phi_b, b >= 3 dividing n, packed for k-sets.

    Returns (rows, width, tests), laid out as the module docstring says:
    each such b, ascending, has a block of phi(b) fields of width =
    bit_length(4k) bits, and field i of rows[s], 0 <= s < n/2, holds
    coefficient i of ``phi_fold(x^r + x^(b-r), b)`` plus 2, r = min(s mod
    b, b - s mod b). tests holds, per block, (mask_b, base_b * k), base_b
    with 2 in every field: Phi_b divides the sum's P_S exactly when
    ``total & mask_b`` equals ``base_b * k``.

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
    rows = [0] * (n // 2)
    tests = []
    offset = 0
    for b in divisors(n):
        if b < 3:
            continue  # b = 1 and 2 are the parity condition: the walk visits balanced sets only
        phi = euler_phi(b)
        mask = (1 << (width * phi)) - 1
        base = mask // ((1 << width) - 1) * 2  # 2 in every field of the block
        folds = (phi_fold(SparsePoly([(r, 1), (b - r, 1)]), b) for r in range(b // 2 + 1))
        packed = [
            (base + sum(c << (width * i) for i, c in fold.items() if i < phi)) << offset
            for fold in folds
        ]
        for s in range(n // 2):
            r = s % b
            rows[s] |= packed[min(r, b - r)]
        tests.append((mask << offset, base * k << offset))
        offset += width * phi
    return tuple(rows), width, tuple(tests)


# Packed tables kept per process: shards of one order arrive together, so a
# few tables suffice, and the bound caps memory on long catalogs.
RESIDUE_CACHE_SIZE = 8


@lru_cache(maxsize=RESIDUE_CACHE_SIZE)
def _packed_table(
    n: int, k: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...], tuple[tuple[int, tuple[int, ...]], ...]]:
    """What the walk over balanced k-sets of order n needs: (rows, tests, evens).

    rows and tests are ``_pack_residues(n, k)``'s. evens holds every k/2-set
    of even offsets in 1 .. n/2 - 1, in lexicographic order, as (the sum of
    its packed rows, its offsets). The catalog walks only orders whose
    k-sets are under CATALOG_MAX_SETS, so evens stays small.
    """
    rows, _, tests = _pack_residues(n, k)
    halves = combinations(range(2, n // 2, 2), k // 2)
    return rows, tests, tuple((sum(rows[s] for s in half), half) for half in halves)


def _walk(shard: tuple[int, int, int]) -> tuple[int, tuple[int, ...] | None]:
    """Nut sets among the balanced k-sets of order n whose least odd offset is first.

    Returns the number of nut sets and the lexicographically least one (or
    None), for a shard (n, k, first) with k even and at least 2. A balanced
    k-set is an odd half, k/2 odd offsets, plus an even half, k/2 even ones,
    so its packed sum is the odd half's plus the even half's. Fix an odd
    half O and let E < E' be even halves whose first difference is e < e'.
    Below e, the sorted sets O + E and O + E' both hold O's elements and the
    common prefix of E and E'; next, O + E holds e and O + E' something
    larger (e' or an odd element, never the even e). So O + E < O + E': the
    first passing even half gives the least nut set containing O, and the
    shard's least is the least of those over all O.
    """
    n, k, first = shard
    rows, tests, evens = _packed_table(n, k)
    passing = 0
    witness: tuple[int, ...] | None = None
    for rest in combinations(range(first + 2, n // 2, 2), k // 2 - 1):
        odd = (first,) + rest
        acc = sum(rows[s] for s in odd)
        least = None
        for even_sum, even in evens:
            total = acc + even_sum
            for mask, zero in tests:
                if total & mask == zero:
                    break
            else:
                passing += 1
                least = least or even
        if least:
            found = tuple(sorted(odd + least))
            witness = min(witness, found) if witness else found
    return passing, witness


def _balanced_count(m: int, k: int) -> int:
    """Number of parity-balanced k-subsets of {1, .., m}."""
    if k % 2:
        return 0
    return comb((m + 1) // 2, k // 2) * comb(m // 2, k // 2)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _run_shards(
    shards: list[tuple[int, int, int]], jobs: int
) -> list[tuple[int, tuple[int, ...] | None]]:
    """Scan every shard, in order, on at most jobs processes.

    The pool never has more workers than shards or usable CPUs: with the
    fork start method every worker is started up front.
    """
    workers = min(jobs, len(shards), _usable_cpus())
    if workers < 2:
        return [_walk(shard) for shard in shards]
    # Imported here because it adds ~20 ms to every CLI start. The default
    # start method is kept: the CLI has no threads when it forks, and spawn
    # would re-import the package in every worker.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        # A few chunks per worker: one shard per message costs more in pipe
        # round trips than small shards take to scan.
        chunksize = max(1, len(shards) // (4 * workers))
        return list(pool.map(_walk, shards, chunksize=chunksize))


def catalog(
    d: int,
    n_min: int,
    n_max: int,
    jobs: int = 1,
    balanced_only: bool = False,
) -> list[CatalogEntry]:
    """Existence catalog for degree d over every even order in [n_min, n_max].

    sets_enumerated counts every d/2-subset (only the balanced ones with
    balanced_only), sets_passing every nut set, and the witness is the
    lexicographically least nut set. An order is skipped when its
    C(n/2 - 1, d/2) candidate sets exceed CATALOG_MAX_SETS, in both modes,
    although the walk visits only the balanced ones: one ceiling keeps an
    entry the same with and without balanced_only. A range of more than
    CATALOG_MAX_ORDERS even orders raises CapacityError before any order is
    built. The result is deterministic for any job count.
    """
    if d < 0 or d % 2:
        raise ParameterError(f"degree must be a nonnegative even integer, got {d}")
    if n_min < 2:
        raise ParameterError(f"graph orders start at 2, got n_min={n_min}")
    if n_min > n_max:
        raise ParameterError(f"empty order range [{n_min}, {n_max}]")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    orders = n_max // 2 - (n_min + 1) // 2 + 1
    if orders > CATALOG_MAX_ORDERS:
        raise CapacityError(
            f"{orders} even orders in [{n_min}, {n_max}] exceed "
            f"the catalog range ceiling {CATALOG_MAX_ORDERS}"
        )
    k = d // 2
    entries: dict[int, CatalogEntry] = {}
    scanned = []
    for n in range(n_min + n_min % 2, n_max + 1, 2):
        m = n // 2 - 1
        # comb(m, k) is 0 for k > m, and is never formed above the order ceiling.
        if n > CATALOG_MAX_ORDER or comb(m, k) > CATALOG_MAX_SETS:
            entries[n] = CatalogEntry(n, d, False, None, 0, 0, skipped=True)
        elif k > m:
            entries[n] = CatalogEntry(n, d, False, None, 0, 0)
        else:
            scanned.append(n)
    # Odd k and k = 0 admit no balanced nonempty set, hence no nut set.
    walked = scanned if k and k % 2 == 0 else []
    # The least odd offset of an odd half is at most n/2 - 1 - (k - 2).
    shards = [(n, k, first) for n in walked for first in range(1, n // 2 - k + 2, 2)]
    if sum(_balanced_count(n // 2 - 1, k) for n in walked) < POOL_MIN_SETS:
        jobs = 1
    found: dict[int, tuple[int, tuple[int, ...] | None]] = dict.fromkeys(scanned, (0, None))
    for (n, _, _), (passing, witness) in zip(shards, _run_shards(shards, jobs)):
        total, least = found[n]
        found[n] = (total + passing, min(filter(None, (least, witness)), default=None))
    for n, (passing, witness) in found.items():
        m = n // 2 - 1
        enumerated = _balanced_count(m, k) if balanced_only else comb(m, k)
        entries[n] = CatalogEntry(n, d, witness is not None, witness, enumerated, passing)
    return [entries[n] for n in sorted(entries)]

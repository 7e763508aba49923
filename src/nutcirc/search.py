"""Exhaustive existence search for circulant nut graphs by order and degree.

The catalog decides, for every generator set of the requested degree, the
spectral criterion of ``circulant.is_nut_spectral``: S is a nut set iff it is
parity balanced and, for every divisor b >= 3 of n, Phi_b does not divide
P_S(x) = sum over s in S of x^s + x^(n-s). The remainder of P_S modulo Phi_b
is linear in S, so it is the sum of the remainders of x^s + x^(n-s), and as
b divides n those depend only on s mod b. For each order, a residue table
holds, per offset s, the remainders for all such b side by side in one flat
integer tuple (phi(b) coefficients per b, n - 2 in all), built by
``polyalg.phi_remainder``.

For a walk over k-sets each row is packed into one int: coefficient i,
plus cmax (the table's largest |coefficient|), in the i-th field of
w = bit_length(2 * cmax * k) bits. A field of a sum of at most k rows then
lies in [0, 2 * cmax * k] and fits in w bits, so adding two packed ints adds
every field at once and never carries. The scan is a depth-first walk over
the parity-balanced subsets in lexicographic order that carries the running
sum, one int addition per level. A leaf's b-slice is zero exactly when
every field in it holds k * cmax, that is when ``total & mask_b`` equals
``base_b * k`` (masks and bases precomputed once per order and k); a leaf
is a nut set iff no b-slice is zero. Every step is exact integer
arithmetic, so the verdict is the spectral check's verdict. Unbalanced sets
are never visited, since no nut set is unbalanced: ``sets_enumerated`` is
the closed-form count of all d/2-subsets (of the balanced ones with
``balanced_only``), while ``sets_passing`` and the lexicographically least
witness come from the walk.

Work is split into shards by (order, leading element). A catalog whose walk
(the balanced sets of all its scanned orders) has at least
``POOL_MIN_SETS`` sets may run on one process pool; smaller ones run
serially, where starting the pool costs more than it saves. Shard results
merge in shard order, so the output (including witnesses) is identical for
any job count. Orders with more than ``capacity`` candidate sets are marked
skipped rather than silently truncated.

The case the paper leaves open, degree 4t with t even at an order n
divisible by four, is ``catalog(4 * t, n, n)``: the walk visits sets in
lexicographic order, so its witness is the least 4t-regular nut set of
order n. Orders n = 2 (mod 4) are covered by the ddprime family, which
``families.family_nut_check`` verifies; this module depends on
``circulant`` and ``polyalg`` only.
"""
from __future__ import annotations

import os
from functools import lru_cache
from math import comb
from typing import Optional

from .circulant import GeneratorSet
from .errors import ParameterError
from .polyalg import SparsePoly, divisors, euler_phi, phi_remainder
from .record import Record

DEFAULT_CAPACITY = 10**7
# Smallest walk, in balanced sets, that may use a process pool. Measured on
# a 2-core machine: serial wins below about 28 000 sets, the pool above
# about 60 000, and the two are even near 40 000.
POOL_MIN_SETS = 40_000


class CatalogEntry(Record):
    """Existence record for one (order, degree) pair."""

    __slots__ = ("n", "d", "exists", "witness", "sets_enumerated", "sets_passing", "skipped")
    _defaults = {"skipped": False}
    n: int
    d: int
    exists: bool
    witness: Optional[GeneratorSet]
    sets_enumerated: int
    sets_passing: int
    skipped: bool


def _residue_table(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]:
    """Remainders of x^s + x^(n-s) modulo Phi_b for every divisor b >= 3 of n.

    Returns (rows, slices). rows[s], for each offset 0 <= s < n/2,
    concatenates over those b, ascending, the phi(b) remainder coefficients;
    slices lists each b's (start, stop) in it. Modulo x^b - 1 the binomial
    is x^r + x^(b-r) with r = s mod b, the same for r and b - r, so each b
    costs b/2 + 1 divisions.
    """
    blocks: list[tuple[int, list[tuple[int, ...]]]] = []
    slices: list[tuple[int, int]] = []
    width = 0
    for b in divisors(n):
        if b < 3:
            continue
        phi = euler_phi(b)
        half = []
        for r in range(b // 2 + 1):
            rem = phi_remainder(SparsePoly([(r, 1), (-r % b, 1)]), b).coeffs
            half.append(rem + (0,) * (phi - len(rem)))
        blocks.append((b, [half[min(r, b - r)] for r in range(b)]))
        slices.append((width, width + phi))
        width += phi
    rows = tuple(
        tuple(c for b, block in blocks for c in block[s % b]) for s in range(n // 2)
    )
    return rows, tuple(slices)


# Packed tables kept per process: shards of one order arrive together, so a
# few tables suffice, and the bound caps memory on long catalogs.
RESIDUE_CACHE_SIZE = 8


@lru_cache(maxsize=RESIDUE_CACHE_SIZE)
def _packed_table(n: int, k: int) -> tuple[tuple[int, ...], int, tuple[tuple[int, int], ...]]:
    """The residue table of order n packed for sums of k rows.

    Returns (rows, width, tests). rows[s] holds the table's row s as one
    int, coefficient i plus cmax (the table's largest |coefficient|) in bits
    [width*i, width*(i+1)). A field of a sum of at most k rows lies in
    [0, 2*cmax*k], which fits in width bits, so adding packed rows adds them
    field by field and never carries. tests holds, per divisor b, (mask_b,
    base_b * k), where base_b has cmax in every field of the b-slice: a sum
    of k rows has a zero b-slice exactly when ``total & mask_b`` equals
    ``base_b * k``.
    """
    table, slices = _residue_table(n)
    cmax = max(max(map(max, table)), -min(map(min, table)))
    width = (2 * cmax * k).bit_length()
    rows = []
    for row in table:
        packed = 0
        for c in reversed(row):
            packed = (packed << width) | (c + cmax)
        rows.append(packed)
    ones = (1 << width) - 1  # one field of ones
    tests = []
    for lo, hi in slices:
        mask = ((1 << (width * (hi - lo))) - 1) << (width * lo)
        tests.append((mask, mask // ones * cmax * k))
    return tuple(rows), width, tuple(tests)


def _walk(shard: tuple[int, int, int]) -> tuple[int, Optional[tuple[int, ...]]]:
    """Nut sets among the balanced k-sets of order n led by first, for a shard (n, k, first).

    Returns the number of nut sets and the lexicographically least one (or
    None). Each node adds its offset's packed row to the running sum acc; k
    must be even and at least 2.
    """
    n, k, first = shard
    rows, _, tests = _packed_table(n, k)
    m = n // 2 - 1
    passing = 0
    witness: Optional[tuple[int, ...]] = None

    def walk(start, stop, acc, prefix, odd_left, even_left):
        nonlocal passing, witness
        if odd_left + even_left == 1:
            # Last element: a single parity remains, so step by two.
            for s in range(start + ((start + odd_left) & 1), m + 1, 2):
                total = acc + rows[s]
                for mask, zero in tests:
                    if total & mask == zero:
                        break
                else:
                    passing += 1
                    if witness is None:
                        witness = prefix + (s,)
            return
        for s in range(start, stop):
            if s & 1:
                if not odd_left:
                    continue
                odd, even = odd_left - 1, even_left
            else:
                if not even_left:
                    continue
                odd, even = odd_left, even_left - 1
            # Enough odd and even offsets must remain above s.
            if (m + 1) // 2 - (s + 1) // 2 < odd or m // 2 - s // 2 < even:
                continue
            walk(s + 1, m + 1, acc + rows[s], prefix + (s,), odd, even)

    walk(first, first + 1, 0, (), k // 2, k // 2)
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
) -> list[tuple[int, Optional[tuple[int, ...]]]]:
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
    capacity: int = DEFAULT_CAPACITY,
) -> list[CatalogEntry]:
    """Existence catalog for degree d over every even order in [n_min, n_max].

    sets_enumerated counts every d/2-subset (only the balanced ones with
    balanced_only), sets_passing every nut set, and the witness is the
    lexicographically least nut set. An order is skipped when its
    C(n/2 - 1, d/2) candidate sets exceed capacity, in both modes, although
    the walk visits only the balanced ones: one ceiling keeps an entry the
    same with and without balanced_only. The result is deterministic for
    any job count.
    """
    if d < 0 or d % 2:
        raise ParameterError(f"degree must be a nonnegative even integer, got {d}")
    if n_min < 2:
        raise ParameterError(f"graph orders start at 2, got n_min={n_min}")
    if n_min > n_max:
        raise ParameterError(f"empty order range [{n_min}, {n_max}]")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    k = d // 2
    entries: dict[int, CatalogEntry] = {}
    scanned = []
    for n in range(n_min + n_min % 2, n_max + 1, 2):
        m = n // 2 - 1
        if k > m:
            entries[n] = CatalogEntry(n, d, False, None, 0, 0)
        elif comb(m, k) > capacity:
            entries[n] = CatalogEntry(n, d, False, None, 0, 0, skipped=True)
        else:
            scanned.append(n)
    # Odd k and k = 0 admit no balanced nonempty set, hence no nut set.
    walked = scanned if k and k % 2 == 0 else []
    shards = [(n, k, first) for n in walked for first in range(1, n // 2 - k + 1)]
    if sum(_balanced_count(n // 2 - 1, k) for n in walked) < POOL_MIN_SETS:
        jobs = 1
    found: dict[int, tuple[int, Optional[tuple[int, ...]]]] = dict.fromkeys(scanned, (0, None))
    for (n, _, _), (passing, witness) in zip(shards, _run_shards(shards, jobs)):
        total, least = found[n]
        found[n] = (total + passing, least or witness)
    for n, (passing, witness) in found.items():
        m = n // 2 - 1
        enumerated = _balanced_count(m, k) if balanced_only else comb(m, k)
        g = GeneratorSet(n, witness) if witness else None
        entries[n] = CatalogEntry(n, d, g is not None, g, enumerated, passing)
    return [entries[n] for n in sorted(entries)]

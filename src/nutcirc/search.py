"""Exhaustive existence search for circulant nut graphs by order and degree.

The catalog decides, for every generator set of the requested degree, the
spectral criterion of ``circulant.is_nut_spectral``: S is a nut set iff it is
parity balanced and, for every divisor b >= 3 of n, Phi_b does not divide
P_S(x) = sum over s in S of x^s + x^(n-s). The remainder of P_S modulo Phi_b
is linear in S, so it is the sum of the remainders of x^s + x^(n-s), and as
b divides n those depend only on s mod b. For each order, a residue table
holds, per offset s, the remainders for all such b side by side in one flat
integer tuple (phi(b) coefficients per b, n - 2 in all), built once by
``polyalg.phi_remainder``.

The scan is a depth-first walk over the parity-balanced subsets in
lexicographic order that carries the running sum of the table rows, one
tuple addition per level; a leaf is a nut set iff every b-slice of its sum
is nonzero. Every step is exact integer arithmetic, so the verdict is the
spectral check's verdict. Unbalanced sets are never visited, since no nut
set is unbalanced: ``sets_enumerated`` is the closed-form count of all
d/2-subsets (of the balanced ones with ``balanced_only``), while
``sets_passing`` and the lexicographically least witness come from the walk.

Work is split into shards by (order, leading element) and may run on one
process pool for the whole catalog; shard results merge in shard order, so
the output (including witnesses) is identical for any job count. Searches
above the configured candidate ceiling are marked skipped rather than
silently truncated.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import add
from typing import Iterator, Optional

from .circulant import GeneratorSet, parity_balanced
from .errors import ParameterError
from .families import VARIANT_DDPRIME, FamilyId, build_family, family_nut_check
from .polyalg import SparsePoly, divisors, euler_phi, phi_remainder

DEFAULT_CAPACITY = 10**7


@dataclass(frozen=True)
class CatalogEntry:
    """Existence record for one (order, degree) pair."""

    n: int
    d: int
    exists: bool
    witness: Optional[GeneratorSet]
    sets_enumerated: int
    sets_passing: int
    skipped: bool = False


@dataclass(frozen=True)
class ProbeEntry:
    """One probe result: brute-force search or family-membership control."""

    t: int
    n: int
    mode: str  # "search" or "family-control"
    found: bool
    witness: Optional[GeneratorSet]
    sets_tried: int
    skipped: bool = False


def enumerate_sets(n: int, d: int, balanced_only: bool = False) -> Iterator[GeneratorSet]:
    """All d/2-subsets of {1, .., n/2 - 1} in lexicographic order.

    With balanced_only, only parity-balanced subsets are yielded; that
    pruning is sound for nut searches because balance is necessary.
    """
    if n < 2 or n % 2:
        raise ParameterError(f"enumerate_sets needs an even order >= 2, got {n}")
    if d < 0 or d % 2:
        raise ParameterError(f"degree must be a nonnegative even integer, got {d}")
    k = d // 2
    if k > n // 2 - 1:
        raise ParameterError(f"degree {d} is not realizable at order {n}")
    for combo in combinations(range(1, n // 2), k):
        g = GeneratorSet(n, combo)
        if not balanced_only or parity_balanced(g):
            yield g


# Residue tables kept per process: shards of one order arrive together, so a
# few tables suffice, and the bound caps memory on long catalogs.
RESIDUE_CACHE_SIZE = 8


@lru_cache(maxsize=RESIDUE_CACHE_SIZE)
def _residue_table(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]:
    """Remainders of x^s + x^(n-s) modulo Phi_b for every divisor b >= 3 of n.

    Returns (rows, slices). rows[s], for each offset 0 <= s < n/2,
    concatenates over those b, ascending, the phi(b) remainder coefficients;
    slices lists each b's (start, stop) in it. Modulo x^b - 1 the binomial
    is x^(s mod b) + x^(-s mod b), so each b costs b divisions.
    """
    blocks: list[tuple[int, list[tuple[int, ...]]]] = []
    slices: list[tuple[int, int]] = []
    width = 0
    for b in divisors(n):
        if b < 3:
            continue
        phi = euler_phi(b)
        block = []
        for r in range(b):
            rem = phi_remainder(SparsePoly([(r, 1), (-r % b, 1)]), b).coeffs
            block.append(rem + (0,) * (phi - len(rem)))
        blocks.append((b, block))
        slices.append((width, width + phi))
        width += phi
    rows = tuple(
        tuple(c for b, block in blocks for c in block[s % b]) for s in range(n // 2)
    )
    return rows, tuple(slices)


def _nut_sets(n: int, k: int, firsts: range) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every nut k-set of order n whose least element lies in firsts.

    Yields (elements, visited) in lexicographic order, where visited counts
    the balanced sets walked so far, this one included. Only balanced sets
    are walked, each node adding its offset's row to the running sum acc;
    k must be even and at least 2.
    """
    rows, slices = _residue_table(n)
    m = n // 2 - 1
    visited = 0

    def walk(start, stop, acc, prefix, odd_left, even_left):
        nonlocal visited
        if odd_left + even_left == 1:
            # Last element: a single parity remains, so step by two.
            for s in range(start + ((start + odd_left) & 1), m + 1, 2):
                visited += 1
                total = tuple(map(add, acc, rows[s]))
                if all(any(total[lo:hi]) for lo, hi in slices):
                    yield prefix + (s,), visited
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
            yield from walk(s + 1, m + 1, tuple(map(add, acc, rows[s])), prefix + (s,), odd, even)

    yield from walk(firsts.start, firsts.stop, (0,) * slices[-1][1], (), k // 2, k // 2)


def _balanced_count(m: int, k: int) -> int:
    """Number of parity-balanced k-subsets of {1, .., m}."""
    if k % 2:
        return 0
    return comb((m + 1) // 2, k // 2) * comb(m // 2, k // 2)


def _scan_shard(shard: tuple[int, int, int]) -> tuple[int, Optional[tuple[int, ...]]]:
    """Nut sets with a fixed order and leading element: (count, least one)."""
    n, k, first = shard
    passing, witness = 0, None
    for elements, _ in _nut_sets(n, k, range(first, first + 1)):
        passing += 1
        if witness is None:
            witness = elements
    return passing, witness


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
        return [_scan_shard(shard) for shard in shards]
    # Imported here because it adds ~20 ms to every CLI start. The default
    # start method is kept: the CLI has no threads when it forks, and spawn
    # would re-import the package in every worker.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        # A few chunks per worker: one shard per message costs more in pipe
        # round trips than small shards take to scan.
        chunksize = max(1, len(shards) // (4 * workers))
        return list(pool.map(_scan_shard, shards, chunksize=chunksize))


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
    lexicographically least nut set. The result is deterministic for any job
    count.
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
    orders = range(n_min + n_min % 2, n_max + 1, 2)
    # Odd k and k = 0 admit no balanced nonempty set, hence no nut set.
    scanned = [
        n
        for n in orders
        if k and k % 2 == 0 and k <= n // 2 - 1 and comb(n // 2 - 1, k) <= capacity
    ]
    shards = [(n, k, first) for n in scanned for first in range(1, n // 2 - k + 1)]
    found: dict[int, tuple[int, Optional[tuple[int, ...]]]] = {}
    for (n, _, _), (passing, witness) in zip(shards, _run_shards(shards, jobs)):
        total, least = found.get(n, (0, None))
        found[n] = (total + passing, least if least is not None else witness)
    entries = []
    for n in orders:
        m = n // 2 - 1
        if k > m:
            entries.append(CatalogEntry(n, d, False, None, 0, 0))
        elif comb(m, k) > capacity:
            entries.append(CatalogEntry(n, d, False, None, 0, 0, skipped=True))
        else:
            passing, witness = found.get(n, (0, None))
            enumerated = _balanced_count(m, k) if balanced_only else comb(m, k)
            g = GeneratorSet(n, witness) if witness is not None else None
            entries.append(CatalogEntry(n, d, g is not None, g, enumerated, passing))
    return entries


def _first_witness(n: int, d: int, capacity: int) -> tuple[Optional[GeneratorSet], int, bool]:
    """Least nut set of degree d (a positive multiple of 4), and balanced sets tried."""
    k = d // 2
    m = n // 2 - 1
    if k > m:
        return None, 0, False
    if comb(m, k) > capacity:
        return None, 0, True
    for elements, tried in _nut_sets(n, k, range(1, m + 1)):
        return GeneratorSet(n, elements), tried, False
    return None, _balanced_count(m, k), False


def conjecture_probe(
    t_values: list[int],
    n_max_offset: int,
    capacity: int = DEFAULT_CAPACITY,
) -> list[ProbeEntry]:
    """Probe 4t-regular nut existence for even t over orders 4t+8 .. 4t+offset.

    Orders divisible by four are the open case and are brute-force searched
    (first witness, balanced pruning). Orders congruent to 2 mod 4 inside the
    range are covered by the block family and are verified through it as
    controls. Searches above the capacity ceiling are marked skipped.
    """
    entries: list[ProbeEntry] = []
    for t in t_values:
        if t < 4 or t % 2:
            raise ParameterError(f"conjecture probe needs even t >= 4, got {t}")
        d = 4 * t
        for n in range(4 * t + 8, 4 * t + n_max_offset + 1, 2):
            if n % 4 == 0:
                witness, tried, skipped = _first_witness(n, d, capacity)
                entries.append(
                    ProbeEntry(t, n, "search", witness is not None, witness, tried, skipped)
                )
            else:
                g = build_family(FamilyId(VARIANT_DDPRIME, t, n))
                verdict = family_nut_check(FamilyId(VARIANT_DDPRIME, t, n))
                entries.append(
                    ProbeEntry(t, n, "family-control", verdict.is_nut, g if verdict.is_nut else None, 1)
                )
    return entries

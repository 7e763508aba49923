"""Exhaustive existence search for circulant nut graphs by order and degree.

The catalog sweeps every generator set of the requested degree in
lexicographic order, certifies candidates with the spectral check, and
records the lexicographically least witness together with enumeration
statistics. Work can be split across processes by leading element; the merge
is associative, so the output (including witnesses) is identical for any job
count. Searches above the configured candidate ceiling are marked skipped
rather than silently truncated.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Optional

from .circulant import GeneratorSet, is_nut_spectral, parity_balanced
from .errors import ParameterError
from .families import VARIANT_DDPRIME, FamilyId, build_family, family_nut_check

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


def _scan_block(args: tuple[int, int, int, bool]) -> tuple[int, int, Optional[tuple[int, ...]]]:
    """Scan all sets with a fixed leading element; returns (enumerated, passing, first witness)."""
    n, k, first, balanced_only = args
    enumerated = 0
    passing = 0
    witness: Optional[tuple[int, ...]] = None
    for rest in combinations(range(first + 1, n // 2), k - 1):
        g = GeneratorSet(n, (first,) + rest)
        if balanced_only and not parity_balanced(g):
            continue
        enumerated += 1
        if is_nut_spectral(g).is_nut:
            passing += 1
            if witness is None:
                witness = g.elements
    return enumerated, passing, witness


def _catalog_one_order(
    n: int, d: int, jobs: int, balanced_only: bool, capacity: int
) -> CatalogEntry:
    k = d // 2
    if k > n // 2 - 1:
        return CatalogEntry(n, d, False, None, 0, 0)
    if comb(n // 2 - 1, k) > capacity:
        return CatalogEntry(n, d, False, None, 0, 0, skipped=True)
    if k == 0:
        g = GeneratorSet(n, ())
        verdict = is_nut_spectral(g)
        return CatalogEntry(n, d, verdict.is_nut, g if verdict.is_nut else None, 1, int(verdict.is_nut))
    firsts = list(range(1, n // 2 - (k - 1)))
    tasks = [(n, k, first, balanced_only) for first in firsts]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan_block, tasks))
    else:
        results = [_scan_block(task) for task in tasks]
    enumerated = sum(r[0] for r in results)
    passing = sum(r[1] for r in results)
    witness_elems = next((r[2] for r in results if r[2] is not None), None)
    witness = GeneratorSet(n, witness_elems) if witness_elems is not None else None
    return CatalogEntry(n, d, witness is not None, witness, enumerated, passing)


def catalog(
    d: int,
    n_min: int,
    n_max: int,
    jobs: int = 1,
    balanced_only: bool = False,
    capacity: int = DEFAULT_CAPACITY,
) -> list[CatalogEntry]:
    """Existence catalog for degree d over every even order in [n_min, n_max].

    For each order the full lexicographic enumeration runs (balanced pruning
    optional), so sets_passing counts every certified set and the witness is
    the lexicographically least one. The result is deterministic for any job
    count.
    """
    if d < 0 or d % 2:
        raise ParameterError(f"degree must be a nonnegative even integer, got {d}")
    if n_min > n_max:
        raise ParameterError(f"empty order range [{n_min}, {n_max}]")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    start = n_min if n_min % 2 == 0 else n_min + 1
    return [
        _catalog_one_order(n, d, jobs, balanced_only, capacity)
        for n in range(start, n_max + 1, 2)
    ]


def _first_witness(n: int, d: int, capacity: int) -> tuple[Optional[GeneratorSet], int, bool]:
    """Lexicographically least nut generator set, early-stopped; balanced pruning on."""
    k = d // 2
    if k > n // 2 - 1:
        return None, 0, False
    if comb(n // 2 - 1, k) > capacity:
        return None, 0, True
    tried = 0
    for g in enumerate_sets(n, d, balanced_only=True):
        tried += 1
        if is_nut_spectral(g).is_nut:
            return g, tried, False
    return None, tried, False


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

"""Tests for the existence catalog: the packed residue walk, its shards and pool."""
from __future__ import annotations

import concurrent.futures
import random
from itertools import combinations
from math import comb

import pytest

from nutcirc import search
from nutcirc.circulant import GeneratorSet, is_nut_kernel, is_nut_spectral, parity_balanced
from nutcirc.errors import ParameterError
from nutcirc.search import CatalogEntry, catalog


def enumerate_sets(n, d, balanced_only=False):
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


def reference_catalog(d, n_min, n_max, balanced_only):
    """The per-set scan the residue-table walk replaced: enumerate, then check each set."""
    entries = []
    for n in range(n_min + n_min % 2, n_max + 1, 2):
        if d // 2 > n // 2 - 1:
            entries.append(CatalogEntry(n, d, False, None, 0, 0))
            continue
        enumerated, passing, witness = 0, 0, None
        for g in enumerate_sets(n, d, balanced_only):
            enumerated += 1
            if is_nut_spectral(g).is_nut:
                passing += 1
                witness = witness or g
        entries.append(CatalogEntry(n, d, witness is not None, witness, enumerated, passing))
    return entries


def test_enumerate_counts_unbalanced():
    sets = list(enumerate_sets(14, 8, balanced_only=False))
    assert len(sets) == comb(6, 4) == 15
    assert sets == sorted(sets, key=lambda g: g.elements)


def test_enumerate_counts_balanced():
    sets = list(enumerate_sets(8, 4, balanced_only=True))
    assert [g.elements for g in sets] == [(1, 2), (2, 3)]
    assert len(list(enumerate_sets(16, 8, balanced_only=True))) == 18


def test_enumerate_validation():
    with pytest.raises(ParameterError):
        list(enumerate_sets(14, 7))
    with pytest.raises(ParameterError):
        list(enumerate_sets(8, 8))
    with pytest.raises(ParameterError):
        list(enumerate_sets(9, 4))


def test_catalog_degree_four():
    entries = {e.n: e for e in catalog(4, 6, 20)}
    assert not entries[6].exists
    for n in range(8, 21, 2):
        assert entries[n].exists, n
        assert entries[n].witness is not None
        assert entries[n].sets_enumerated == comb(n // 2 - 1, 2)


def test_catalog_degree_six_is_empty():
    assert not any(e.exists for e in catalog(6, 8, 16))


def test_catalog_witnesses_are_lexicographically_least_and_valid():
    for entry in catalog(8, 14, 20):
        if not entry.exists:
            continue
        witness = entry.witness
        assert is_nut_spectral(witness).is_nut
        assert is_nut_kernel(witness).is_nut
        for g in enumerate_sets(entry.n, entry.d):
            if g.elements == witness.elements:
                break
            assert not is_nut_spectral(g).is_nut


@pytest.fixture
def real_pool(monkeypatch):
    """Send every catalog with jobs > 1 to a real two-worker pool.

    Returns the list of worker counts of the pools entered.
    """
    entered = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __enter__(self):
            entered.append(self._max_workers)
            return super().__enter__()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(search, "POOL_MIN_SETS", 0)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    return entered


def test_catalog_deterministic_across_jobs(real_pool):
    solo = catalog(8, 12, 18, jobs=1)
    multi = catalog(8, 12, 18, jobs=3)
    assert real_pool == [2]
    assert solo == multi


def test_catalog_matches_per_set_reference():
    grid = [(d, 36) for d in range(0, 11, 2)] + [(12, 34)]
    for d, n_max in grid:
        for balanced_only in (False, True):
            assert catalog(d, 2, n_max, balanced_only=balanced_only) == reference_catalog(
                d, 2, n_max, balanced_only
            ), (d, balanced_only)


def test_catalog_counts_match_enumeration():
    for n in range(2, 27, 2):
        for k in range(0, n // 2):
            for balanced_only in (False, True):
                (entry,) = catalog(2 * k, n, n, balanced_only=balanced_only)
                assert entry.sets_enumerated == len(list(enumerate_sets(n, 2 * k, balanced_only)))


def test_catalog_jobs_on_one_order(real_pool):
    assert catalog(8, 30, 30, jobs=2) == catalog(8, 30, 30, jobs=1)
    assert real_pool == [2]


def test_catalog_pool_is_clamped(monkeypatch):
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return list(map(fn, items))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 64)
    # Order 50 has 7 possible leading elements of an 18-set, and enough
    # balanced 18-sets for the pool.
    assert search._balanced_count(24, 18) >= search.POOL_MIN_SETS
    assert catalog(36, 50, 50, jobs=10**8) == catalog(36, 50, 50)
    assert workers == [7]
    monkeypatch.setattr(search, "_usable_cpus", lambda: 3)
    assert catalog(8, 14, 60, jobs=10**8) == catalog(8, 14, 60)
    assert workers == [7, 3]


def test_small_catalog_runs_serially(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a catalog below POOL_MIN_SETS started a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 64)
    # The balanced 4-sets of orders 12..44: 11 153, below the threshold.
    walk = sum(search._balanced_count(n // 2 - 1, 4) for n in range(12, 45, 2))
    assert walk == 11153 < search.POOL_MIN_SETS
    assert catalog(8, 12, 44, jobs=2) == catalog(8, 12, 44)


# Degree 12 on orders 16..48 and degree 16 on orders 22..40, recorded from the
# tuple walk that the packed walk replaced: (n, C(n/2 - 1, d/2), balanced
# sets, sets_passing, least witness).
PINNED_CATALOGS = {
    (12, 16, 48): [
        (16, 7, 4, 4, (1, 2, 3, 4, 5, 6)),
        (18, 28, 16, 6, (1, 2, 3, 4, 5, 8)),
        (20, 84, 40, 32, (1, 2, 3, 4, 5, 6)),
        (22, 210, 100, 90, (1, 2, 3, 4, 5, 6)),
        (24, 462, 200, 96, (1, 2, 3, 4, 5, 8)),
        (26, 924, 400, 380, (1, 2, 3, 4, 5, 6)),
        (28, 1716, 700, 612, (1, 2, 3, 4, 5, 10)),
        (30, 3003, 1225, 472, (1, 2, 3, 4, 5, 8)),
        (32, 5005, 1960, 1960, (1, 2, 3, 4, 5, 6)),
        (34, 8008, 3136, 3080, (1, 2, 3, 4, 5, 6)),
        (36, 12376, 4704, 2226, (1, 2, 3, 4, 5, 8)),
        (38, 18564, 7056, 6972, (1, 2, 3, 4, 5, 6)),
        (40, 27132, 10080, 8240, (1, 2, 3, 4, 5, 6)),
        (42, 38760, 14400, 6534, (1, 2, 3, 4, 5, 10)),
        (44, 54264, 19800, 19080, (1, 2, 3, 4, 5, 6)),
        (46, 74613, 27225, 27060, (1, 2, 3, 4, 5, 6)),
        (48, 100947, 36300, 18492, (1, 2, 3, 4, 5, 8)),
    ],
    (16, 22, 40): [
        (22, 45, 25, 20, (1, 2, 3, 4, 5, 6, 7, 8)),
        (24, 165, 75, 14, (1, 2, 3, 4, 5, 6, 9, 10)),
        (26, 495, 225, 210, (1, 2, 3, 4, 5, 6, 7, 8)),
        (28, 1287, 525, 186, (1, 2, 3, 4, 5, 6, 7, 10)),
        (30, 3003, 1225, 536, (1, 2, 3, 4, 5, 6, 7, 12)),
        (32, 6435, 2450, 1152, (1, 2, 3, 4, 5, 6, 7, 10)),
        (34, 12870, 4900, 4830, (1, 2, 3, 4, 5, 6, 7, 8)),
        (36, 24310, 8820, 2592, (1, 2, 3, 4, 5, 6, 9, 10)),
        (38, 43758, 15876, 15750, (1, 2, 3, 4, 5, 6, 7, 8)),
        (40, 75582, 26460, 11096, (1, 2, 3, 4, 5, 6, 7, 10)),
    ],
}


def test_catalog_d12_d16_entries_unchanged():
    # Both catalogs are above POOL_MIN_SETS, so jobs=2 runs a real pool.
    for (d, n_min, n_max), rows in PINNED_CATALOGS.items():
        for balanced_only, jobs in ((False, 1), (True, 2)):
            expected = [
                CatalogEntry(n, d, True, GeneratorSet(n, w), bal if balanced_only else full, passing)
                for n, full, bal, passing, w in rows
            ]
            got = catalog(d, n_min, n_max, jobs=jobs, balanced_only=balanced_only)
            assert got == expected, (d, balanced_only)


def test_packed_sums_unpack_to_tuple_sums():
    rng = random.Random(6)
    for n, k in ((36, 2), (44, 4), (48, 6), (60, 8), (420, 4), (420, 12), (840, 8)):
        table, _ = search._residue_table(n)
        rows, width, _ = search._packed_table(n, k)
        cmax = max(abs(c) for row in table for c in row)
        assert cmax == (3 if n in (420, 840) else 2)
        ones = (1 << width) - 1
        fields = len(table[0])
        offsets = range(1, n // 2)
        for _ in range(40):
            subset = rng.sample(offsets, k)
            total = sum(rows[s] for s in subset)
            unpacked = [(total >> (width * i)) & ones for i in range(fields)]
            sums = [sum(column) + k * cmax for column in zip(*(table[s] for s in subset))]
            assert unpacked == sums and total >> (width * fields) == 0, (n, k, subset)
        # The k offsets with the largest (smallest) coefficient i give field i
        # its largest (smallest) value over all k-sets, so if these fit in
        # width bits, no k-set carries out of any field.
        for i, column in enumerate(zip(*table)):
            ranked = sorted(offsets, key=column.__getitem__)
            for subset in (ranked[:k], ranked[-k:]):
                field = (sum(rows[s] for s in subset) >> (width * i)) & ones
                assert field == sum(column[s] for s in subset) + k * cmax, (n, k, i)


def test_packed_leaf_test_matches_tuple_slices():
    rng = random.Random(7)
    # Every k-set of three small orders, many of them with a zero slice, then
    # random k-sets of a large one.
    cases = [(n, k, combinations(range(1, n // 2), k)) for n, k in ((24, 4), (36, 4), (30, 6))]
    cases.append((420, 4, (rng.sample(range(1, 210), 4) for _ in range(300))))
    zero_seen = 0
    for n, k, subsets in cases:
        table, slices = search._residue_table(n)
        rows, _, tests = search._packed_table(n, k)
        for subset in subsets:
            sums = [sum(column) for column in zip(*(table[s] for s in subset))]
            zero_slices = [not any(sums[lo:hi]) for lo, hi in slices]
            total = sum(rows[s] for s in subset)
            assert [total & mask == zero for mask, zero in tests] == zero_slices, (n, subset)
            zero_seen += any(zero_slices)
    assert zero_seen


def test_catalog_balanced_pruning_preserves_existence():
    for d in (2, 4, 6, 8):
        full = catalog(d, 6, 20, balanced_only=False)
        pruned = catalog(d, 6, 20, balanced_only=True)
        assert [e.exists for e in full] == [e.exists for e in pruned]
        assert [e.witness for e in full] == [e.witness for e in pruned]


def test_catalog_capacity_marks_skipped():
    entries = catalog(8, 20, 24, capacity=10)
    assert all(e.skipped for e in entries)
    assert all(not e.exists and e.witness is None for e in entries)


def test_catalog_capacity_counts_unbalanced_sets_under_balanced():
    # Order 20, degree 8: 60 balanced 4-sets among C(9, 4) = 126. The ceiling
    # counts all 126 in both modes, so a capacity of 100 skips the order.
    assert search._balanced_count(9, 4) == 60 < 100 < comb(9, 4)
    for balanced_only in (False, True):
        (entry,) = catalog(8, 20, 20, balanced_only=balanced_only, capacity=100)
        assert entry == CatalogEntry(20, 8, False, None, 0, 0, skipped=True)


def test_catalog_validation():
    with pytest.raises(ParameterError):
        catalog(8, 20, 10)
    with pytest.raises(ParameterError):
        catalog(7, 10, 20)
    with pytest.raises(ParameterError):
        catalog(8, 10, 20, jobs=0)
    with pytest.raises(ParameterError):
        catalog(0, -4, 4)
    with pytest.raises(ParameterError):
        catalog(4, 1, 10)


def test_catalog_unrealizable_degree_reports_nonexistence():
    entries = {e.n: e for e in catalog(8, 8, 12)}
    assert not entries[8].exists and entries[8].sets_enumerated == 0


def test_degree_constraint_sweep():
    # Over every even order up to 24 and every realizable degree: a nut
    # verdict forces 4 | d, and degree 4t never occurs at order 4t + 2.
    for n in range(4, 25, 2):
        for k in range(0, n // 2):
            d = 2 * k
            for g in enumerate_sets(n, d):
                if is_nut_spectral(g).is_nut:
                    assert d % 4 == 0, (n, d, g.elements)
                    assert n != d + 2, (n, d, g.elements)

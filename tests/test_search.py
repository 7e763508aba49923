"""Tests for the existence catalog and the conjecture probe."""
from __future__ import annotations

import concurrent.futures
from math import comb

import pytest

from nutcirc import search
from nutcirc.circulant import GeneratorSet, is_nut_kernel, is_nut_spectral
from nutcirc.errors import ParameterError
from nutcirc.search import CatalogEntry, ProbeEntry, catalog, conjecture_probe, enumerate_sets


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


def test_catalog_deterministic_across_jobs():
    solo = catalog(8, 12, 18, jobs=1)
    multi = catalog(8, 12, 18, jobs=3)
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


def test_catalog_jobs_on_one_order():
    assert catalog(8, 30, 30, jobs=2) == catalog(8, 30, 30, jobs=1)


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
    # Orders 14 and 16 have 3 and 4 possible leading elements of a 4-set.
    assert catalog(8, 14, 16, jobs=10**8) == catalog(8, 14, 16)
    assert workers == [7]
    monkeypatch.setattr(search, "_usable_cpus", lambda: 3)
    assert catalog(8, 14, 30, jobs=10**8) == catalog(8, 14, 30)
    assert workers == [7, 3]


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


def test_conjecture_probe_t4():
    entries = conjecture_probe([4], 16)
    by_n = {e.n: e for e in entries}
    assert sorted(by_n) == [24, 26, 28, 30, 32]
    for n in (24, 28, 32):
        entry = by_n[n]
        assert entry.mode == "search"
        assert entry.found and entry.witness is not None
        assert is_nut_spectral(entry.witness).is_nut
    for n in (26, 30):
        entry = by_n[n]
        assert entry.mode == "family-control"
        assert entry.found and entry.witness is not None
        assert is_nut_spectral(entry.witness).is_nut


def test_conjecture_probe_t4_entries_unchanged():
    def search_entry(n, witness, tried):
        return ProbeEntry(4, n, "search", True, GeneratorSet(n, witness), tried)

    def control_entry(n, witness):
        return ProbeEntry(4, n, "family-control", True, GeneratorSet(n, witness), 1)

    assert conjecture_probe([4], 16) == [
        search_entry(24, (1, 2, 3, 4, 5, 6, 9, 10), 5),
        control_entry(26, (1, 2, 3, 7, 8, 10, 11, 12)),
        search_entry(28, (1, 2, 3, 4, 5, 6, 7, 10), 2),
        control_entry(30, (1, 2, 3, 8, 9, 12, 13, 14)),
        search_entry(32, (1, 2, 3, 4, 5, 6, 7, 10), 2),
    ]


def test_first_witness_without_nut_counts_every_balanced_set():
    assert search._first_witness(16, 8, search.DEFAULT_CAPACITY) == (None, 18, False)


def test_conjecture_probe_empty_and_validation():
    assert conjecture_probe([], 16) == []
    with pytest.raises(ParameterError):
        conjecture_probe([3], 16)
    with pytest.raises(ParameterError):
        conjecture_probe([2], 16)


def test_conjecture_probe_capacity_skip():
    entries = conjecture_probe([4], 8, capacity=5)
    searched = [e for e in entries if e.mode == "search"]
    assert searched and all(e.skipped and not e.found for e in searched)


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

"""Tests for the existence catalog: the packed residues and the join.

Each order is walked once: its rows are built by rotation and its balanced
sets walked as a join, each odd half looking up the even halves it fails
with in one bucket per divisor. ``searchref`` keeps the walk this replaced,
one ``phi_fold`` per residue and one test per leaf and divisor, and the
differential tests below compare the two order by order.
"""
from __future__ import annotations

import random
import sys
import time
import tracemalloc
from itertools import accumulate, combinations
from math import comb

import pytest
import searchref

from nutcirc import search
from nutcirc.circulant import (
    KERNEL_MAX_ORDER,
    GeneratorSet,
    is_nut_kernel,
    is_nut_spectral,
    parity_balanced,
    spectral_indices,
)
from nutcirc.errors import CapacityError, ParameterError
from nutcirc.polyalg import SparsePoly, euler_phi, phi_fold, phi_remainder, prime_factorization
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
                witness = witness or g.elements
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
    for entry in catalog(8, 14, 20) + catalog(12, 16, 24):
        if not entry.exists:
            continue
        witness = GeneratorSet(entry.n, entry.witness)
        assert is_nut_spectral(witness).is_nut
        assert is_nut_kernel(witness).is_nut
        for g in enumerate_sets(entry.n, entry.d):
            if g.elements == witness.elements:
                break
            assert not is_nut_spectral(g).is_nut


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


def test_each_order_packs_its_residues_once(monkeypatch):
    # Orders 10 and 12 hold no 6-set; every other order is walked once, in
    # ascending order, and builds its rows once.
    calls = []
    pack = search._pack_residues

    def counting(n, k):
        calls.append((n, k))
        return pack(n, k)

    monkeypatch.setattr(search, "_pack_residues", counting)
    assert catalog(12, 10, 40)
    assert calls == [(n, 6) for n in range(14, 41, 2)]


# Degree 12 on orders 16..48 and degree 16 on orders 22..40, recorded from the
# tuple walk that the packed walk replaced, and degree 20 on orders 24..44,
# recorded from the depth-first packed walk that the odd-by-even walk
# replaced: (n, C(n/2 - 1, d/2), balanced sets, sets_passing, least witness).
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
    (20, 24, 44): [
        (24, 11, 6, 4, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
        (26, 66, 36, 30, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
        (28, 286, 126, 114, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
        (30, 1001, 441, 168, (1, 2, 3, 4, 5, 6, 7, 8, 9, 14)),
        (32, 3003, 1176, 1176, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
        (34, 8008, 3136, 3080, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
        (36, 19448, 7056, 4380, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
        (38, 43758, 15876, 15750, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
        (40, 92378, 31752, 24728, (1, 2, 3, 4, 5, 6, 7, 8, 9, 12)),
        (42, 184756, 63504, 37272, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
        (44, 352716, 116424, 114000, (1, 2, 3, 4, 5, 6, 7, 8, 9, 14)),
    ],
}


def test_catalog_d12_d16_entries_unchanged():
    for (d, n_min, n_max), rows in PINNED_CATALOGS.items():
        for balanced_only in (False, True):
            expected = [
                CatalogEntry(n, d, True, w, bal if balanced_only else full, passing)
                for n, full, bal, passing, w in rows
            ]
            got = catalog(d, n_min, n_max, balanced_only=balanced_only)
            assert got == expected, (d, balanced_only)


def test_pinned_witnesses_are_nut_sets_by_both_routes():
    # The catalog returns bare offsets; wrapping them validates the set.
    for (d, _, _), rows in PINNED_CATALOGS.items():
        for n, _, _, _, w in rows:
            g = GeneratorSet(n, w)
            assert g.degree == d
            assert is_nut_spectral(g).is_nut and is_nut_kernel(g).is_nut, (n, w)


def reference_residues(n):
    """Per offset 0 <= s < n/2, the remainders of x^s + x^(n-s) modulo each Phi_b.

    Returns (table, slices): table[s] concatenates, over the divisors b >= 3
    of n ascending, the remainder padded to phi(b) coefficients, and slices
    lists each b's (start, stop) in it. Every binomial is divided as it is,
    without the rotations of one fold that ``_pack_residues`` builds its
    rows from, so the leaf test below checks them.
    """
    indices = [b for b, _ in spectral_indices(n)]
    table = []
    for s in range(n // 2):
        row = []
        for b in indices:
            rem = phi_remainder(SparsePoly([(s, 1), (n - s, 1)]), b).terms
            row += [rem.get(i, 0) for i in range(euler_phi(b))]
        table.append(row)
    bounds = list(accumulate((euler_phi(b) for b in indices), initial=0))
    return table, list(zip(bounds, bounds[1:]))


def reference_folds(n):
    """Per offset 0 <= s < n/2, the lowest phi(b) coefficients of each fold of x^s + x^(n-s).

    table[s] concatenates, over the divisors b >= 3 of n ascending,
    coefficients 0 .. phi(b) - 1 of ``phi_fold(x^s + x^(n-s), b)``. Every
    binomial is folded as it is, not rotated from the fold of 1 as in
    ``_pack_residues``, so the test below checks the rotation too.
    """
    indices = spectral_indices(n)
    table = []
    for s in range(n // 2):
        row = []
        for b, primes in indices:
            fold = phi_fold(SparsePoly([(s, 1), (n - s, 1)]), b, primes)
            row += [fold.get(i, 0) for i in range(euler_phi(b))]
        table.append(row)
    return table


def test_packed_sums_unpack_to_tuple_sums():
    rng = random.Random(6)
    cases = ((36, 2), (44, 4), (48, 6), (60, 8), (420, 4), (420, 12), (720, 4), (840, 8))
    for n, k in cases:
        table = reference_folds(n)
        rows, _ = search._pack_residues(n, k)
        width = (4 * k).bit_length()
        cmax = max(abs(c) for row in table for c in row)
        assert cmax == 2
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


def test_binomial_folds_lie_in_minus_two_to_two():
    # The packed field width, bit_length(4k), rests on every coefficient of
    # the fold of x^r + x^(b-r) lying in [-2, 2], with r = 0 reaching +-2 at
    # exponent 0: the 2^omega(b) terms of g_b sit at distinct exponents mod
    # b. A phi_fold that squared one binomial factor of g_b would reach 4.
    rng = random.Random(26)
    cases = [(b, range(b // 2 + 1)) for b in range(3, 301)]
    cases += [(b, [0, b // 2, *rng.sample(range(1, b // 2), 300)]) for b in (2310, 30030)]
    for b, residues in cases:
        primes = [q for q, _ in prime_factorization(b)]
        for r in residues:
            fold = phi_fold(SparsePoly([(r, 1), (b - r, 1)]), b, primes)
            assert all(-2 <= c <= 2 for c in fold.values()), (b, r)
            if r == 0:
                assert abs(fold.get(0, 0)) == 2, b


def test_packed_leaf_test_matches_tuple_slices():
    rng = random.Random(7)
    # Every k-set of three small orders, many of them with a zero slice, then
    # random k-sets of a large one.
    cases = [(n, k, combinations(range(1, n // 2), k)) for n, k in ((24, 4), (36, 4), (30, 6))]
    cases.append((420, 4, (rng.sample(range(1, 210), 4) for _ in range(300))))
    zero_seen = 0
    for n, k, subsets in cases:
        table, slices = reference_residues(n)
        rows, tests = search._pack_residues(n, k)
        for subset in subsets:
            sums = [sum(column) for column in zip(*(table[s] for s in subset))]
            zero_slices = [not any(sums[lo:hi]) for lo, hi in slices]
            total = sum(rows[s] for s in subset)
            assert [total & mask == zero for mask, zero in tests] == zero_slices, (n, subset)
            zero_seen += any(zero_slices)
    assert zero_seen


def test_rotated_rows_equal_one_fold_per_residue():
    # Rows from two rotations of one fold per divisor equal rows packed from
    # one phi_fold call per residue, at the orders with the most divisors
    # up to 3 000.
    for n in (720, 2310, 2520, 2880):
        for k in (2, 4, 6):
            assert search._pack_residues(n, k) == searchref.pack_residues(n, k), (n, k)


def test_join_matches_leaf_walk():
    # Every even order that holds a k-set, up to 120 at degree 8, 60 at 12
    # and 48 at 20: the join's count and witness equal the leaf-by-leaf walk's.
    for d, n_max in ((8, 120), (12, 60), (20, 48)):
        k = d // 2
        for n in range(2 * k + 2, n_max + 1, 2):
            assert search._walk(n, k) == searchref.walk(n, k), (d, n)


# The largest order up to which each degree walks every even order under
# CATALOG_MAX_BYTES (the next order is skipped), recorded from the join:
# (d, n, sets_passing, least witness).
LARGEST_ORDERS = [
    (4, 9238, 4926180, (1, 2)),
    (8, 646, 158518368, (1, 2, 3, 4)),
    (12, 190, 222345060, (1, 2, 3, 4, 5, 6)),
    (16, 112, 191074232, (1, 2, 3, 4, 5, 6, 7, 10)),
    (20, 82, 240358512, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
    (24, 76, 311891664, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14)),
]
# The largest order each degree walked under the ceilings of 10^7 candidate
# sets and of order 3 000 that CATALOG_MAX_BYTES replaced, recorded from the
# leaf walk: these entries stay as they were.
FORMER_LARGEST_ORDERS = [
    (4, 3000, 159600, (1, 12)),
    (8, 252, 932310, (1, 2, 3, 10)),
    (12, 94, 3134670, (1, 2, 3, 4, 5, 6)),
    (16, 64, 1340944, (1, 2, 3, 4, 5, 6, 7, 10)),
    (20, 56, 2432376, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
    (24, 54, 1572318, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16)),
]


def test_largest_admitted_orders_unchanged():
    for d, n, passing, witness in LARGEST_ORDERS:
        entry, after = catalog(d, n, n + 2)
        assert (entry.sets_passing, entry.witness) == (passing, witness), (d, n)
        assert not entry.skipped and after.skipped, (d, n)
    for d, n, passing, witness in FORMER_LARGEST_ORDERS:
        (entry,) = catalog(d, n, n)
        assert (entry.sets_passing, entry.witness) == (passing, witness), (d, n)


def _skip_pattern(monkeypatch, d, n_min, n_max):
    """Which orders catalog(d, n_min, n_max) skips, with every walk stubbed out.

    Each order is asked as a range of its own, since an entry is fixed by its
    order alone: the whole range would go over CATALOG_MAX_RANGE_BYTES.
    """
    monkeypatch.setattr(search, "_walk", lambda n, k: (0, None))
    return {n: catalog(d, n, n)[0].skipped for n in range(n_min + n_min % 2, n_max + 1, 2)}


def test_every_order_up_to_the_largest_is_walked(monkeypatch):
    for d, n, _, _ in LARGEST_ORDERS:
        skipped = _skip_pattern(monkeypatch, d, 2, n + 2)
        assert [m for m, s in skipped.items() if s] == [n + 2], d


def test_orders_the_former_ceilings_walked_are_still_walked(monkeypatch):
    # Up to order 3 000 the former ceilings walked every order with at most
    # 10^7 candidate sets C(n/2 - 1, d/2), at every degree.
    for d in range(0, 42, 2):
        skipped = _skip_pattern(monkeypatch, d, 2, 3000)
        for n, s in skipped.items():
            assert not (s and comb(n // 2 - 1, d // 2) <= 10**7), (d, n)


# Degree 4 at orders 1 000 to 3 000, and each higher degree near the largest
# order it walks.
PEAK_GRID = [
    (4, 1000),
    (4, 2000),
    (4, 3000),
    (8, 646),
    (12, 166),
    (16, 106),
    (20, 82),
    (24, 70),
    (40, 62),
    (40, 66),
]


@pytest.mark.parametrize("d, n", PEAK_GRID)
def test_walk_bytes_bound_the_measured_peak(d, n):
    # At degree 4 the rotation lists of _pack_residues set the peak at n =
    # 1 000 and 2 000 and come within 2% of it at 3 000. Near the largest admitted
    # orders of higher degrees the buckets' bitmasks set it, and at (40, 62)
    # the bound holds only with the tuples CPython keeps for reuse.
    k = d // 2
    tracemalloc.start()
    try:
        search._walk(n, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= search._walk_bytes(n, k) <= search.CATALOG_MAX_BYTES


def test_one_offset_halves_hold_their_rows_not_copies():
    # At degree 4 each even half is one offset, and its sum is its row. A
    # sum started from 0 copies the row: at order 3 000 those copies, half
    # the row bytes, raised the walk's tracemalloc peak 1.3 MB above the
    # residue build's, where without them it is under 0.1 MB above.
    n = 3000
    peaks = []
    for build in (search._pack_residues, search._walk):
        tracemalloc.start()
        try:
            build(n, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    rows = sum(map(sys.getsizeof, search._pack_residues(n, 2)[0]))
    assert peaks[1] - peaks[0] < rows / 10


# Ranges of orders that the former ceilings skipped and CATALOG_MAX_BYTES admits.
NEWLY_ADMITTED = [(4, 3002, 3010), (8, 254, 262), (12, 96, 102), (20, 58, 62), (40, 60, 64)]


def test_newly_admitted_witnesses_are_nut_sets():
    for d, n_min, n_max in NEWLY_ADMITTED:
        for entry in catalog(d, n_min, n_max):
            assert entry.exists and not entry.skipped, (d, entry.n)
            g = GeneratorSet(entry.n, entry.witness)
            assert g.degree == d and is_nut_spectral(g).is_nut, (d, entry.n)
            if entry.n <= KERNEL_MAX_ORDER:
                assert is_nut_kernel(g).is_nut, (d, entry.n)


def test_catalog_balanced_pruning_preserves_existence():
    for d in (2, 4, 6, 8):
        full = catalog(d, 6, 20, balanced_only=False)
        pruned = catalog(d, 6, 20, balanced_only=True)
        assert [e.exists for e in full] == [e.exists for e in pruned]
        assert [e.witness for e in full] == [e.witness for e in pruned]


def test_catalog_capacity_marks_skipped(monkeypatch):
    # A skipped order builds nothing: its bound reads n and d alone.
    def refuse(n, k):
        raise AssertionError(f"built order {n}")

    monkeypatch.setattr(search, "_pack_residues", refuse)
    assert catalog(8, 648, 648) == [CatalogEntry(648, 8, False, None, 0, 0, skipped=True)]
    monkeypatch.setattr(search, "CATALOG_MAX_BYTES", 10)
    entries = catalog(8, 20, 24)
    assert all(e.skipped for e in entries)
    assert all(not e.exists and e.witness is None for e in entries)


def test_catalog_order_ceiling_is_inclusive(monkeypatch):
    # [3, 9] and [4, 10] hold the even orders 4, 6, 8 (and 10): a ceiling of 3
    # admits the first range and refuses the second before any order is built.
    monkeypatch.setattr(search, "CATALOG_MAX_ORDERS", 3)
    assert [e.n for e in catalog(8, 3, 9)] == [4, 6, 8]
    with pytest.raises(CapacityError, match="4 even orders in \\[4, 10\\]"):
        catalog(8, 4, 10)
    # Without an entry class, building any entry fails at once: the refusal
    # of a huge range comes before the order loop.
    monkeypatch.setattr(search, "CatalogEntry", None)
    with pytest.raises(CapacityError):
        catalog(0, 2, 10**12)


def test_catalog_range_budget_refuses_before_any_walk(monkeypatch):
    # Degree 4 on orders 2..20 000 would walk 5 146 orders for about seven
    # minutes. Their bounds pass the budget near order 2 600, and the range
    # is refused at once, with no order built.
    def refuse(n, k):
        raise AssertionError(f"built order {n}")

    monkeypatch.setattr(search, "_pack_residues", refuse)
    started = time.perf_counter()
    with pytest.raises(CapacityError, match="exceed the catalog range budget of 2000000000 bytes"):
        catalog(4, 2, 20_000)
    assert time.perf_counter() - started < 1


def test_catalog_range_budget_is_inclusive_and_sums_walked_orders(monkeypatch):
    # Degree 8 on orders 10..28 walks every order. A budget of exactly the
    # sum of their bounds admits the range with its entries unchanged, and
    # one byte less refuses it. An order skipped by CATALOG_MAX_BYTES is not
    # walked, so its bound is left out of the sum.
    entries = catalog(8, 10, 28)
    bounds = [search._walk_bytes(n, 4) for n in range(10, 29, 2)]
    monkeypatch.setattr(search, "CATALOG_MAX_RANGE_BYTES", sum(bounds))
    assert catalog(8, 10, 28) == entries
    monkeypatch.setattr(search, "CATALOG_MAX_RANGE_BYTES", sum(bounds) - 1)
    with pytest.raises(CapacityError, match="in \\[10, 28\\] exceed the catalog range budget"):
        catalog(8, 10, 28)
    monkeypatch.setattr(search, "CATALOG_MAX_BYTES", bounds[-1] - 1)
    monkeypatch.setattr(search, "CATALOG_MAX_RANGE_BYTES", sum(bounds[:-1]))
    assert catalog(8, 10, 28) == entries[:-1] + [
        CatalogEntry(28, 8, False, None, 0, 0, skipped=True)
    ]


def test_catalog_capacity_counts_unbalanced_sets_under_balanced(monkeypatch):
    # Order 20, degree 8: 60 balanced 4-sets among C(9, 4) = 126. The bound
    # reads n and d alone, so in both modes a ceiling one byte under
    # _walk_bytes(20, 4) skips the order, and one of _walk_bytes(20, 4)
    # walks it.
    assert search._balanced_count(9, 4) == 60 < comb(9, 4)
    monkeypatch.setattr(search, "CATALOG_MAX_BYTES", search._walk_bytes(20, 4) - 1)
    for balanced_only in (False, True):
        (entry,) = catalog(8, 20, 20, balanced_only=balanced_only)
        assert entry == CatalogEntry(20, 8, False, None, 0, 0, skipped=True)
    monkeypatch.setattr(search, "CATALOG_MAX_BYTES", search._walk_bytes(20, 4))
    for balanced_only, enumerated in ((False, 126), (True, 60)):
        (entry,) = catalog(8, 20, 20, balanced_only=balanced_only)
        assert not entry.skipped and entry.sets_enumerated == enumerated


def test_catalog_scanned_order_ceiling_is_inclusive(monkeypatch):
    # A ceiling of _walk_bytes(20, 4) walks order 20 and skips order 22 at
    # degree 8 in both modes. It never skips an order that is not walked, as
    # at degree 0, 2 and 22.
    expected = {
        (d, balanced_only): catalog(d, 20, 22, balanced_only=balanced_only)
        for d in (0, 2, 8, 22)
        for balanced_only in (False, True)
    }
    monkeypatch.setattr(search, "CATALOG_MAX_BYTES", search._walk_bytes(20, 4))
    assert search._walk_bytes(22, 4) > search.CATALOG_MAX_BYTES
    for (d, balanced_only), walked in expected.items():
        got = catalog(d, 20, 22, balanced_only=balanced_only)
        if d == 8:
            walked[1] = CatalogEntry(22, d, False, None, 0, 0, skipped=True)
        assert got == walked, (d, balanced_only)
    # Past the bound the set count, here a number of over six million
    # digits, is never formed.
    monkeypatch.setattr(search, "comb", None)
    assert catalog(2 * 10**6, 2 * 10**12, 2 * 10**12) == [
        CatalogEntry(2 * 10**12, 2 * 10**6, False, None, 0, 0, skipped=True)
    ]


def test_unprintable_counts_are_skipped_unformed(monkeypatch):
    # At degree 100 002, d/2 is odd and nothing is walked, but the count
    # C(199 999, 50 001) of order 400 000 has about 48 000 digits, more than
    # Python prints by default. The entry is skipped without forming it, also
    # where sys has no limit to read (before Python 3.10.7 and 3.11).
    skipped = [CatalogEntry(400000, 100002, False, None, 0, 0, skipped=True)]
    with monkeypatch.context() as patch:
        patch.setattr(search, "comb", None)
        assert catalog(100002, 400000, 400000) == skipped
        patch.delattr(sys, "get_int_max_str_digits", raising=False)
        assert catalog(100002, 400000, 400000) == skipped
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # no limit: every count prints
        try:
            (entry,) = catalog(100002, 400000, 400000)
        finally:
            sys.set_int_max_str_digits(limit)
        assert not entry.skipped and entry.sets_enumerated == comb(199999, 50001)


def test_catalog_validation():
    with pytest.raises(ParameterError):
        catalog(8, 20, 10)
    with pytest.raises(ParameterError):
        catalog(7, 10, 20)
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


"""The catalog's previous walk: the reference for its join in the tests.

The package packs each residue from two rotations of one fold per divisor
and finds an odd half's failing even halves by one bucket lookup per
divisor. These helpers do the same work the direct way: ``pack_residues``
folds every residue with its own ``phi_fold`` call and packs its
coefficients one by one, and ``walk`` adds each odd half's packed sum to
every even half's and tests each divisor slice of every leaf.
"""
from __future__ import annotations

from itertools import combinations

from nutcirc.polyalg import SparsePoly, divisors, euler_phi, phi_fold


def pack_residues(n: int, k: int) -> tuple[list[int], tuple[tuple[int, int], ...]]:
    """(rows, tests) as ``search._pack_residues`` lays them out, one fold per residue."""
    width = (4 * k).bit_length()
    rows = [0] * (n // 2)
    tests = []
    offset = 0
    for b, primes in divisors(n):
        if b < 3:
            continue
        phi = euler_phi(b)
        mask = (1 << (width * phi)) - 1
        base = mask // ((1 << width) - 1) * 2
        folds = (phi_fold(SparsePoly([(r, 1), (b - r, 1)]), b, primes) for r in range(b // 2 + 1))
        packed = [
            (base + sum(c << (width * i) for i, c in fold.items() if i < phi)) << offset
            for fold in folds
        ]
        for s in range(n // 2):
            r = s % b
            rows[s] |= packed[min(r, b - r)]
        tests.append((mask << offset, base * k << offset))
        offset += width * phi
    return rows, tuple(tests)


def walk(n: int, k: int) -> tuple[int, tuple[int, ...] | None]:
    """(nut sets, least nut set or None) among the balanced k-sets of order n, leaf by leaf."""
    rows, tests = pack_residues(n, k)
    halves = combinations(range(2, n // 2, 2), k // 2)
    evens = [(sum(rows[s] for s in half), half) for half in halves]
    passing = 0
    witness = None
    for odd in combinations(range(1, n // 2, 2), k // 2):
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

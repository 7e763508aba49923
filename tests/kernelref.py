"""Fraction-free integer elimination: the kernel oracle's reference in the tests.

The package certifies the kernel from one extended Euclid over a prime field
and never eliminates. These helpers decide the same facts the slow, direct
way, by one-step Bareiss elimination of the dense adjacency matrix and a
``Fraction`` back-substitution, so every kernel report the package issues
can be compared with ``bareiss_report``.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from nutcirc.circulant import GeneratorSet, KernelReport


def adjacency_matrix(g: GeneratorSet) -> list[list[int]]:
    """Dense 0/1 circulant adjacency matrix of Circ(n, S)."""
    n = g.n
    offsets = set()
    for s in g.elements:
        offsets.add(s)
        offsets.add(n - s)
    first = [1 if j in offsets else 0 for j in range(n)]
    return [first[-i:] + first[:-i] for i in range(n)]


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place fraction-free row echelon; returns (matrix, pivot columns).

    One-step Bareiss: each update divides exactly by the previous pivot, so
    every intermediate entry stays an integer (a minor of the original
    matrix).
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        row_r = rows[r]
        for i in range(r + 1, n_rows):
            row_i = rows[i]
            ric = row_i[c]
            if ric:
                tail = [
                    (piv * a - ric * b) // prev
                    for a, b in zip(row_i[c + 1 :], row_r[c + 1 :])
                ]
            else:
                tail = [(piv * a) // prev for a in row_i[c + 1 :]]
            rows[i] = row_i[: c] + [0] + tail
        prev = piv
        piv_cols.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, piv_cols


def _primitive(vec: list[int]) -> tuple[int, ...]:
    """Divide out the content and make the first nonzero entry positive."""
    content = gcd(*vec)
    if content > 1:
        vec = [v // content for v in vec]
    if next((v for v in vec if v), 1) < 0:
        vec = [-v for v in vec]
    return tuple(vec)


def _kernel_vector_from_echelon(
    rows: list[list[int]], piv_cols: list[int], n_cols: int
) -> tuple[int, ...]:
    """Exact kernel vector for the single free column (nullity must be 1)."""
    pivot_set = set(piv_cols)
    free = next(c for c in range(n_cols) if c not in pivot_set)
    x: list[Fraction] = [Fraction(0)] * n_cols
    x[free] = Fraction(1)
    for r in range(len(piv_cols) - 1, -1, -1):
        c = piv_cols[r]
        row = rows[r]
        acc = sum((row[j] * x[j] for j in range(c + 1, n_cols) if row[j]), Fraction(0))
        x[c] = -acc / row[c]
    scale = lcm(*(v.denominator for v in x))
    return _primitive([int(v * scale) for v in x])


def bareiss_report(g: GeneratorSet) -> KernelReport:
    """The kernel report by fraction-free elimination over the integers."""
    echelon, piv_cols = _bareiss_echelon(adjacency_matrix(g))
    nullity = g.n - len(piv_cols)
    if nullity != 1:
        return KernelReport(nullity, None)
    vec = _kernel_vector_from_echelon(echelon, piv_cols, g.n)
    return KernelReport(1, vec)

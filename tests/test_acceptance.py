"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one `[acceptance] ... PASS/FAIL` line; run with `pytest -s
tests/test_acceptance.py` to see them as they complete.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from itertools import combinations

from polyref import compose_xpow, mul, x_pow_minus_one

from nutcirc.appendix import appendix_golden_check
from nutcirc.circulant import GeneratorSet, is_nut_kernel, is_nut_spectral
from nutcirc.cyclotomy import (
    cyclo_divisors_accelerated,
    cyclo_divisors_oracle,
    filaseta_step,
)
from nutcirc.families import (
    FamilyId,
    FamilyPolyId,
    build_family,
    family_nut_check,
    family_poly,
)
from nutcirc.polyalg import (
    SparsePoly,
    cyclotomic,
    divisors,
    euler_phi,
    prime_factorization,
)
from nutcirc.search import catalog


@contextmanager
def criterion(label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"[acceptance] {label}: PASS ({time.perf_counter() - started:.1f}s)")


def test_criterion_1_appendix_tables_reproduce_golden_files():
    with criterion("C1 appendix residue tables match golden files bit-exactly"):
        report = appendix_golden_check()
        assert report.rows_checked == 4 * (3 + 5 + 6 + 10 + 15 + 30)
        assert report.mismatches == ()
        assert report.zero_remainders == ()


def test_criterion_2_dprime_theorem_grid():
    with criterion("C2 4|n family grid: spectral, kernel and family checks all agree"):
        for t in (1, 3, 5, 7, 9):
            for n in range(4 * t + 4, 4 * t + 41, 4):
                fid = FamilyId("dprime", t, n)
                g = build_family(fid)
                spectral = is_nut_spectral(g)
                kernel = is_nut_kernel(g)
                family = family_nut_check(fid)
                assert spectral.is_nut, (t, n, spectral)
                assert kernel.is_nut, (t, n, kernel)
                assert family.is_nut, (t, n, family)


def test_criterion_3_ddprime_theorem_grid():
    with criterion("C3 n=2 (mod 4) family grid: all three checks agree"):
        for t in range(1, 9):
            for n in range(4 * t + 6, 4 * t + 43, 4):
                fid = FamilyId("ddprime", t, n)
                g = build_family(fid)
                spectral = is_nut_spectral(g)
                kernel = is_nut_kernel(g)
                family = family_nut_check(fid)
                assert spectral.is_nut, (t, n, spectral)
                assert kernel.is_nut, (t, n, kernel)
                assert family.is_nut, (t, n, family)


def test_criterion_4_master_lemma_instances():
    with criterion("C4 divisor sets: q/r exactly {1,2}; u/w within {1,2,4,8}; blocked polys empty"):
        for t in range(3, 16, 2):
            for kind in ("q", "r"):
                poly = family_poly(FamilyPolyId(kind, t))
                oracle = cyclo_divisors_oracle(poly)
                assert oracle.divisors == (1, 2), (kind, t, oracle.divisors)
                assert cyclo_divisors_accelerated(poly).divisors == oracle.divisors
        for t in range(2, 11):
            for kind in ("u", "w"):
                poly = family_poly(FamilyPolyId(kind, t))
                oracle = cyclo_divisors_oracle(poly)
                assert {1, 2} <= set(oracle.divisors) <= {1, 2, 4, 8}, (kind, t, oracle.divisors)
                assert cyclo_divisors_accelerated(poly).divisors == oracle.divisors
        blocked = (
            SparsePoly({10: 2, 5: 1, 0: 2}),
            SparsePoly({10: 2, 5: -1, 0: 2}),
            SparsePoly({6: 2, 3: 1, 0: 2}),
            SparsePoly({6: 2, 3: -1, 0: 2}),
            SparsePoly({2: 2, 1: 1, 0: 2}),
            SparsePoly({2: 2, 1: -1, 0: 2}),
        )
        for poly in blocked:
            assert cyclo_divisors_oracle(poly).divisors == ()


def test_criterion_5_degree_eight_catalog():
    with criterion("C5 degree-8 catalog on 10..28 exists exactly on {14, 18..28}"):
        entries = catalog(8, 10, 28)
        exists = {e.n for e in entries if e.exists}
        assert exists == {14, 18, 20, 22, 24, 26, 28}
        for e in entries:
            assert not e.skipped
            if e.exists:
                assert is_nut_kernel(GeneratorSet(e.n, e.witness)).is_nut, e
            else:
                assert e.witness is None and e.sets_passing == 0
        # Each entry is fixed by its order alone, not by the range around it.
        assert [entry for n in range(10, 29, 2) for entry in catalog(8, n, n)] == entries


def test_criterion_6_oracle_equivalence_sweep():
    with criterion("C6 exhaustive spectral/kernel agreement, |S| in {2,4}, even n <= 24"):
        nuts = []
        for n in range(4, 25, 2):
            pool = range(1, n // 2)
            for size in (2, 4):
                for elems in combinations(pool, size):
                    g = GeneratorSet(n, elems)
                    spectral = is_nut_spectral(g)
                    kernel = is_nut_kernel(g)
                    assert spectral.is_nut == kernel.is_nut, (n, elems, spectral, kernel)
                    if spectral.is_nut:
                        nuts.append(g)
        assert nuts, "the sweep is expected to find nut graphs"
        for g in nuts:
            assert g.n % 2 == 0
            assert g.degree % 4 == 0
            # degree 4t never occurs at order 4t + 2
            assert g.n != g.degree + 2


def test_criterion_7_property_suites():
    with criterion("C7 cyclotomic product/degree/substitution properties and reduction arithmetic"):
        for b in range(1, 61):
            product = SparsePoly({0: 1})
            for d, _ in divisors(b):
                product = mul(product, cyclotomic(d))
            assert product == x_pow_minus_one(b)
            assert cyclotomic(b).degree == euler_phi(b)
        for b in range(2, 201):
            for p, e in prime_factorization(b):
                if e >= 2:
                    assert cyclotomic(b) == compose_xpow(cyclotomic(b // p), p)
        assert filaseta_step(6, 21) == [3]
        assert filaseta_step(6, 15) == []

"""Tests for family construction, family polynomials, and residue tables."""
from __future__ import annotations

import shutil
import sys

import pytest
from polyref import evaluate

from nutcirc import appendix, circulant, families, search
from nutcirc.appendix import (
    appendix_golden_check,
    exponent_set,
    golden_data_dir,
    unique_remainder_exists,
)
from nutcirc.circulant import is_nut_kernel, is_nut_spectral, parity_balanced
from nutcirc.cyclotomy import cyclo_divisors_accelerated, cyclo_divisors_oracle
from nutcirc.errors import CapacityError, ConfigurationError, ParameterError
from nutcirc.families import (
    POLY_KINDS,
    TABLE_MODULI,
    _SHAPES,
    FamilyId,
    FamilyPolyId,
    TableRow,
    build_family,
    family_nut_check,
    family_poly,
    generate_table,
)
from nutcirc.polyalg import SparsePoly, phi_remainder, reduce_mod_xb


def test_family_id_validation_messages():
    with pytest.raises(ParameterError, match="odd t"):
        FamilyId("dprime", 2, 16)
    with pytest.raises(ParameterError, match="4 \\| n"):
        FamilyId("dprime", 3, 18)
    with pytest.raises(ParameterError, match="4t\\+4"):
        FamilyId("dprime", 3, 12)
    with pytest.raises(ParameterError, match="2 \\(mod 4\\)"):
        FamilyId("ddprime", 2, 16)
    with pytest.raises(ParameterError, match="4t\\+6"):
        FamilyId("ddprime", 2, 10)
    with pytest.raises(ParameterError, match="t must be >= 1, got 0"):
        FamilyId("ddprime", 0, 14)
    with pytest.raises(ParameterError, match="odd t >= 3"):
        FamilyId("ds", 1, 16)
    with pytest.raises(ParameterError, match="ds requires even n"):
        FamilyId("ds", 3, 17)
    with pytest.raises(ParameterError, match="1 \\(mod 10\\)"):
        FamilyId("ds", 11, 48)
    with pytest.raises(ParameterError, match="15 \\(mod 18\\)"):
        FamilyId("ds", 15, 64)
    with pytest.raises(ParameterError, match="unknown family variant"):
        FamilyId("dsx", 3, 16)


def test_build_family_examples():
    assert build_family(FamilyId("dprime", 3, 16)).elements == (1, 2, 4, 5, 6, 7)
    assert build_family(FamilyId("dprime", 1, 8)).elements == (2, 3)
    assert build_family(FamilyId("ddprime", 2, 14)).elements == (1, 4, 5, 6)
    assert build_family(FamilyId("ddprime", 4, 26)).elements == (1, 2, 3, 7, 8, 10, 11, 12)
    assert build_family(FamilyId("ddprime", 4, 30)).elements == (1, 2, 3, 8, 9, 12, 13, 14)
    assert build_family(FamilyId("ds", 3, 16)).elements == (1, 2, 4, 5, 6, 7)


def test_build_family_size_and_balance():
    ids = [FamilyId("dprime", t, n) for t in (1, 3, 5) for n in range(4 * t + 4, 4 * t + 29, 4)]
    ids += [FamilyId("ddprime", t, n) for t in (1, 2, 3, 4) for n in range(4 * t + 6, 4 * t + 31, 4)]
    ids += [FamilyId("ds", t, n) for t in (3, 5) for n in range(4 * t + 4, 4 * t + 21, 2)]
    for fid in ids:
        g = build_family(fid)
        assert len(g.elements) == 2 * fid.t
        assert parity_balanced(g)


def test_family_poly_examples():
    assert family_poly(FamilyPolyId("q", 3)) == SparsePoly(
        {5: 2, 4: 1, 3: -1, 2: 1, 1: -1, 0: -2}
    )
    assert family_poly(FamilyPolyId("u", 2)) == SparsePoly(
        {8: 1, 7: 2, 5: -2, 3: 2, 1: -2, 0: -1}
    )
    assert family_poly(FamilyPolyId("w", 2)) == SparsePoly(
        {8: -1, 7: 2, 5: -2, 3: 2, 1: -2, 0: 1}
    )


# The paper's four polynomials, transcribed term by term: kind -> (least t,
# t must be odd, terms as functions of t in the order _SHAPES lists them).
PAPER_POLYS = {
    "q": (3, True, lambda t: [
        (2 * t - 1, 2), (t + 1, 1), (t, -1), (t - 1, 1), (t - 2, -1), (0, -2)
    ]),
    "r": (3, True, lambda t: [
        (2 * t - 1, 2), (t + 1, -1), (t, -3), (t - 1, 3), (t - 2, 1), (0, -2)
    ]),
    "u": (2, False, lambda t: [
        (4 * t - 1, 2), (2 * t + 4, 1), (2 * t + 1, -2), (2 * t - 1, 2), (2 * t - 4, -1), (1, -2)
    ]),
    "w": (2, False, lambda t: [
        (4 * t - 1, 2), (2 * t + 4, -1), (2 * t + 1, -2), (2 * t - 1, 2), (2 * t - 4, 1), (1, -2)
    ]),
}


@pytest.mark.parametrize("kind", sorted(PAPER_POLYS))
def test_family_polys_match_the_paper(kind):
    least, odd, terms = PAPER_POLYS[kind]
    assert _SHAPES[kind][:2] == (odd, least)
    for t in range(least, 61):
        assert _shape_terms(kind, t) == terms(t), (kind, t)
        if t % 2 or not odd:
            assert family_poly(FamilyPolyId(kind, t)) == SparsePoly(terms(t)), (kind, t)
        else:
            with pytest.raises(ParameterError, match="odd t"):
                FamilyPolyId(kind, t)
    # One below the least t the shape degenerates, which pins the least t.
    exponents = [e for e, _ in terms(least - 1)]
    assert len(set(exponents)) < 6 or min(exponents) < 0


def _shape_terms(kind: str, t: int) -> list[tuple[int, int]]:
    """The six terms of _SHAPES[kind] at t, in table order, as (exponent, coefficient)."""
    return [(a * t + c, coeff) for a, c, coeff in _SHAPES[kind][3]]


def test_family_poly_validation():
    with pytest.raises(ParameterError):
        FamilyPolyId("q", 4)
    with pytest.raises(ParameterError):
        FamilyPolyId("r", 1)
    with pytest.raises(ParameterError):
        FamilyPolyId("u", 1)
    with pytest.raises(ParameterError):
        FamilyPolyId("z", 3)


def test_family_polys_have_six_terms_and_vanish_at_plus_minus_one():
    pids = [FamilyPolyId(k, t) for k in ("q", "r") for t in range(3, 16, 2)]
    pids += [FamilyPolyId(k, t) for k in ("u", "w") for t in range(2, 11)]
    for pid in pids:
        poly = family_poly(pid)
        assert poly.term_count() == 6
        assert len(exponent_set(pid)) == 6
        assert evaluate(poly, 1) == 0
        assert evaluate(poly, -1) == 0


def test_exponent_set_examples():
    assert exponent_set(FamilyPolyId("q", 3)) == {0, 1, 2, 3, 4, 5}
    assert exponent_set(FamilyPolyId("u", 2)) == {0, 1, 3, 5, 7, 8}
    assert exponent_set(FamilyPolyId("q", 5)) == {0, 3, 4, 5, 6, 9}


def test_unique_remainder_examples():
    assert unique_remainder_exists(FamilyPolyId("q", 3), 5)
    assert unique_remainder_exists(FamilyPolyId("u", 2), 7)
    # L_7 = {0, 5, 6, 7, 8, 13} has residues {0,0,1,2,3,3} mod 5.
    assert unique_remainder_exists(FamilyPolyId("q", 7), 5)


def test_unique_remainder_validation():
    with pytest.raises(ParameterError):
        unique_remainder_exists(FamilyPolyId("q", 3), 3)
    with pytest.raises(ParameterError):
        unique_remainder_exists(FamilyPolyId("u", 2), 5)
    with pytest.raises(ParameterError):
        unique_remainder_exists(FamilyPolyId("q", 3), 9)


def test_unique_remainder_grid():
    for t in range(3, 26, 2):
        for kind in ("q", "r"):
            for p in (5, 7, 11, 13):
                assert unique_remainder_exists(FamilyPolyId(kind, t), p)
    for t in range(2, 26):
        for kind in ("u", "w"):
            for p in (7, 11, 13):
                assert unique_remainder_exists(FamilyPolyId(kind, t), p)


def test_family_nut_check_examples():
    assert family_nut_check(FamilyId("dprime", 3, 16)).is_nut
    assert family_nut_check(FamilyId("ddprime", 2, 14)).is_nut
    assert family_nut_check(FamilyId("dprime", 1, 8)).is_nut
    with pytest.raises(ParameterError):
        family_nut_check(FamilyId("ds", 3, 16))


# Family shapes (odd t, least t, least prime, terms) with t-free terms,
# planted in _SHAPES so that a member fails: q becomes Phi_3 and r Phi_8.
PHI_3_SHAPE = (True, 3, 5, ((0, 2, 1), (0, 1, 1), (0, 0, 1)))
PHI_8_SHAPE = (True, 3, 5, ((0, 4, 1), (0, 0, 1)))


@pytest.mark.parametrize(
    "planted, n, witness",
    [
        # q decides the b | n/4: 3 | 6 at n = 24, while 16 has no b = 3.
        ({"q": PHI_3_SHAPE}, 24, 3),
        ({"q": PHI_3_SHAPE}, 16, None),
        # r decides the other b | n/2: 8 | 8 at n = 16; at n = 24 no such b is 8.
        ({"r": PHI_8_SHAPE}, 16, 8),
        ({"r": PHI_8_SHAPE}, 24, None),
        # Both fail at n = 48 (b = 3 by q, b = 8 by r): the least b is the witness.
        ({"q": PHI_3_SHAPE, "r": PHI_8_SHAPE}, 48, 3),
    ],
)
def test_family_nut_check_fails_at_the_least_obstructed_divisor(monkeypatch, planted, n, witness):
    for kind, shape in planted.items():
        monkeypatch.setitem(_SHAPES, kind, shape)
    verdict = family_nut_check(FamilyId("dprime", 3, n))
    reason = "ok" if witness is None else "spectral-failure"
    assert (verdict.is_nut, verdict.reason, verdict.witness) == (witness is None, reason, witness)


def test_prior_family_grid_is_spectrally_nut():
    # t in {3, 5, 7} clears both congruence exclusions; every even order from
    # 4t+4 to 4t+24 must give a nut graph.
    for t in (3, 5, 7):
        for n in range(4 * t + 4, 4 * t + 25, 2):
            g = build_family(FamilyId("ds", t, n))
            assert is_nut_spectral(g).is_nut, (t, n)
    assert is_nut_kernel(build_family(FamilyId("ds", 3, 20))).is_nut


def test_family_nut_check_agrees_with_both_routes_small_grid(monkeypatch):
    ids = [FamilyId("dprime", t, n) for t in (1, 3) for n in range(4 * t + 4, 4 * t + 21, 4)]
    ids += [FamilyId("ddprime", t, n) for t in (1, 2, 3) for n in range(4 * t + 6, 4 * t + 23, 4)]
    spectral = []
    for fid in ids:
        g = build_family(fid)
        spectral.append(is_nut_spectral(g))
        assert spectral[-1].is_nut
        assert is_nut_kernel(g).is_nut
    # The family check builds no member and re-checks no parity, so it
    # decides the same grid without either, and members above FAMILY_MAX_T,
    # which the theorems make nut.
    _forbid(monkeypatch, "build_family")
    _forbid(monkeypatch, "parity_balanced")
    assert [family_nut_check(fid) for fid in ids] == spectral
    assert family_nut_check(FamilyId("dprime", 100_001, 400_008)).is_nut
    assert family_nut_check(FamilyId("ddprime", 100_000, 400_006)).is_nut


def _forbid(monkeypatch, name: str) -> None:
    """Make the nutcirc function name raise, in its module and wherever it was imported by name."""

    def forbidden(*args):
        raise AssertionError(f"{name} called")

    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "nutcirc" and hasattr(module, name):
            monkeypatch.setattr(module, name, forbidden)


def test_divisibility_checks_form_no_cyclotomic_and_divide_nothing(monkeypatch):
    # phi_fold decides without Phi_b, so the spectral route at a large order,
    # both family checks and the catalog's residues never form Phi_b or
    # reach the one division, phi_remainder.
    _forbid(monkeypatch, "cyclotomic")
    _forbid(monkeypatch, "phi_remainder")
    assert is_nut_spectral(build_family(FamilyId("dprime", 3, 27720))).is_nut
    assert family_nut_check(FamilyId("dprime", 5, 4620)).is_nut
    assert family_nut_check(FamilyId("ddprime", 4, 2310)).is_nut
    search._pack_residues(2310, 2)


def test_oracle_decides_by_division_alone(monkeypatch):
    # The converse guard: the oracle never folds. An integer test drops most
    # candidates and a division by Phi_b decides the rest, so it finds the
    # same divisors of the acceptance polynomials with phi_fold (and with it
    # phi_divides) unavailable.
    polys = [family_poly(FamilyPolyId(kind, t)) for t in range(3, 16, 2) for kind in ("q", "r")]
    polys += [family_poly(FamilyPolyId(kind, t)) for t in range(2, 11) for kind in ("u", "w")]
    polys += [SparsePoly({k * 2: 2, k: sign, 0: 2}) for k in (5, 3, 1) for sign in (1, -1)]
    expected = [cyclo_divisors_accelerated(p).divisors for p in polys]
    _forbid(monkeypatch, "phi_fold")
    assert [cyclo_divisors_oracle(p).divisors for p in polys] == expected


def test_family_ceilings_are_inclusive(monkeypatch):
    monkeypatch.setattr(families, "FAMILY_MAX_T", 3)
    with pytest.raises(CapacityError, match="t=4 exceeds the ceiling 3"):
        build_family(FamilyId("ddprime", 4, 22))
    # FAMILY_MAX_T bounds only building the member, which the family check skips.
    assert family_nut_check(FamilyId("ddprime", 4, 22)).is_nut
    monkeypatch.setattr(circulant, "SPECTRAL_MAX_ORDER", 16)
    assert family_nut_check(FamilyId("dprime", 3, 16)).is_nut
    with pytest.raises(CapacityError, match="order 20 exceeds the spectral order ceiling 16"):
        family_nut_check(FamilyId("dprime", 3, 20))


def test_family_ceilings_refuse_before_building_or_factoring():
    with pytest.raises(CapacityError, match="t=10000001 exceeds the ceiling 100000"):
        build_family(FamilyId("dprime", 10_000_001, 40_000_008))
    # Factoring this order by trial division takes over a minute; building
    # the member factors nothing.
    huge = FamilyId("ddprime", 2, 2 * 10**18 + 6)
    with pytest.raises(CapacityError, match="spectral order ceiling"):
        family_nut_check(huge)
    half = 10**18 + 3
    assert build_family(huge).elements == (1, (half + 1) // 2, (half + 3) // 2, half - 1)


def test_generate_table_known_rows():
    q3 = {row.residue: row for row in generate_table("q", 3)}
    assert q3[0].reduced == SparsePoly({2: 3, 0: -3})
    assert q3[0].remainder == SparsePoly({0: -6, 1: -3})

    r5 = {row.residue: row for row in generate_table("r", 5)}
    assert r5[2].reduced == SparsePoly({0: -1, 1: 3, 2: -3, 3: 1})
    assert r5[2].remainder == SparsePoly({0: -1, 1: 3, 2: -3, 3: 1})

    u6 = {row.residue: row for row in generate_table("u", 6)}
    assert u6[1].reduced == SparsePoly({0: 1, 4: -1})
    assert u6[1].remainder == SparsePoly({0: 1, 1: 1})

    w30 = {row.residue: row for row in generate_table("w", 30)}
    assert w30[29].remainder == SparsePoly(enumerate((3, -2, 0, -1, -2, -2, 1, -1)))


def test_generate_table_validation():
    with pytest.raises(ParameterError):
        generate_table("q", 7)
    with pytest.raises(ParameterError):
        generate_table("x", 3)


def test_all_table_remainders_nonzero():
    for kind in ("q", "r", "u", "w"):
        for modulus in (3, 5, 6, 10, 15, 30):
            for row in generate_table(kind, modulus):
                assert not row.remainder.is_zero(), (kind, modulus, row.residue)


def test_table_rows_depend_only_on_residue_class():
    # Every row of every table equals the shape instantiated at three
    # representatives t >= least t of its class, reduced modulo x^m - 1 and
    # divided by Phi_m.
    for kind in POLY_KINDS:
        least = _SHAPES[kind][1]
        for modulus in TABLE_MODULI:
            for row in generate_table(kind, modulus):
                first = least + (row.residue - least) % modulus
                for t in (first, first + modulus, first + 7 * modulus):
                    poly = SparsePoly(_shape_terms(kind, t))
                    assert reduce_mod_xb(poly, modulus) == row.reduced, (kind, modulus, t)
                    assert phi_remainder(poly, modulus) == row.remainder, (kind, modulus, t)


def test_appendix_golden_check_passes():
    report = appendix_golden_check()
    assert report.rows_checked == 4 * (3 + 5 + 6 + 10 + 15 + 30)
    assert report.mismatches == ()
    assert report.zero_remainders == ()
    assert report.ok


def _golden_copy_with(tmp_path, name, edit):
    """A copy of the golden tables with edit applied to the lines of one file."""
    data = tmp_path / "appendix"
    shutil.copytree(golden_data_dir(), data)
    target = data / name
    target.write_text("\n".join(edit(target.read_text().splitlines())) + "\n")
    return data


def test_appendix_golden_check_detects_injected_fault(tmp_path):
    def perturb(lines):
        # Perturb one coefficient of one remainder.
        residue, reduced, remainder = lines[1].split()
        broken = remainder.replace(":", ":9", 1)
        return [lines[0], f"{residue} {reduced} {broken}", *lines[2:]]

    report = appendix_golden_check(_golden_copy_with(tmp_path, "q_3.txt", perturb))
    assert len(report.mismatches) == 1
    mismatch = report.mismatches[0]
    assert (mismatch.kind, mismatch.modulus, mismatch.residue) == ("q", 3, 1)
    assert mismatch.field == "remainder"


def test_appendix_golden_check_reports_an_extra_row(tmp_path):
    data = _golden_copy_with(tmp_path, "q_3.txt", lambda lines: lines + ["99 1:1,0:1 1:1"])
    report = appendix_golden_check(data)
    assert not report.ok
    assert len(report.mismatches) == 1
    mismatch = report.mismatches[0]
    assert (mismatch.kind, mismatch.modulus, mismatch.residue) == ("q", 3, 99)
    assert mismatch.field == "row"


def test_appendix_golden_check_reports_a_missing_row_and_skips_comments(tmp_path):
    data = _golden_copy_with(tmp_path / "a", "q_3.txt", lambda lines: ["# comment", "", *lines])
    assert appendix_golden_check(data).ok
    data = _golden_copy_with(tmp_path / "b", "q_5.txt", lambda lines: lines[:2] + lines[3:])
    report = appendix_golden_check(data)
    assert not report.ok
    (mismatch,) = report.mismatches
    assert (mismatch.kind, mismatch.modulus, mismatch.field) == ("q", 5, "row")
    assert (mismatch.expected, mismatch.actual) == ("<present>", "<missing>")


def test_appendix_golden_check_reports_a_zero_remainder(monkeypatch, tmp_path):
    # A zero remainder fails the report even where the golden file agrees.
    generate = appendix.generate_table

    def with_zero(kind, modulus):
        rows = generate(kind, modulus)
        if (kind, modulus) == ("q", 3):
            row = rows[1]
            rows[1] = TableRow(kind, modulus, row.residue, row.reduced, SparsePoly())
        return rows

    def zero_golden(lines):
        residue, reduced, _ = lines[1].split()
        return [lines[0], f"{residue} {reduced} 0", *lines[2:]]

    monkeypatch.setattr(appendix, "generate_table", with_zero)
    report = appendix_golden_check(_golden_copy_with(tmp_path, "q_3.txt", zero_golden))
    assert report.mismatches == ()
    assert report.zero_remainders == (("q", 3, 1),)
    assert not report.ok


def test_appendix_golden_check_rejects_a_repeated_residue(tmp_path):
    def add_wrong_duplicate(lines):
        index = next(i for i, line in enumerate(lines) if line.split()[:1] == ["1"])
        residue, reduced, _ = lines[index].split()
        return lines[:index] + [f"{residue} {reduced} 0:77"] + lines[index:]

    data = _golden_copy_with(tmp_path, "q_5.txt", add_wrong_duplicate)
    with pytest.raises(ConfigurationError, match=r"q_5\.txt:\d+: repeated residue 1"):
        appendix_golden_check(data)


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("x 1:1 1:1", "invalid literal for int"),
        ("7 1:x 1:1", "malformed sparse polynomial term '1:x'"),
        ("7 1:1", "expected 3 fields, got 2"),
    ],
)
def test_appendix_golden_check_rejects_a_malformed_line(tmp_path, line, fragment):
    # A broken installed table is a configuration error (exit 1) naming the
    # file and line, never a bare ValueError or a usage error.
    data = _golden_copy_with(tmp_path, "q_3.txt", lambda lines: lines + [line])
    with pytest.raises(ConfigurationError, match=r"q_3\.txt:\d+: ") as exc:
        appendix_golden_check(data)
    assert not isinstance(exc.value, ParameterError)
    assert fragment in str(exc.value)


def test_appendix_golden_check_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        appendix_golden_check(tmp_path)

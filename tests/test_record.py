"""Value semantics of the record classes and the polynomial classes.

Each record must behave as the frozen dataclass it replaces: same fields in
the same order, positional and keyword construction, defaults, validation,
value equality within one class, hashing, immutability, the dataclass repr
and pickling.
"""
from __future__ import annotations

import pickle

import pytest

from nutcirc.circulant import GeneratorSet, KernelReport, NutVerdict
from nutcirc.cyclotomy import CycloDivisorReport, ReductionStep
from nutcirc.errors import ParameterError
from nutcirc.families import FamilyId, FamilyPolyId, GoldenMismatch, GoldenReport, TableRow
from nutcirc.polyalg import DensePoly, SparsePoly
from nutcirc.record import Record
from nutcirc.search import CatalogEntry

# (class, field values in field order, the repr the dataclass printed)
RECORDS = [
    (GeneratorSet, (16, (1, 2, 4, 5, 6, 7)), "GeneratorSet(n=16, elements=(1, 2, 4, 5, 6, 7))"),
    (
        NutVerdict,
        (False, "spectral-failure", 6),
        "NutVerdict(is_nut=False, reason='spectral-failure', witness=6)",
    ),
    (
        KernelReport,
        (1, (1, -1), True),
        "KernelReport(nullity=1, kernel_vector=(1, -1), full_support=True)",
    ),
    (
        CycloDivisorReport,
        ((1, 2, 8), 24, "oracle"),
        "CycloDivisorReport(divisors=(1, 2, 8), search_bound=24, method='oracle')",
    ),
    (
        ReductionStep,
        (30, 5, 1, 6, 6, 3),
        "ReductionStep(b=30, prime=5, exponent=1, reduced=6, term_count=6, condition_sum=3)",
    ),
    (FamilyId, ("dprime", 3, 16), "FamilyId(variant='dprime', t=3, n=16)"),
    (FamilyPolyId, ("u", 2), "FamilyPolyId(kind='u', t=2)"),
    (
        TableRow,
        ("q", 3, 1, SparsePoly({5: 2, 0: 1}), DensePoly((1, 2))),
        "TableRow(kind='q', modulus=3, residue=1, reduced=SparsePoly('5:2,0:1'), "
        "remainder=DensePoly('1,2'))",
    ),
    (
        GoldenMismatch,
        ("q", 3, 1, "row", "<present>", "<missing>"),
        "GoldenMismatch(kind='q', modulus=3, residue=1, field='row', "
        "expected='<present>', actual='<missing>')",
    ),
    (
        GoldenReport,
        (276, (), (("q", 3, 1),)),
        "GoldenReport(rows_checked=276, mismatches=(), zero_remainders=(('q', 3, 1),))",
    ),
    (
        CatalogEntry,
        (14, 8, True, GeneratorSet(14, (1, 2, 3, 5)), 10, 2, False),
        "CatalogEntry(n=14, d=8, exists=True, witness=GeneratorSet(n=14, elements=(1, 2, 3, 5)), "
        "sets_enumerated=10, sets_passing=2, skipped=False)",
    ),
]
FIELDS = {
    GeneratorSet: ("n", "elements"),
    NutVerdict: ("is_nut", "reason", "witness"),
    KernelReport: ("nullity", "kernel_vector", "full_support"),
    CycloDivisorReport: ("divisors", "search_bound", "method"),
    ReductionStep: ("b", "prime", "exponent", "reduced", "term_count", "condition_sum"),
    FamilyId: ("variant", "t", "n"),
    FamilyPolyId: ("kind", "t"),
    TableRow: ("kind", "modulus", "residue", "reduced", "remainder"),
    GoldenMismatch: ("kind", "modulus", "residue", "field", "expected", "actual"),
    GoldenReport: ("rows_checked", "mismatches", "zero_remainders"),
    CatalogEntry: ("n", "d", "exists", "witness", "sets_enumerated", "sets_passing", "skipped"),
}
# TableRow holds polynomials, which are unhashable, so it is unhashable too.
HASHABLE = [case for case in RECORDS if case[0] is not TableRow]
ids = [cls.__name__ for cls, _, _ in RECORDS]


def test_every_record_class_is_covered():
    assert {cls for cls, _, _ in RECORDS} == set(Record.__subclasses__()) == set(FIELDS)


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=ids)
def test_fields_in_order_by_position_and_keyword(cls, values, text):
    fields = FIELDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert cls.__slots__ == fields
    for record in (by_position, by_keyword):
        assert tuple(getattr(record, f) for f in fields) == values
    assert by_position == by_keyword


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=ids)
def test_repr_is_the_dataclass_format(cls, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=ids)
def test_pickle_round_trip(cls, values, text):
    record = cls(*values)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls and copy == record


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=ids)
def test_records_are_immutable(cls, values, text):
    record = cls(*values)
    field = FIELDS[cls][0]
    with pytest.raises(AttributeError):
        setattr(record, field, values[0])
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == values[0]


@pytest.mark.parametrize("cls, values, text", HASHABLE, ids=[c.__name__ for c, _, _ in HASHABLE])
def test_equal_values_are_equal_and_hash_equal(cls, values, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert len({a, b}) == 1


def test_unequal_values_compare_unequal():
    assert GeneratorSet(16, (1, 2, 4, 5, 6, 7)) != GeneratorSet(16, (1, 2, 4, 5, 6))
    assert FamilyId("dprime", 3, 16) != FamilyId("dprime", 3, 20)


def test_tablerow_is_unhashable_but_compares_by_value():
    cls, values, _ = next(case for case in RECORDS if case[0] is TableRow)
    assert cls(*values) == cls(*values)
    with pytest.raises(TypeError):
        hash(cls(*values))


def test_records_of_different_classes_never_compare_equal():
    verdict = NutVerdict(1, None, False)
    report = KernelReport(1, None, False)
    assert verdict != report and not verdict == report
    assert FamilyPolyId("u", 2) != ("u", 2)
    assert GeneratorSet(16, ()) != (16, ())
    assert len({verdict, report}) == 2


def test_defaults():
    assert NutVerdict(True, "ok").witness is None
    assert NutVerdict(is_nut=True, reason="ok") == NutVerdict(True, "ok", None)
    assert CatalogEntry(16, 8, False, None, 0, 0).skipped is False
    assert CatalogEntry(16, 8, False, None, 0, 0, skipped=True).skipped is True


def test_wrong_arguments_raise_type_error():
    with pytest.raises(TypeError, match="missing"):
        GeneratorSet(16)
    with pytest.raises(TypeError, match="missing"):
        CatalogEntry(16, 8, False, None, 0)
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3 were given"):
        GeneratorSet(16, (), 3)
    with pytest.raises(TypeError, match="unexpected keyword argument 'order'"):
        GeneratorSet(order=16, elements=())
    with pytest.raises(TypeError, match="multiple values for argument 'n'"):
        GeneratorSet(16, n=16, elements=())


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GeneratorSet(1, ()), "graph order must be >= 2, got 1"),
        (
            lambda: GeneratorSet(16, (2, 1)),
            "generator elements must be strictly ascending positives, got (2, 1)",
        ),
        (lambda: GeneratorSet(n=16, elements=(8,)), "generator element 8 is >= n/2 for n=16"),
        (lambda: FamilyId("dprime", 2, 16), "dprime requires odd t, got t=2"),
        (lambda: FamilyId(variant="ddprime", t=2, n=16), "ddprime requires n = 2 (mod 4), got n=16"),
        (lambda: FamilyId("nope", 3, 16), "unknown family variant 'nope'"),
        (lambda: FamilyPolyId("x", 3), "unknown family polynomial kind 'x'"),
        (lambda: FamilyPolyId("q", 4), "q requires odd t >= 3, got t=4"),
        (lambda: FamilyPolyId(kind="w", t=1), "w requires t >= 2, got t=1"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ParameterError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "cls, value, same, other",
    [
        (DensePoly, (1, 0, -1), (1, 0, -1, 0), (1, 0, 1)),
        (SparsePoly, {3: 1, 0: -1}, [(0, -1), (3, 1), (5, 0)], {3: 1, 0: 1}),
    ],
)
def test_polynomials_compare_by_value_and_are_unhashable(cls, value, same, other):
    poly = cls(value)
    assert poly == cls(same) and not poly != cls(same)
    assert poly != cls(other)
    assert DensePoly((1,)) != SparsePoly({0: 1})
    assert pickle.loads(pickle.dumps(poly)) == poly
    with pytest.raises(TypeError):
        hash(poly)

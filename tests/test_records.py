"""The contract of the eight public records: frozen, slotted, equal by value within a class."""

import copy
import pickle

import pytest

from fanojet import (
    AdjunctionOutcome,
    BoundsVerdict,
    CatalogEntry,
    CatalogVerification,
    CompleteIntersection,
    EmbeddingOrderReport,
    LineCount,
    PolarizedInvariants,
    adjunction_cases,
    analyze,
    entries,
    verify_all,
)
from fanojet.bounds import check
from fanojet.chern import InputError

# Each record's fields in constructor order, and one record of each class with the
# repr it printed when the records were frozen dataclasses.
FIELDS = {
    CompleteIntersection: ("N", "degrees"),
    LineCount: ("kind", "count", "family_dim", "nonempty"),
    EmbeddingOrderReport: ("is_fano", "dim", "jet_order", "not_spanned_order", "contains_line",
                           "line_family", "family_through_point", "anticanonical_degree",
                           "curve_exception", "formula_extrapolated"),
    PolarizedInvariants: ("n", "k", "deg", "h0"),
    BoundsVerdict: ("degree_ok", "sections_ok", "borderline_consistent", "failures"),
    CatalogEntry: ("id", "n", "description", "ambient", "polarization", "k_jet",
                   "k_very_ample", "k_spanned", "degree", "h0", "derivation", "presentation"),
    CatalogVerification: ("checked", "failures"),
    AdjunctionOutcome: ("case_id", "constraints", "description"),
}
SAMPLES = {
    "CompleteIntersection(N=4, degrees=(5,))": CompleteIntersection(4, (5,)),
    "LineCount(kind='finite', count=2875, family_dim=None, nonempty=None)":
        LineCount.finite(2875),
    "EmbeddingOrderReport(is_fano=True, dim=3, jet_order=2, not_spanned_order=3, "
    "contains_line=True, line_family=LineCount(kind='family', count=None, family_dim=2, "
    "nonempty=True), family_through_point=0, anticanonical_degree=24, curve_exception=False, "
    "formula_extrapolated=False)": analyze(CompleteIntersection(4, (3,))),
    "PolarizedInvariants(n=3, k=2, deg=7, h0=None)": PolarizedInvariants(3, 2, 7),
    "BoundsVerdict(degree_ok=False, sections_ok=True, borderline_consistent=True, "
    "failures=('degree 7 below floor 2^n+k-2 = 8',))": check(PolarizedInvariants(3, 2, 7, 9)),
    "CatalogEntry(id='mukai-n5', n=5, description='P5', ambient='P5', polarization='O(2)', "
    "k_jet=2, k_very_ample=2, k_spanned=2, degree=32, h0=21, derivation='2^5 = 32; "
    "h0(O(2)) = C(7,5) = 21.  Machine-recomputed from the empty complete intersection in "
    "P5.', presentation=((5,), ()))":
        entries(entry_id="mukai-n5")[0],
    "CatalogVerification(checked=12, failures=())": verify_all(),
    "AdjunctionOutcome(case_id='reduction', constraints='any n >= 3, k >= 2', "
    "description='first reduction is an isomorphism and the second reduction (Z, D) exists')":
        adjunction_cases(6, 2)[0],
}
RECORDS = pytest.mark.parametrize("record", SAMPLES.values(), ids=lambda r: type(r).__name__)


def _values(record) -> list:
    return [getattr(record, name) for name in record._fields]


def test_one_sample_per_record_class():
    assert [type(r) for r in SAMPLES.values()] == [*FIELDS]


@pytest.mark.parametrize("text, record", SAMPLES.items(), ids=lambda v: type(v).__name__)
def test_repr_is_unchanged(text, record):
    assert repr(record) == text


ZEROS = "0" * 5000  # 10**5000 has 5,001 digits, past Python's int-to-str limit


@pytest.mark.parametrize("degrees, text", [
    ((), "()"), ((3,), "(3,)"), ((2, 2), "(2, 2)"),  # as the tuple's own repr
    ((10**5000,), "(1%s,)" % ZEROS), ((2, 10**5000), "(2, 1%s)" % ZEROS),
], ids=["empty", "one", "two", "one-past-the-limit", "two-past-the-limit"])
def test_repr_prints_ints_in_a_tuple_field_at_any_size(degrees, text):
    assert repr(CompleteIntersection(4, degrees)) == "CompleteIntersection(N=4, degrees=%s)" % text


@RECORDS
def test_fields_are_frozen(record):
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert not hasattr(record, "__dict__")


@RECORDS
def test_positional_order_is_field_order(record):
    cls = type(record)
    assert record._fields == FIELDS[cls]
    assert cls(*_values(record)) == record
    assert cls(**dict(zip(record._fields, _values(record)))) == record
    with pytest.raises(TypeError):
        cls(*_values(record), None)
    with pytest.raises(TypeError):
        cls(*_values(record), **{record._fields[0]: _values(record)[0]})
    with pytest.raises(TypeError):
        record._replace(extra=None)


def test_defaults_fill_trailing_fields():
    assert CompleteIntersection(3) == CompleteIntersection(3, ())
    assert LineCount("empty") == LineCount.empty()
    assert PolarizedInvariants(3, 2, 8).h0 is None
    with pytest.raises(TypeError):
        CompleteIntersection()


def test_post_init_still_validates():
    with pytest.raises(InputError, match="ambient dimension N must be >= 1"):
        CompleteIntersection(4, (5,))._replace(N=0)
    with pytest.raises(InputError, match="ambient dimension N must be >= 1"):
        CompleteIntersection(0, (2.5,))  # N, type then range, before the degrees
    assert CompleteIntersection(4, [5]).degrees == (5,)


@RECORDS
def test_equality_only_within_a_class(record):
    same = record._replace()
    assert same == record and same is not record and not same != record
    assert record != tuple(_values(record)) and record != _values(record)
    assert all(other != record for other in SAMPLES.values() if type(other) is not type(record))


def test_records_of_two_classes_with_equal_values_differ():
    ci, outcome = CompleteIntersection(12, ()), CatalogVerification(12, ())
    assert _values(ci) == _values(outcome)
    assert ci != outcome and ci != (12, ())


@RECORDS
def test_hash_agrees_with_eq(record):
    same = record._replace()
    assert hash(same) == hash(record)
    assert len({record, same}) == 1


@RECORDS
def test_copies_equal_the_record(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_asdict_nests_records():
    report = analyze(CompleteIntersection(4, (3,)))
    assert report._asdict() == {
        "is_fano": True, "dim": 3, "jet_order": 2, "not_spanned_order": 3,
        "contains_line": True,
        "line_family": {"kind": "family", "count": None, "family_dim": 2, "nonempty": True},
        "family_through_point": 0, "anticanonical_degree": 24, "curve_exception": False,
        "formula_extrapolated": False,
    }
    entry = entries(entry_id="mukai-n5")[0]._asdict()
    assert entry["presentation"] == ((5,), ())

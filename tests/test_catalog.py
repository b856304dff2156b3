import json
import re

import pytest

from fanojet.catalog import (
    _CI_PAIRS,
    _adjunction,
    _model,
    adjunction_cases,
    catalog_as_dicts,
    entries,
    verify_all,
)
from fanojet.chern import InputError
from fanojet.lines import CompleteIntersection
from fanojet.schubert import plucker_degree

from oracles import ssyt_two_row_count


# --- the table itself ----------------------------------------------------------

def test_filters():
    assert [e.id for e in entries(k=4)] == ["fano3-5"]
    assert [e.id for e in entries(k=3)] == ["fano3-6"]
    assert [e.id for e in entries(n=5)] == ["mukai-n5"]
    assert len(entries(k=2)) == 10
    assert [e.id for e in entries(entry_id="fano3-9")] == ["fano3-9"]
    assert entries(n=7) == []
    for filters in ({"entry_id": 3}, {"n": 3.0}, {"n": True}, {"k": 2.0}):
        with pytest.raises(TypeError):  # once [], the 10 threefolds, [] and the 10 with k = 2
            entries(**filters)


def test_order_chains():
    # `verify_all` checks each chain.  The equal orders off the double cover also catch five
    # of the six KNOWN_GAP faults, which `verify_all` cannot see; the golden `catalog --json`
    # output pins the sixth, fano3-9's k_spanned.
    for e in entries():
        if e.id != "fano3-9":
            assert e.k_jet == e.k_very_ample == e.k_spanned, e.id


def test_grassmannian_section_invariants_rederived():
    (e,) = entries(entry_id="fano3-10")
    # degree: 2^3 times the Plucker degree of G(2,5)
    assert e.degree == 8 * plucker_degree(5)
    # h0: Hilbert function of G(2,5) cut by a regular sequence of 3 linear forms
    h = [ssyt_two_row_count(t, 5) for t in range(3)]
    assert h == [1, 10, 50]
    assert e.h0 == h[2] - 3 * h[1] + 3 * h[0]


def test_the_polarization_text_names_the_derived_L():
    """Each presented entry's exported `polarization` ("O(2,2) restricted to X", "O(2) box
    O(3)", "O(4)", ...) names the L that `verify_all` derives by adjunction."""
    named = {}
    for e, row in zip(entries(), catalog_as_dicts()):
        if e.presentation is not None:
            text = ",".join(re.findall(r"O\(([\d,]+)\)", row["polarization"]))
            named[e.id] = tuple(map(int, text.split(",")))
            assert _adjunction(e)[1] == named[e.id], e.id
    assert named == {"fano3-1": (2, 2), "fano3-2": (2, 3), "fano3-4": (2, 2, 2),
                     "fano3-5": (4,), "fano3-6": (3,), "fano3-7": (2,), "fano3-8": (2,),
                     "mukai-n4": (2,), "mukai-n5": (2,)}


def _ci_and_twist(e):
    """(X, t) for an entry presented in one P^N, t read off the index N + 1 - sum(d) =
    (n - 2)t of X."""
    (N,), equations = e.presentation
    ci = CompleteIntersection(N, tuple(d for (d,) in equations))
    return ci, (N + 1 - ci.degree_sum) // (e.n - 2)


COMPLETE_INTERSECTIONS = [e for e in entries()
                          if e.presentation is not None and len(e.presentation[0]) == 1]


# --- verification pass ------------------------------------------------------------

def test_verify_all_passes_on_shipped_data():
    outcome = verify_all()
    assert outcome.checked == 12
    assert outcome.failures == ()
    assert outcome.ok


@pytest.mark.parametrize(
    "entry_id, changes, failure",
    [
        ("fano3-3", {"degree": 7},
         "fano3-3: Riemann-Roch degree mismatch (stored 7, recomputed 56)\n"
         "fano3-3: bound check failed: degree 7 below floor 2^n+k-2 = 8"),
        # A (1,1) divisor in P1 x P3 has -K = (1, 3): L = O(1, 3) is only 1-very ample.
        ("fano3-2", {"presentation": ((1, 3), ((1, 1),))},
         "fano3-2: box-product order mismatch (stored 2, recomputed 1)"),
        ("fano3-7", {"k_jet": 3, "k_very_ample": 3, "k_spanned": 3},
         "fano3-7: jet order mismatch (stored 3, recomputed 2)\n"
         "fano3-7: very-ample order mismatch (stored 3, recomputed 2)\n"
         "fano3-7: spanned order mismatch (stored 3, recomputed 2)"),
        ("fano3-7", {"k_jet": 1},
         "fano3-7: jet order mismatch (stored 1, recomputed 2)\n"
         "jet-deficiency structure violated: exactly the double-cover entry must have "
         "k_jet < k_very_ample, got ['fano3-7', 'fano3-9']"),
        ("fano3-3", {"h0": 30},
         "fano3-3: Riemann-Roch degree mismatch (stored 56, recomputed 54)"),
        # O(2) on the quadric fourfold and on P5 is not anticanonical; the line rule still
        # fixes its three orders.
        ("mukai-n4", {"k_spanned": 3}, "mukai-n4: spanned order mismatch (stored 3, recomputed 2)"),
        ("mukai-n5", {"k_jet": 1},
         "mukai-n5: jet order mismatch (stored 1, recomputed 2)\n"
         "jet-deficiency structure violated: exactly the double-cover entry must have "
         "k_jet < k_very_ample, got ['fano3-9', 'mukai-n5']"),
        # Below the floors' domain (k >= 2) the rows still run; the floors end the entry.
        ("fano3-7", {"k_very_ample": 1},
         "fano3-7: order chain violated: k_jet=2, k_very_ample=1, k_spanned=2\n"
         "fano3-7: very-ample order mismatch (stored 1, recomputed 2)\n"
         "fano3-7: outside the library's domain: degree bound requires k >= 2"),
        # Very ample is 1-jet ample, so the double cover's jet order has a floor of 1.
        ("fano3-9", {"k_jet": 0},
         "fano3-9: order chain violated: k_jet=0, k_very_ample=2, k_spanned=2"),
        ("fano3-9", {"k_jet": -1},
         "fano3-9: order chain violated: k_jet=-1, k_very_ample=2, k_spanned=2"),
        # A changed presentation leaves the enumerated Mukai pairs: coverage names both CIs.
        # A quartic threefold has -K = O(1), so L = O(1) and every L row fails.
        ("fano3-7", {"presentation": ((4,), ((4,),))},
         "fano3-7: complete-intersection degree mismatch (stored 24, recomputed 4)\n"
         "fano3-7: complete-intersection h0 mismatch (stored 15, recomputed 5)\n"
         "fano3-7: jet order mismatch (stored 2, recomputed 1)\n"
         "fano3-7: very-ample order mismatch (stored 2, recomputed 1)\n"
         "fano3-7: spanned order mismatch (stored 2, recomputed 1)\n"
         "complete-intersection coverage violated: CI(3) in P^4 with O(2) is missing\n"
         "complete-intersection coverage violated: CI(4) in P^4 with O(1) is extra"),
        # A cubic fourfold has -K = O(3), which is not 2L: no L, so no L row, no coverage.
        ("mukai-n4", {"presentation": ((5,), ((3,),))},
         "mukai-n4: adjunction failed: -K = O(3), not (n-2)L\n"
         "complete-intersection coverage violated: CI(2) in P^5 with O(2) is missing"),
        ("fano3-7", {"degree": 23},
         "fano3-7: Riemann-Roch degree mismatch (stored 23, recomputed 24)\n"
         "fano3-7: complete-intersection degree mismatch (stored 23, recomputed 24)"),
        ("fano3-9", {"k_jet": 2},
         "jet-deficiency structure violated: exactly the double-cover entry must have "
         "k_jet < k_very_ample, got []"),
        ("fano3-7", {"k_jet": 3},
         "fano3-7: order chain violated: k_jet=3, k_very_ample=2, k_spanned=2\n"
         "fano3-7: jet order mismatch (stored 3, recomputed 2)"),
        ("mukai-n4", {"h0": 99},
         "mukai-n4: Riemann-Roch degree mismatch (stored 32, recomputed 190)\n"
         "mukai-n4: complete-intersection h0 mismatch (stored 99, recomputed 20)"),
        # Stored integers past Python's int-to-str digit limit print in full, also in the
        # order chain's message, which is built when the chain holds.
        pytest.param(
            "fano3-7", {"degree": 10 ** 5000, "k_spanned": 10 ** 5000},
            "fano3-7: Riemann-Roch degree mismatch (stored 1{0}, recomputed 24)\n"
            "fano3-7: complete-intersection degree mismatch (stored 1{0}, recomputed 24)\n"
            "fano3-7: spanned order mismatch (stored 1{0}, recomputed 2)".format("0" * 5000),
            id="fano3-7-past-the-digit-limit"),
        ("fano3-2", {"presentation": ((1, 1), ())},
         "fano3-2: dimension mismatch (stored 3, recomputed 2)"),
        # -K = (1, 2) on P2 x P2 restricted to a (2,1) divisor: L = (1, 2), of box order 1.
        ("fano3-1", {"presentation": ((2, 2), ((2, 1),))},
         "fano3-1: box-product order mismatch (stored 2, recomputed 1)"),
        # A huge stored n ends its entry at the Mukai order, before the 2^n of the floors.
        pytest.param(
            "fano3-7", {"n": 10 ** 5000},
            "fano3-7: Riemann-Roch degree mismatch (stored 24, recomputed -1{0}70)\n"
            "fano3-7: dimension mismatch (stored 1{1}, recomputed 3)\n"
            "fano3-7: adjunction failed: -K = O(2), not (n-2)L\n"
            "fano3-7: not a Mukai order: (n-2)k > n+1 at n=1{1}, k_very_ample=2\n"
            "complete-intersection coverage violated: CI(3) in P^4 with O(2) is missing"
            .format("9" * 4998, "0" * 5000),
            id="fano3-7-huge-n"),
        # A presentation of the wrong dimension yields no L row: CI(3) in P^100000 is not
        # computed (once 5.7 s; P^1000000 did not return).
        ("fano3-7", {"presentation": ((100000,), ((3,),))},
         "fano3-7: dimension mismatch (stored 3, recomputed 99999)\n"
         "complete-intersection coverage violated: CI(3) in P^4 with O(2) is missing"),
    ],
)
def test_verify_all_reports_exactly_the_injected_fault(entry_id, changes, failure):
    """`failure` lists every expected failure, one a line, in `verify_all`'s order."""
    broken = [e._replace(**changes) if e.id == entry_id else e for e in entries()]
    assert verify_all(broken).failures == tuple(failure.split("\n"))


@pytest.mark.parametrize("dropped", [e.id for e in COMPLETE_INTERSECTIONS])
def test_a_dropped_complete_intersection_is_reported_by_its_ci(dropped):
    (e,) = entries(entry_id=dropped)
    rows = [x for x in entries() if x is not e]
    assert verify_all(rows).failures == (
        "complete-intersection coverage violated: %s with O(%d) is missing" % _ci_and_twist(e),)


@pytest.mark.parametrize("repeated", [e.id for e in entries()])
def test_a_repeated_entry_is_reported_once_by_its_id(repeated):
    """A second copy of an entry passes every per-entry check and, for a complete
    intersection, adds nothing to the coverage set; only the id check sees it."""
    outcome = verify_all(entries() + entries(entry_id=repeated))
    expected = ("%s: id repeated (2 entries)" % repeated,)
    if repeated == "fano3-9":
        expected += ("jet-deficiency structure violated: exactly the double-cover entry must "
                     "have k_jet < k_very_ample, got ['fano3-9', 'fano3-9']",)
    assert (outcome.checked, outcome.failures) == (13, expected)


def test_mukai_complete_intersections_are_the_six_entries_and_no_more():
    stored = {(ci.N, ci.degrees, t) for ci, t in map(_ci_and_twist, COMPLETE_INTERSECTIONS)}
    assert {pair for pair, gap in _CI_PAIRS.items() if gap == 0} == stored and len(stored) == 6
    # Past N = 5 no (N, r, t) admits degrees >= 2 summing to N + 1 - (n - 2)t, n = N - r, and
    # past N = 4 none summing to less (K + (n-2)L not nef): that side is the four models i-iv.
    trivial, not_nef = set(), set()
    for N in range(3, 120):
        for r in range(N - 2):
            for t in range(2, N + 2):
                rest = N + 1 - (N - r - 2) * t
                if rest == 0 if r == 0 else rest >= 2 * r:
                    trivial.add((N, r, t))
                if rest > 2 * r:
                    not_nef.add((N, r, t))
    assert trivial == {(N, len(ds), t) for N, ds, t in stored}
    assert not_nef == {(N, len(ds), t) for (N, ds, t), gap in _CI_PAIRS.items() if gap > 0}
    assert not_nef == {(3, 0, 2), (3, 0, 3), (4, 0, 2), (4, 1, 2)}


# Faults that no check sees yet: the stored spanned order of an entry that is not a
# complete intersection (a witness curve per entry would close these six).
KNOWN_GAP = {("fano3-%d" % i, "k_spanned", 3) for i in (1, 2, 3, 4, 9, 10)}


def _names(failure: str, entry_id: str) -> bool:
    """Whether `failure` names the entry: by its id, or as "the double-cover entry"."""
    return (failure.startswith(entry_id + ":") or repr(entry_id) in failure
            or (entry_id == "fano3-9" and "the double-cover entry" in failure))


def test_every_single_field_fault_is_reported_and_none_raises():
    silent = set()
    for e in entries():
        for field in ["n", "k_jet", "k_very_ample", "k_spanned", "degree", "h0"]:
            for value in (getattr(e, field) - 1, getattr(e, field) + 1):
                broken = [x._replace(**{field: value}) if x is e else x for x in entries()]
                failures = verify_all(broken).failures
                if not any(_names(f, e.id) for f in failures):
                    silent.add((e.id, field, value))
    assert silent == KNOWN_GAP


def _type_faults(e):
    """Single-field type faults of `e`, as `_replace` changes: each int field as a float,
    a str, None and a bool; on a presented entry, the presentation as a list and as a str,
    with an equation one longer than its factors, and with its first factor a float."""
    fields = ["n", "k_jet", "k_very_ample", "k_spanned", "degree", "h0"]
    faults = [{field: cast(getattr(e, field))}
              for field in fields for cast in (float, str, lambda v: None, bool)]
    if e.presentation is not None:
        (first, *rest), equations = e.presentation
        faults += [{"presentation": list(e.presentation)}, {"presentation": str(e.presentation)},
                   {"presentation": ((first, *rest), equations + ((1,) * (len(rest) + 2),))},
                   {"presentation": ((float(first), *rest), equations)}]
    return faults


def test_every_type_fault_is_rejected_or_reported_and_none_raises():
    """Each is rejected when its entry is built, so none reaches `verify_all`."""
    faults = [(e, changes) for e in entries() for changes in _type_faults(e)]
    assert len(faults) == 288 + 4 * 9
    for e, changes in faults:
        with pytest.raises(TypeError, match="must be an int, got |^presentation must be a pair"):
            e._replace(**changes)


def test_verify_all_raises_on_a_row_that_is_not_an_entry(monkeypatch):
    """A caller's type error, named before any check runs (once AttributeError on .k_jet)."""
    def no_check(e):
        raise AssertionError("checked %s" % e.id)
    monkeypatch.setattr("fanojet.catalog._entry_checks", no_check)
    with pytest.raises(TypeError, match="^catalog row must be a CatalogEntry, got 1$"):
        verify_all(entries() + [1])


def _domain_faults(e):
    """Stored values outside a library function's domain, as `_replace` changes of `e`: on a
    presented entry, three quadrics in P3 (X is empty), one equation of degree 0, and one
    equation two more than each factor (-K < 0)."""
    faults = [{"degree": 0}, {"n": 0}, {"h0": -1}, {"k_very_ample": 0}, {"k_very_ample": 1}]
    if e.presentation is not None:
        dims, _ = e.presentation
        faults += [{"presentation": ((3,), ((2,), (2,), (2,)))},
                   {"presentation": (dims, ((0,) * len(dims),))},
                   {"presentation": (dims, (tuple(d + 2 for d in dims),))}]
    return faults


def test_domain_faults_are_reported_under_their_entry_and_none_raises():
    faults = [(e, changes) for e in entries() for changes in _domain_faults(e)]
    assert len(faults) == 60 + 3 * 9
    for e, changes in faults:
        broken = [x._replace(**changes) if x is e else x for x in entries()]
        failures = verify_all(broken).failures  # raises nothing
        assert any(f.startswith(e.id + ": ") for f in failures), (e.id, changes)


def test_source_follows_from_dimension():
    assert "source" not in entries()[0]._fields
    for e in entries():
        assert e.source.startswith("Fano threefolds" if e.n == 3 else "Mukai pairs"), e.id


def test_flag_follows_from_orders():
    assert "flag" not in entries()[0]._fields
    for e in entries():
        assert e.flag == ("2-very ample but not 2-jet ample" if e.id == "fano3-9" else ""), e.id
    (cubic,) = entries(entry_id="fano3-7")
    assert cubic._replace(k_jet=1).flag == "2-very ample but not 2-jet ample"
    (p3,) = entries(entry_id="fano3-5")
    assert p3._replace(k_jet=3).flag == "4-very ample but not 4-jet ample"
    (double_cover,) = entries(entry_id="fano3-9")
    assert double_cover._replace(k_jet=2).flag == ""


# --- JSON export ---------------------------------------------------------------------

def test_catalog_export_uses_decimal_strings():
    payload = catalog_as_dicts()
    assert len(payload) == 12
    rehydrated = json.loads(json.dumps(payload))
    assert rehydrated == payload
    for row in payload:
        for field in ("dim", "k_jet", "k_very_ample", "k_spanned", "degree", "h0"):
            assert isinstance(row[field], str) and int(row[field]) >= 0
    by_id = {row["id"]: row for row in payload}
    assert by_id["fano3-5"]["degree"] == "64"
    assert by_id["fano3-5"]["h0"] == "35"
    assert by_id["fano3-9"]["flag"] == "2-very ample but not 2-jet ample"
    # an integer past Python's int-to-str digit limit exports in full
    (cubic,) = entries(entry_id="fano3-7")
    (row,) = catalog_as_dicts([cubic._replace(degree=10 ** 5000)])
    assert row["degree"] == "1" + "0" * 5000 and json.loads(json.dumps(row)) == row


# --- adjunction outcomes ----------------------------------------------------------------

def test_mukai_case_is_the_nefvalue_bound():
    # a Mukai pair has nefvalue n - 2, and the nefvalue is at most (n+1)/k: solved by hand,
    # n = 3 with k <= 4, or n in {4, 5} with k = 2
    for n in range(3, 80):
        for k in range(2, 80):
            vi = "vi" in {c.case_id for c in adjunction_cases(n, k)}
            by_hand = (n == 3 and k <= 4) or (n in (4, 5) and k == 2)
            assert vi == (k * (n - 2) <= n + 1) == by_hand, (n, k)


# Each distinct `constraints` text, read as a predicate on (n, k).
CONSTRAINT_RULES = {
    "n = 3, k = 2": lambda n, k: n == 3 and k == 2,
    "n = 3, 2 <= k <= 3": lambda n, k: n == 3 and 2 <= k <= 3,
    "n = 4, k = 2": lambda n, k: n == 4 and k == 2,
    "n in {4, 5} with k = 2, or n = 3 with 2 <= k <= 4":
        lambda n, k: (n in (4, 5) and k == 2) or (n == 3 and 2 <= k <= 4),
    "any n >= 3, k >= 2": lambda n, k: n >= 3 and k >= 2,
    "n >= 4": lambda n, k: n >= 4,
}


def test_each_adjunction_text_states_its_rule():
    grid = [(n, k) for n in range(3, 80) for k in range(2, 80)]
    admitted = {point: adjunction_cases(*point) for point in grid}
    cases = {case.case_id: case for found in admitted.values() for case in found}
    assert len(cases) == 10
    assert {case.constraints for case in cases.values()} == set(CONSTRAINT_RULES)
    for case in cases.values():
        rule = CONSTRAINT_RULES[case.constraints]
        for point, found in admitted.items():
            assert (case in found) == rule(*point), (case.case_id, point)


def test_adjunction_cases_are_built_once():
    first, again = adjunction_cases(3, 2), adjunction_cases(3, 2)
    assert first == again and all(a is b for a, b in zip(first, again))
    assert adjunction_cases(6, 2)[0] is first[5]  # "reduction"


def test_a_model_reads_its_dimension_and_order_off_the_complete_intersection():
    # models outside the table: the quadric threefold with O(3), and P2 with O(2) as a fibre
    quadric, admits = _model(CompleteIntersection(4, (2,)), 3, "q", "(Q, O(3))")
    assert quadric.constraints == "n = 3, 2 <= k <= 3"
    assert admits(3, 3) and not admits(3, 4)
    fibre, admits = _model(CompleteIntersection(2), 2, "f", "(P2, O(2)) fibre", extra=1)
    assert fibre.constraints == "n = 3, k = 2"
    assert admits(3, 2) and not admits(4, 2) and not admits(3, 3)


def test_adjunction_antitone_in_k():
    for n in range(3, 7):
        for k in range(2, 5):
            now = {c.case_id for c in adjunction_cases(n, k)}
            later = {c.case_id for c in adjunction_cases(n, k + 1)}
            assert later <= now, (n, k)


def test_adjunction_domain():
    with pytest.raises(InputError, match="^adjunction table requires n >= 3$"):
        adjunction_cases(2, 2)
    with pytest.raises(InputError, match="^adjunction table requires k >= 2$"):
        adjunction_cases(3, 1)
    with pytest.raises(TypeError):
        adjunction_cases(3.0, 2.0)

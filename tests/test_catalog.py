import json
from functools import reduce

import pytest

from fanojet.bounds import PolarizedInvariants, box_product_order, check
from fanojet.catalog import (
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

def test_twelve_entries_with_unique_ids():
    rows = entries()
    assert len(rows) == 12
    assert len({e.id for e in rows}) == 12
    assert rows == entries()  # stable order


def test_filters():
    assert [e.id for e in entries(k=4)] == ["fano3-5"]
    assert [e.id for e in entries(k=3)] == ["fano3-6"]
    assert [e.id for e in entries(n=5)] == ["mukai-n5"]
    assert len(entries(k=2)) == 10
    assert [e.id for e in entries(entry_id="fano3-9")] == ["fano3-9"]
    assert entries(n=7) == []
    with pytest.raises(TypeError):
        entries(entry_id=3)  # an id of the wrong type must not silently match nothing


def test_every_entry_passes_the_floors():
    for e in entries():
        verdict = check(PolarizedInvariants(e.n, e.k_very_ample, e.degree, e.h0))
        assert verdict.ok, e.id


def test_order_chains():
    for e in entries():
        assert 1 <= e.k_jet <= e.k_very_ample <= e.k_spanned, e.id
        if e.id != "fano3-9":
            assert e.k_jet == e.k_very_ample == e.k_spanned, e.id


def test_double_cover_is_the_unique_jet_deficient_entry():
    deficient = [e for e in entries() if e.k_jet < e.k_very_ample]
    assert [e.id for e in deficient] == ["fano3-9"]
    (e,) = deficient
    assert e.k_jet == 1 and e.k_very_ample == 2 and e.k_spanned == 2
    assert e.flag == "2-very ample but not 2-jet ample"
    assert e.degree == 16 and e.h0 == 11  # 2 * 2^3 and 10 + 1


def test_anticanonical_threefolds_satisfy_riemann_roch():
    # h0(-K) = (-K)^3 / 2 + 3 on a Fano threefold
    for e in entries(n=3):
        assert e.degree % 2 == 0, e.id
        assert e.h0 == e.degree // 2 + 3, e.id


def test_grassmannian_section_invariants_rederived():
    (e,) = entries(entry_id="fano3-10")
    # degree: 2^3 times the Plucker degree of G(2,5)
    assert e.degree == 8 * plucker_degree(5)
    # h0: Hilbert function of G(2,5) cut by a regular sequence of 3 linear forms
    h = [ssyt_two_row_count(t, 5) for t in range(3)]
    assert h == [1, 10, 50]
    assert e.h0 == h[2] - 3 * h[1] + 3 * h[0]


def test_box_product_entries():
    folded = {
        "fano3-1": (2, 2),
        "fano3-2": (2, 3),
        "fano3-4": (2, 2, 2),
    }
    for entry_id, factors in folded.items():
        (e,) = entries(entry_id=entry_id)
        assert e.box_factors == factors
        assert reduce(box_product_order, factors) == e.k_very_ample == 2


# --- verification pass ------------------------------------------------------------

def test_verify_all_passes_on_shipped_data():
    outcome = verify_all()
    assert outcome.checked == 12
    assert outcome.failures == ()
    assert outcome.ok


def test_verify_all_catches_degree_fault():
    rows = entries()
    broken = [
        e._replace(degree=23) if e.id == "fano3-7" else e for e in rows
    ]
    outcome = verify_all(broken)
    assert not outcome.ok
    assert any("fano3-7" in f and "degree mismatch" in f for f in outcome.failures)


def test_verify_all_catches_jet_flag_fault():
    rows = entries()
    broken = [
        e._replace(k_jet=2) if e.id == "fano3-9" else e for e in rows
    ]
    outcome = verify_all(broken)
    assert not outcome.ok
    assert any("jet-deficiency" in f for f in outcome.failures)


def test_verify_all_catches_order_chain_fault():
    rows = entries()
    broken = [
        e._replace(k_jet=3) if e.id == "fano3-7" else e for e in rows
    ]
    outcome = verify_all(broken)
    assert not outcome.ok
    assert any("order chain" in f or "jet order mismatch" in f for f in outcome.failures)


def test_verify_all_catches_h0_fault():
    rows = entries()
    broken = [
        e._replace(h0=99) if e.id == "mukai-n4" else e for e in rows
    ]
    outcome = verify_all(broken)
    assert any("mukai-n4" in f and "h0 mismatch" in f for f in outcome.failures)


@pytest.mark.parametrize(
    "entry_id, changes, failure",
    [
        ("fano3-3", {"degree": 7},
         "fano3-3: Riemann-Roch degree mismatch (stored 7, recomputed 56)\n"
         "fano3-3: bound check failed: degree 7 below floor 2^n+k-2 = 8"),
        ("fano3-2", {"box_factors": (2, 1)},
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
    ],
)
def test_verify_all_reports_exactly_the_injected_fault(entry_id, changes, failure):
    """`failure` lists every expected failure, one a line, in `verify_all`'s order."""
    broken = [e._replace(**changes) if e.id == entry_id else e for e in entries()]
    assert verify_all(broken).failures == tuple(failure.split("\n"))


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
        fields = ["n", "k_jet", "k_very_ample", "k_spanned", "degree", "h0"]
        for field in fields + ["twist"] * (e.twist is not None):
            for value in (getattr(e, field) - 1, getattr(e, field) + 1):
                broken = [x._replace(**{field: value}) if x is e else x for x in entries()]
                failures = verify_all(broken).failures
                if not any(_names(f, e.id) for f in failures):
                    silent.add((e.id, field, value))
    assert silent == KNOWN_GAP


def _type_faults(e):
    """Single-field type faults of `e`, as `_replace` changes: each int field as a float,
    a str, None and a bool; on a complete intersection, `ci` as a tuple and as a str; on a
    box product, no factors, the last factor a float, and the factors as a list (which is
    stored as the tuple, so that change is no fault)."""
    fields = ["n", "k_jet", "k_very_ample", "k_spanned", "degree", "h0"]
    faults = [{field: cast(getattr(e, field))}
              for field in fields + ["twist"] * (e.twist is not None)
              for cast in (float, str, lambda v: None, bool)]
    if e.ci is not None:
        faults += [{"ci": (e.ci.N, e.ci.degrees)}, {"ci": str(e.ci)}]
    if e.box_factors is not None:
        *head, last = e.box_factors
        faults += [{"box_factors": ()}, {"box_factors": (*head, float(last))},
                   {"box_factors": list(e.box_factors)}]
    return faults


def test_every_type_fault_is_rejected_or_reported_and_none_raises():
    faults = [(e, changes) for e in entries() for changes in _type_faults(e)]
    assert len(faults) == 318 + 2 * 6 + 3
    reported = stored_alike = 0
    for e, changes in faults:
        try:
            changed = e._replace(**changes)
        except (TypeError, InputError):
            continue
        failures = verify_all([changed if x is e else x for x in entries()]).failures
        if changed == e:  # box factors given as a list, stored as the tuple
            assert hash(changed) == hash(e) and type(changed.box_factors) is tuple
            assert failures == ()
            stored_alike += 1
            continue
        assert any(f.startswith(e.id + ": ") for f in failures), (e.id, changes)
        reported += 1
    # A complete-intersection entry with no twist.
    assert (reported, stored_alike) == (6, 3)


def test_catalog_entry_rejects_a_ci_of_another_type_and_empty_box_factors():
    (cubic,) = entries(entry_id="fano3-7")
    for ci in ((4, (3,)), "P4"):
        with pytest.raises(TypeError, match="^ci must be a CompleteIntersection, got "):
            cubic._replace(ci=ci)
    (flag,) = entries(entry_id="fano3-1")
    with pytest.raises(InputError, match="box_factors"):
        flag._replace(box_factors=())
    listed = flag._replace(box_factors=[2, 2])
    assert listed == flag and hash(listed) == hash(flag) and listed.box_factors == (2, 2)


def _domain_faults(e):
    """Stored values outside a library function's domain, as `_replace` changes of `e`."""
    faults = [{"degree": 0}, {"n": 0}, {"h0": -1}, {"k_very_ample": 0}, {"k_very_ample": 1}]
    if e.ci is not None:
        faults += [{"twist": -1}, {"ci": CompleteIntersection(3, (2, 2, 2))}]
    return faults


def test_domain_faults_are_reported_under_their_entry_and_none_raises():
    faults = [(e, changes) for e in entries() for changes in _domain_faults(e)]
    assert len(faults) == 72
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


# --- adjunction outcomes ----------------------------------------------------------------

def test_adjunction_high_order_leaves_only_the_reduction():
    assert [c.case_id for c in adjunction_cases(3, 5)] == ["reduction"]


def test_adjunction_n4_k2():
    ids = {c.case_id for c in adjunction_cases(4, 2)}
    assert {"iii", "vi", "vii"} <= ids
    assert "1" in ids and "reduction" in ids
    assert {"i", "ii", "iv", "v", "2"}.isdisjoint(ids)


def test_adjunction_n6_is_generic_only():
    assert [c.case_id for c in adjunction_cases(6, 2)] == ["reduction", "1"]


def test_adjunction_n3_k2_has_the_special_pile():
    ids = [c.case_id for c in adjunction_cases(3, 2)]
    assert ids == ["i", "ii", "iv", "v", "vi", "reduction", "2"]
    assert [c.case_id for c in adjunction_cases(3, 3)] == ["ii", "vi", "reduction"]
    assert [c.case_id for c in adjunction_cases(3, 4)] == ["vi", "reduction"]


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


def test_adjunction_antitone_in_k():
    for n in range(3, 7):
        for k in range(2, 5):
            now = {c.case_id for c in adjunction_cases(n, k)}
            later = {c.case_id for c in adjunction_cases(n, k + 1)}
            assert later <= now, (n, k)


def test_adjunction_domain():
    with pytest.raises(ValueError):
        adjunction_cases(2, 2)
    with pytest.raises(ValueError):
        adjunction_cases(3, 1)

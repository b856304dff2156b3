from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from fanojet.bounds import min_degree, min_sections
from fanojet.chern import InputError
from fanojet.fano import (
    analyze,
    anticanonical_degree,
    degree_of_twist,
    h0_of_twist,
)
from fanojet.lines import (
    CompleteIntersection,
    count_lines,
    expected_family_dimension,
    line_family_through_point,
    lines_class,
)
from fanojet.schubert import CohomologyElement

from oracles import monomial_hilbert


def ci(N, *degrees):
    return CompleteIntersection(N, degrees)


# --- jet orders ----------------------------------------------------------------

def test_jet_order_table():
    assert analyze(ci(3)).jet_order == 4
    assert analyze(ci(4, 2)).jet_order == 3
    assert analyze(ci(4, 3)).jet_order == 2
    assert analyze(ci(5, 2, 2)).jet_order == 2


def test_cubic_threefold_report():
    rep = analyze(ci(4, 3))
    assert rep.is_fano and rep.dim == 3
    assert rep.jet_order == 2 and rep.not_spanned_order == 3
    assert rep.contains_line is True
    assert rep.line_family.kind == "family" and rep.line_family.family_dim == 2
    assert rep.family_through_point == 0
    assert rep.anticanonical_degree == 24
    assert not rep.curve_exception and not rep.formula_extrapolated


def test_quintic_threefold_is_not_fano():
    rep = analyze(ci(4, 5))
    assert not rep.is_fano
    assert rep.jet_order is None and rep.not_spanned_order is None
    assert rep.contains_line is None
    assert rep.anticanonical_degree == 0  # -K is trivial on a quintic threefold
    # the expected line count is still reported
    assert rep.line_family.kind == "finite" and rep.line_family.count == 2875


def test_ambient_space_report():
    rep = analyze(ci(3))
    assert rep.is_fano and rep.dim == 3 and rep.jet_order == 4
    assert rep.line_family.kind == "family" and rep.line_family.family_dim == 4
    assert rep.family_through_point == 2
    assert rep.anticanonical_degree == 64


def test_plane_conic_is_the_excluded_curve():
    rep = analyze(ci(2, 2))
    assert rep.is_fano and rep.dim == 1
    assert rep.curve_exception
    assert rep.jet_order is None
    assert rep.contains_line is None


def test_other_curves_get_extrapolated_orders():
    rep = analyze(ci(2, 1))  # a line in the plane
    assert rep.dim == 1 and rep.jet_order == 2 and rep.formula_extrapolated
    rep = analyze(ci(3, 1, 2))  # a conic cut out in P^3: not the flagged pattern
    assert rep.dim == 1 and rep.jet_order == 1 and rep.formula_extrapolated
    assert not rep.curve_exception


def test_analyze_rejects_zero_dimensional():
    with pytest.raises(ValueError, match="not positive-dimensional"):
        analyze(ci(2, 2, 2))


# --- degrees ----------------------------------------------------------------------

def test_anticanonical_degree_examples():
    assert anticanonical_degree(ci(3)) == 64
    assert anticanonical_degree(ci(4, 3)) == 24
    assert anticanonical_degree(ci(5, 2, 2)) == 32


def test_anticanonical_degree_requires_fano():
    with pytest.raises(ValueError, match="not Fano"):
        anticanonical_degree(ci(4, 5))


def test_degree_of_twist():
    assert degree_of_twist(ci(5, 2), 2) == 32
    assert degree_of_twist(ci(5), 2) == 32
    assert degree_of_twist(ci(4, 3), 1) == 3


# --- section counts ----------------------------------------------------------------

def test_h0_examples():
    assert h0_of_twist(ci(3), 4) == 35
    assert h0_of_twist(ci(4, 3), 2) == 15
    assert h0_of_twist(ci(5, 2, 2), 2) == 19


def test_h0_rejects_negative_twist():
    with pytest.raises(ValueError):
        h0_of_twist(ci(3), -1)


def test_h0_against_monomial_enumeration():
    for N in range(1, 6):
        for degrees in _degree_tuples_up_to(min(2, N - 1), 4):
            c = CompleteIntersection(N, degrees)
            for t in range(7):
                assert h0_of_twist(c, t) == monomial_hilbert(N, degrees, t), (N, degrees, t)


def _degree_tuples_up_to(rmax, dmax):
    out = [()]
    frontier = [()]
    for _ in range(rmax):
        frontier = [
            tail + (d,) for tail in frontier for d in range(tail[-1] if tail else 1, dmax + 1)
        ]
        out.extend(frontier)
    return out


# --- jet order and line existence must cohere over a sweep --------------------------

def test_fano_sweep_consistency():
    for N in range(2, 10):
        for degrees in _degree_tuples_up_to(3, 5):
            c = CompleteIntersection(N, degrees)
            if c.r >= N or c.dim < 2 or c.degree_sum > N:
                continue
            rep = analyze(c)
            k = N + 1 - c.degree_sum
            assert rep.jet_order == k
            assert rep.not_spanned_order == k + 1
            assert rep.line_family.is_nonempty
            if k >= 2:
                # jet ample at order k implies k-very ample, so the floors apply
                assert rep.anticanonical_degree >= min_degree(c.dim, k)
                assert h0_of_twist(c, k) >= min_sections(c.dim, k)


# --- the domain: every function of X answers exactly or raises InputError -----------

_DIMENSION_RULED = {
    "count_lines": count_lines,
    "analyze": analyze,
    "anticanonical_degree": anticanonical_degree,
    "degree_of_twist": lambda c: degree_of_twist(c, 2),
    "h0_of_twist": lambda c: h0_of_twist(c, 3),
}
_ANY_DIMENSION = {
    "expected_family_dimension": expected_family_dimension,
    "lines_class": lines_class,
    "line_family_through_point": line_family_through_point,
}


@pytest.mark.parametrize("c", [ci(2, 2, 2, 2), ci(3, 2, 2, 2)], ids=str)
@pytest.mark.parametrize("call", _DIMENSION_RULED.values(), ids=_DIMENSION_RULED.keys())
def test_not_positive_dimensional_is_rejected(call, c):
    with pytest.raises(InputError, match="^not positive-dimensional$"):
        call(c)


def _exact(value) -> bool:
    """True if `value` holds only ints, strs and None, through records, tuples and classes."""
    if is_dataclass(value):
        return all(_exact(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, CohomologyElement):
        return _exact(tuple(value.terms.items()))
    if isinstance(value, tuple):
        return all(map(_exact, value))
    return value is None or isinstance(value, (int, str))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_functions_of_x_are_exact_or_raise_input_error(data):
    N = data.draw(st.integers(1, 10), label="N")
    degrees = data.draw(st.lists(st.integers(1, 6), max_size=N + 2), label="degrees")
    c = CompleteIntersection(N, tuple(degrees))
    t = data.draw(st.integers(-3, 6), label="t")
    calls = {
        **_DIMENSION_RULED,
        **_ANY_DIMENSION,
        "degree_of_twist": lambda c: degree_of_twist(c, t),
        "h0_of_twist": lambda c: h0_of_twist(c, abs(t)),
    }
    for name, call in calls.items():
        try:
            value = call(c)
        except InputError as exc:
            if c.dim < 1:
                assert name in _DIMENSION_RULED and str(exc) == "not positive-dimensional"
            else:
                assert name == "anticanonical_degree" and c.degree_sum > N
            continue
        assert c.dim >= 1 or name in _ANY_DIMENSION, name
        assert _exact(value), (name, value)

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fanojet.bounds import (
    BoundsVerdict,
    PolarizedInvariants,
    box_product_order,
    check,
    curve_degree_floor,
    min_degree,
    min_sections,
    nefvalue_bound,
)
from fanojet.chern import InputError
from fanojet.fano import degree_of_twist, h0_of_twist
from fanojet.lines import CompleteIntersection


def test_min_degree_examples():
    assert min_degree(3, 2) == 8
    assert min_degree(1, 2) == 2
    assert min_degree(4, 3) == 17


def test_min_sections_examples():
    assert min_sections(3, 2) == 7
    assert min_sections(3, 4) == 9
    assert min_sections(5, 2) == 11


@pytest.mark.parametrize("func, bound", [(min_degree, "degree"), (min_sections, "section")],
                         ids=["min_degree", "min_sections"])
def test_floors_require_k_at_least_two(func, bound):
    with pytest.raises(InputError, match="^%s bound requires k >= 2$" % bound):
        func(3, 1)
    with pytest.raises(InputError, match="^dimension must be >= 1$"):
        func(0, 2)
    for n in (2.5, 3.0):  # once 5.656... and 7.0
        with pytest.raises(TypeError):
            func(n, 2)


def test_floors_strictly_increasing():
    for n in range(1, 11):
        for k in range(2, 10):
            assert min_degree(n, k + 1) > min_degree(n, k)
            assert min_sections(n, k + 1) > min_sections(n, k)
    for k in range(2, 11):
        for n in range(1, 10):
            assert min_degree(n + 1, k) > min_degree(n, k)
            assert min_sections(n + 1, k) > min_sections(n, k)


def test_check_double_cover_case():
    verdict = check(PolarizedInvariants(3, 2, 16, 11))
    assert verdict == BoundsVerdict(True, True, True, ())
    assert verdict.ok


def test_check_degree_failure():
    verdict = check(PolarizedInvariants(3, 2, 7, 20))
    assert not verdict.degree_ok
    assert verdict.sections_ok
    assert not verdict.ok
    assert any("degree" in f for f in verdict.failures)


def test_check_borderline_inconsistency():
    # h0 sits at the floor 2n+k-1 = 7 but the degree is not 2^n+k-2 = 8
    verdict = check(PolarizedInvariants(3, 2, 9, 7))
    assert verdict.degree_ok and verdict.sections_ok
    assert not verdict.borderline_consistent
    assert not verdict.ok


def test_check_borderline_consistent_when_both_at_floor():
    assert check(PolarizedInvariants(3, 2, 8, 7)).ok


def test_check_without_h0():
    verdict = check(PolarizedInvariants(3, 2, 100))
    assert verdict.sections_ok is None
    assert verdict.ok


def test_invariants_validation():
    for fields, message in [
        ((0, 2, 5), "dimension must be >= 1"),
        ((3, -1, 5), "degree bound requires k >= 2"),
        ((3, 1, 5), "degree bound requires k >= 2"),  # k = 1 is outside the floors
        ((3, 2, 0), "degree must be >= 1"),
        ((3, 2, 8, -1), "h0 must be >= 0"),
    ]:
        with pytest.raises(InputError, match="^%s$" % message):
            PolarizedInvariants(*fields)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(2, 12),
       st.none() | st.integers(1, 10 ** 4), st.none() | st.integers(0, 100))
def test_check_is_total_on_its_records(n, k, deg, h0):
    verdict = check(PolarizedInvariants(n, k, deg, h0))
    assert (verdict.degree_ok is None) == (deg is None)
    assert (verdict.sections_ok is None) == (h0 is None)
    # the floors-only verdict that the CLI prints without --degree
    assert check(PolarizedInvariants(n, k)) == BoundsVerdict(None, None, True, ())


@pytest.mark.parametrize(
    "fields",
    [
        (3, 2.5, 7.9),      # once accepted as given
        (3.0, 2, 8),
        (3, 2, 8, 7.0),
        (True, 2, 8),
        (3, 2, 8, True),
    ],
)
def test_invariants_reject_non_int(fields):
    names = ("dimension n", "order k", "degree", "h0")
    first_bad = next(name for name, v in zip(names, fields) if type(v) is not int)
    with pytest.raises(TypeError, match="^%s must be an int" % first_bad):
        PolarizedInvariants(*fields)


def test_nefvalue_examples():
    assert nefvalue_bound(3, 2) == 2
    assert nefvalue_bound(5, 2) == 3
    assert nefvalue_bound(3, 4) == 1
    assert nefvalue_bound(4, 3) == Fraction(5, 3)
    assert isinstance(nefvalue_bound(4, 3), Fraction)


def test_nefvalue_hypotheses():
    with pytest.raises(InputError, match="^nefvalue bound requires n >= 3$"):
        nefvalue_bound(2, 2)
    with pytest.raises(InputError, match="^nefvalue bound requires k >= 2$"):
        nefvalue_bound(3, 1)
    with pytest.raises(TypeError):
        nefvalue_bound(5, True)


def test_nefvalue_pins_down_the_mukai_range():
    # pairs K = -(n-2)L have nefvalue n-2, so they need (n+1)/k >= n-2
    admissible = [
        (n, k)
        for n in range(3, 13)
        for k in range(2, 13)
        if nefvalue_bound(n, k) >= n - 2
    ]
    assert admissible == [(3, 2), (3, 3), (3, 4), (4, 2), (5, 2)]


def test_nefvalue_excludes_high_dimension():
    # (n+1)/(n-2) drops below 2 exactly from n = 6 on
    for n in range(4, 13):
        assert (Fraction(n + 1, n - 2) < 2) == (n >= 6)


def test_box_product_order():
    assert box_product_order(2, 3) == 2
    assert box_product_order(2, 2) == 2
    assert box_product_order(0, 5) == 0
    for orders in ((-1, 2), (2, -1)):
        with pytest.raises(InputError, match="^orders must be >= 0$"):
            box_product_order(*orders)
    with pytest.raises(TypeError):
        box_product_order(True, 2)  # once True


def test_curve_degree_floor():
    assert curve_degree_floor(2) == 2
    assert curve_degree_floor(0) == 0
    with pytest.raises(InputError, match="^order must be >= 0$"):
        curve_degree_floor(-1)
    with pytest.raises(TypeError):
        curve_degree_floor(2.5)  # once 2.5
    # a line (degree 1) breaks 2-very ampleness, a conic does not
    assert 1 < curve_degree_floor(2)
    assert not 2 < curve_degree_floor(2)
    # degree 2 breaks 3-very ampleness
    assert 2 < curve_degree_floor(3)


@settings(max_examples=300, deadline=None)
@example(N=2, degrees=[1], t=2)  # a line with O(2): h0 = 3 and degree 2, on both floors
@given(N=st.integers(1, 8), degrees=st.lists(st.integers(1, 5), max_size=7), t=st.integers(2, 6))
def test_twists_of_complete_intersections_meet_the_floors(N, degrees, t):
    # O_X(t) restricts the t-jet ample O_{P^N}(t), so it is t-very ample, and the floors that
    # `check` states must hold for the degree and h0 that `fano` computes.
    X = CompleteIntersection(N, tuple(degrees[: N - 1]))  # r < N: X has dimension >= 1
    verdict = check(PolarizedInvariants(X.dim, t, degree_of_twist(X, t), h0_of_twist(X, t)))
    assert verdict.ok, verdict
    if X.dim >= 3:  # K_X + tau O_X(t) is nef from tau = (N + 1 - sum d) / t on
        assert Fraction(N + 1 - X.degree_sum, t) <= nefvalue_bound(X.dim, t)

from fractions import Fraction

import pytest

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


def test_min_degree_examples():
    assert min_degree(3, 2) == 8
    assert min_degree(1, 2) == 2
    assert min_degree(4, 3) == 17


def test_min_sections_examples():
    assert min_sections(3, 2) == 7
    assert min_sections(3, 4) == 9
    assert min_sections(5, 2) == 11


@pytest.mark.parametrize("func", [min_degree, min_sections])
def test_floors_require_k_at_least_two(func):
    with pytest.raises(ValueError):
        func(3, 1)
    with pytest.raises(ValueError):
        func(0, 2)


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
    with pytest.raises(ValueError):
        PolarizedInvariants(0, 2, 5)
    with pytest.raises(ValueError):
        PolarizedInvariants(3, -1, 5)
    with pytest.raises(ValueError):
        PolarizedInvariants(3, 2, 0)
    with pytest.raises(ValueError):
        check(PolarizedInvariants(3, 1, 5))


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
    with pytest.raises(TypeError):
        PolarizedInvariants(*fields)


def test_nefvalue_examples():
    assert nefvalue_bound(3, 2) == 2
    assert nefvalue_bound(5, 2) == 3
    assert nefvalue_bound(3, 4) == 1
    assert nefvalue_bound(4, 3) == Fraction(5, 3)
    assert isinstance(nefvalue_bound(4, 3), Fraction)


def test_nefvalue_hypotheses():
    with pytest.raises(ValueError):
        nefvalue_bound(2, 2)
    with pytest.raises(ValueError):
        nefvalue_bound(3, 1)


def test_nefvalue_pins_down_the_mukai_range():
    # pairs K = -(n-2)L have nefvalue n-2, so they need (n+1)/k >= n-2
    admissible = [
        (n, k)
        for n in range(3, 11)
        for k in range(2, 11)
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
    with pytest.raises(ValueError):
        box_product_order(-1, 2)


def test_curve_degree_floor():
    assert curve_degree_floor(2) == 2
    assert curve_degree_floor(0) == 0
    with pytest.raises(ValueError):
        curve_degree_floor(-1)
    # a line (degree 1) breaks 2-very ampleness, a conic does not
    assert 1 < curve_degree_floor(2)
    assert not 2 < curve_degree_floor(2)
    # degree 2 breaks 3-very ampleness
    assert 2 < curve_degree_floor(3)

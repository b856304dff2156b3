import pytest
from hypothesis import given, settings, strategies as st

from fanojet.lines import (
    CompleteIntersection,
    LineCount,
    count_lines,
    expected_family_dimension,
    line_family_through_point,
    lines_class,
)
from fanojet.chern import sym_top_chern
from fanojet.schubert import CohomologyElement, from_chern_poly, integrate, mul, sigma

from oracles import bialternant_line_count, free_line_integral


def ci(N, *degrees):
    return CompleteIntersection(N, degrees)


# --- the class itself ---------------------------------------------------------

def test_cubic_surface_class():
    # 9*c2*(2*c1^2 + c2) lands on 27 times the point class of G(2,4)
    assert lines_class(ci(3, 3)) == CohomologyElement(4, {(2, 2): 27})


def test_two_quadrics_class_top_coefficient():
    assert lines_class(ci(4, 2, 2)).coefficient(3, 3) == 16


def test_overloaded_intersection_class_vanishes():
    assert lines_class(ci(5, 2, 2, 2)).is_zero()


def test_lines_class_requires_hypersurfaces():
    with pytest.raises(ValueError, match="no hypersurfaces"):
        lines_class(ci(4))


# --- classical finite counts ----------------------------------------------------

@pytest.mark.parametrize(
    "N,degrees,count",
    [
        (3, (3,), 27),          # cubic surface
        (4, (5,), 2875),        # quintic threefold
        (4, (2, 2), 16),        # intersection of two quadrics
        (5, (3, 3), 1053),
        (5, (2, 4), 1280),
        (6, (2, 2, 3), 720),
        (7, (2, 2, 2, 2), 512),
        (2, (1,), 1),           # a line contains exactly itself
    ],
)
def test_classical_counts(N, degrees, count):
    got = count_lines(CompleteIntersection(N, degrees))
    assert got == LineCount.finite(count)
    # same integral through the free ring, truncating only at the end
    assert free_line_integral(N, degrees) == count
    # and through the bialternant coefficient extraction
    assert bialternant_line_count(N, degrees) == count


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_hypersurface_counts_match_bialternant(N):
    d = 2 * N - 3
    got = count_lines(ci(N, d))
    assert got.kind == "finite"
    assert got.count == bialternant_line_count(N, (d,))


# --- families and empties -------------------------------------------------------

def test_cubic_threefold_family():
    got = count_lines(ci(4, 3))
    assert got == LineCount.family(2, True)


def test_low_degree_families_are_never_finite():
    for d in (1, 2):
        got = count_lines(ci(3, d))
        assert got.kind == "family"
        assert got.nonempty


def test_negative_expected_dimension_is_empty():
    assert count_lines(ci(3, 4)) == LineCount.empty()
    assert count_lines(ci(2, 2)) == LineCount.empty()


def test_count_lines_preconditions():
    with pytest.raises(ValueError, match="no hypersurfaces"):
        count_lines(ci(4))
    with pytest.raises(ValueError, match="not positive-dimensional"):
        count_lines(ci(3, 2, 2, 2))


# --- the nonvanishing criterion ------------------------------------------------

def test_criterion_equivalence_small_sweep():
    # nonzero class <=> sum(d) <= 2N - 2 - r; the full range runs in acceptance
    for N in range(2, 7):
        for r in range(1, min(3, N - 1) + 1):
            for degrees in _degree_tuples(r, 4):
                c = CompleteIntersection(N, degrees)
                nonzero = not lines_class(c).is_zero()
                assert nonzero == (c.degree_sum <= 2 * N - 2 - r)


def _degree_tuples(r, dmax):
    if r == 0:
        return [()]
    return [
        tail + (d,)
        for tail in _degree_tuples(r - 1, dmax)
        for d in range(tail[-1] if tail else 1, dmax + 1)
    ]


# --- structural properties -------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(N=st.integers(3, 9), degrees=st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_lines_class_equals_product_of_substituted_factors(N, degrees):
    # one substitution of the product against one substitution per factor
    # joined by mul in the Schubert basis
    chained = CohomologyElement.one(N + 1)
    for d in degrees:
        chained = mul(chained, from_chern_poly(sym_top_chern(d), N + 1))
    assert lines_class(CompleteIntersection(N, tuple(degrees))) == chained


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_class_invariant_under_degree_permutation(data):
    N = data.draw(st.integers(3, 7))
    degrees = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    shuffled = data.draw(st.permutations(degrees))
    assert lines_class(CompleteIntersection(N, tuple(degrees))) == lines_class(
        CompleteIntersection(N, tuple(shuffled))
    )


@pytest.mark.parametrize(
    "N,degrees",
    [(4, (3,)), (5, (2, 2)), (5, (5,)), (6, (3, 3))],
)
def test_hyperplane_section_multiplies_by_c2(N, degrees):
    with_plane = lines_class(CompleteIntersection(N, degrees + (1,)))
    assert with_plane == mul(lines_class(CompleteIntersection(N, degrees)), sigma(N + 1, 1, 1))


@pytest.mark.parametrize(
    "N,degrees",
    [(4, (3,)), (5, (2, 2)), (5, (5,)), (6, (3, 3))],
)
def test_hyperplane_section_count_drops_to_smaller_ambient(N, degrees):
    # cutting with a hyperplane is the same counting problem one ambient down
    inner = count_lines(CompleteIntersection(N - 1, degrees))
    outer = count_lines(CompleteIntersection(N, degrees + (1,)))
    assert inner.kind == outer.kind == "finite"
    assert inner.count == outer.count


def test_expected_family_dimension_values():
    assert expected_family_dimension(ci(4, 5)) == 0
    assert expected_family_dimension(ci(4, 3)) == 2
    assert expected_family_dimension(ci(3, 4)) == -1


# --- lines through a general point -----------------------------------------------

def test_family_through_point_examples():
    assert line_family_through_point(ci(4, 3)) == 0
    assert line_family_through_point(ci(7, 2, 2)) == 2
    assert line_family_through_point(ci(4, 2, 2)) is None


def test_family_through_point_ambient_space():
    assert line_family_through_point(ci(5)) == 4


# --- data validation ---------------------------------------------------------------

def test_complete_intersection_validation():
    with pytest.raises(ValueError):
        CompleteIntersection(0)
    with pytest.raises(ValueError):
        CompleteIntersection(3, (0,))
    assert ci(4, 2, 3).dim == 2
    assert str(ci(4, 2, 3)) == "CI(2,3) in P^4"
    assert str(ci(4)) == "P^4"


@pytest.mark.parametrize(
    "N,degrees",
    [
        (4, (2.7,)),    # once truncated to CI(2) in P^4
        (4, (True,)),   # once read as degree 1
        (4.5, (3,)),    # once printed as CI(3) in P^4
        (True, ()),
        (4, ("3",)),
    ],
)
def test_complete_intersection_rejects_non_int(N, degrees):
    with pytest.raises(TypeError):
        CompleteIntersection(N, degrees)


def test_line_count_factories():
    with pytest.raises(ValueError):
        LineCount.finite(-1)
    with pytest.raises(ValueError):
        LineCount.family(0, True)
    assert LineCount.empty().is_nonempty is False
    assert LineCount.finite(0).is_nonempty is False
    assert LineCount.finite(5).is_nonempty is True
    assert LineCount.family(2, True).is_nonempty is True

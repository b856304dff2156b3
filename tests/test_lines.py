import os
import re
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from fanojet.lines import (
    CompleteIntersection,
    LineCount,
    _factor_product,
    _line_integral,
    count_lines,
    expected_family_dimension,
    line_family_through_point,
    lines_class,
)
from fanojet.chern import ChernPolynomial, InputError, sym_top_chern
from fanojet.schubert import CohomologyElement, from_chern_poly, integrate, mul, sigma

from oracles import _xy_mul, bialternant_line_count, degree_tuples, free_line_integral


def ci(N, *degrees):
    return CompleteIntersection(N, degrees)


# --- the class itself ---------------------------------------------------------

def test_cubic_surface_class():
    # 9*c2*(2*c1^2 + c2) lands on 27 times the point class of G(2,4)
    assert lines_class(ci(3, 3)) == CohomologyElement(4, {(2, 2): 27})
    assert repr(lines_class(ci(3, 3))) == "<27*s[2,2] in G(2,4)>"


@pytest.mark.parametrize("r", range(7))
def test_grouped_factor_product_equals_the_ungrouped_one(r):
    for degrees in degree_tuples(r, 4):  # nondecreasing, so equal degrees sit together
        want = prod(map(sym_top_chern, degrees), start=ChernPolynomial.one())
        for order in (degrees, degrees[::-1], degrees[1::2] + degrees[::2]):
            assert _factor_product(ci(2 * r + 2, *order)) == want, order


@pytest.mark.parametrize("d", [1, 3, 12])
def test_one_factor_product_is_the_cached_class_itself(d):
    assert _factor_product(ci(d + 2, d)) is sym_top_chern(d)


@pytest.mark.parametrize("twos, threes", [(7, 0), (1, 3), (5, 1), (8, 0), (0, 4), (2, 3), (9, 0),
                                          (1, 4), (3, 3), (15, 0), (1, 7), (16, 0), (0, 8),
                                          (4, 6), (17, 0), (1, 8), (7, 5)])
def test_factor_product_at_its_shift_boundaries(twos, threes):
    # sym_top_chern(2) = 4 c1 c2 and sym_top_chern(3) = 18 c1^2 c2 + 9 c2^2, so P's largest
    # c2 exponent is twos + 2 * threes: 7, 8, 9, 15, 16 or 17, around 2^3 and 2^4, where the
    # packed product's one shift gains a bit.  A tuple-keyed product in Z[c1, c2] is the reference.
    degrees = (2,) * twos + (3,) * threes
    want = {(0, 0): 1}
    for d in degrees:
        want = _xy_mul(want, sym_top_chern(d).terms)
    got = _factor_product(ci(2 * len(degrees) + 2, *degrees))
    assert max(j for _, j in got.terms) == twos + 2 * threes
    assert dict(got.terms) == want


def test_two_quadrics_class_top_coefficient():
    assert lines_class(ci(4, 2, 2)).coefficient(3, 3) == 16


def test_overloaded_intersection_class_vanishes():
    assert lines_class(ci(5, 2, 2, 2)).is_zero()
    assert lines_class(ci(5, 2, 2, 2)) == CohomologyElement.zero(6)


def test_lines_class_of_projective_space_is_unit():
    # r = 0: the empty product, so every line of P^4 counts
    assert lines_class(ci(4)) == CohomologyElement.one(5)


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


@pytest.mark.parametrize("N", [3, 4, 5, 6, 60, 100, 140])
def test_hypersurface_counts_match_bialternant(N):
    # up to the benchmark's sizes, where count_lines rolls Catalan numbers up to k = N - 2
    d = 2 * N - 3
    got = count_lines(ci(N, d))
    assert got.kind == "finite"
    assert got.count == bialternant_line_count(N, (d,))


# Mixed degrees 3..12 at N = 100; with the pair (10, 10), sum(d + 1) = 198 = 2(N - 1).
_MIXED = (*range(3, 13), 12, 12, 12, 12, 12, 12, 12)


@pytest.mark.parametrize("pair, delta", [((10, 10), 0), ((9, 10), 1), ((10, 11), -1)])
def test_mixed_degree_intersection_at_benchmark_size(pair, delta):
    X = ci(100, *_MIXED, *pair)
    assert expected_family_dimension(X) == delta
    if delta < 0:
        assert count_lines(X) == LineCount.empty()
        return
    integral = bialternant_line_count(100, X.degrees, delta)
    assert _line_integral(X) == integral
    expected = LineCount.finite(integral) if delta == 0 else LineCount.family(delta)
    assert count_lines(X) == expected


# --- families and empties -------------------------------------------------------

def test_cubic_threefold_family():
    got = count_lines(ci(4, 3))
    assert got == LineCount.family(2)


def test_low_degree_families_are_never_finite():
    for d in (1, 2):
        got = count_lines(ci(3, d))
        assert got.kind == "family"
        assert got.nonempty


def test_negative_expected_dimension_is_empty():
    assert count_lines(ci(3, 4)) == LineCount.empty()
    assert count_lines(ci(2, 2)) == LineCount.empty()


def test_count_lines_preconditions():
    # P^N takes the general route: all of G(2, N+1), or the single line P^1
    assert count_lines(ci(4)) == LineCount.family(6)
    assert count_lines(ci(1)) == LineCount.finite(1)


# --- the nonvanishing criterion ------------------------------------------------

def test_nonvanishing_criterion_sweep():
    # nonzero class <=> sum(d) <= 2N - 2 - r
    checked = 0
    for N in range(2, 9):
        for r in range(1, min(3, N - 1) + 1):
            for degrees in degree_tuples(r, 5):
                c = CompleteIntersection(N, degrees)
                nonzero = not lines_class(c).is_zero()
                assert nonzero == (c.degree_sum <= 2 * N - 2 - r), c
                checked += 1
    assert checked == 300  # 35 + 90 + 175 parameter combinations


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


@settings(max_examples=100, deadline=None)
@given(N=st.integers(1, 9), degrees=st.lists(st.integers(1, 5), max_size=4))
def test_catalan_integral_equals_schubert_route(N, degrees):
    # count_lines' one sum against the Schubert expansion of the class times sigma(1)^delta
    X = CompleteIntersection(N, tuple(degrees))
    delta = expected_family_dimension(X)
    assume(delta >= 0)
    integral = _line_integral(X)
    assert integral == integrate(lines_class(X) * sigma(N + 1, 1) ** delta)
    assert integral > 0


@st.composite
def _lines_expected(draw):
    """(N, degrees) with delta = 2(N - 1) - sum(d + 1) >= 0; r = 0 (all of P^N) included."""
    N = draw(st.integers(1, 12))
    degrees, room = [], 2 * (N - 1)
    while room >= 2 and draw(st.booleans()):
        degrees.append(draw(st.integers(1, room - 1)))
        room -= degrees[-1] + 1
    return N, tuple(degrees)


@settings(max_examples=150, deadline=None)
@given(case=_lines_expected())
def test_line_integral_equals_bialternant_for_every_delta(case):
    # route A, the Catalan sum over the Z[c1, c2] product, against route B, the coefficient
    # [x^N y^(N-1)] (x - y)(x + y)^delta prod_i prod_t (t x + (d_i - t) y), at any delta >= 0
    N, degrees = case
    X = CompleteIntersection(N, degrees)
    delta = expected_family_dimension(X)
    assert delta >= 0
    assert _line_integral(X) == bialternant_line_count(N, degrees, delta)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_class_invariant_under_degree_permutation(data):
    N = data.draw(st.integers(3, 7))
    degrees = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    shuffled = data.draw(st.permutations(degrees))
    X, Y = CompleteIntersection(N, tuple(degrees)), CompleteIntersection(N, tuple(shuffled))
    assert lines_class(X) == lines_class(Y)
    if X.dim >= 1:
        assert count_lines(X) == count_lines(Y)


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


@pytest.mark.parametrize(
    "N,degrees,plucker_degree",
    [(4, (3,), 45), (4, (2,), 8), (5, (2, 2), 32), (3, (2,), 4)],
)
def test_fano_scheme_plucker_degree(N, degrees, plucker_degree):
    # degree of the family of lines in the Plucker embedding: the class times sigma(1)^delta
    X = CompleteIntersection(N, degrees)
    delta = expected_family_dimension(X)
    assert integrate(lines_class(X) * sigma(N + 1, 1) ** delta) == plucker_degree
    assert _line_integral(X) == plucker_degree  # the Catalan route of count_lines


@pytest.mark.parametrize("j", [3, 4, 9])
def test_line_integral_rejects_a_term_past_the_last_catalan(monkeypatch, j):
    # c2^j with j > N - 1 has no Catalan number: it raises, never wraps or drops out
    past_the_end = ChernPolynomial({(0, 2): 1, (0, j): 1})
    monkeypatch.setattr("fanojet.lines._factor_product", lambda X: past_the_end)
    with pytest.raises(ValueError, match=r"^term c2\^%d has no Catalan number in G\(2, 4\)$" % j):
        _line_integral(ci(3, 3))


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
    with pytest.raises(InputError, match="^ambient dimension N must be >= 1$"):
        CompleteIntersection(0)
    for N, degrees in ((3, (0,)), (4, (3, 0))):
        with pytest.raises(InputError, match="^degrees must be positive integers$"):
            CompleteIntersection(N, degrees)
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
    with pytest.raises(TypeError, match="^(N|each degree) must be an int, got "):
        CompleteIntersection(N, degrees)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("bogus",), {}, "unknown line count kind 'bogus'"),
        ((None,), {}, "unknown line count kind None"),
        (("empty", 3), {}, "fields disagree with kind 'empty': "),
        (("finite",), {}, "fields disagree with kind 'finite': "),
        (("finite",), {"count": 3, "nonempty": True}, "fields disagree with kind 'finite': "),
        (("family",), {"family_dim": 2}, "fields disagree with kind 'family': "),
        (("family",), {"count": 3, "family_dim": 2, "nonempty": True},
         "fields disagree with kind 'family': "),
        (("finite",), {"count": -1}, "finite line counts are nonnegative"),
        (("family",), {"family_dim": 0, "nonempty": True}, "family dimension must be >= 1"),
    ],
    ids=["unknown-kind", "no-kind", "empty-with-count", "finite-without-count",
         "finite-nonempty", "family-without-nonempty", "family-with-count",
         "negative-count", "family-dim-0"],
)
def test_line_count_constructor_validates(args, kwargs, message):
    # the CLI's text views rebuild a LineCount from its JSON fields through this constructor
    with pytest.raises(InputError, match="^" + re.escape(message)):
        LineCount(*args, **kwargs)


def test_line_count_factories():
    with pytest.raises(InputError, match="^finite line counts are nonnegative$"):
        LineCount.finite(-1)
    with pytest.raises(InputError, match="^family dimension must be >= 1$"):
        LineCount.family(0)
    for build in (lambda: LineCount.finite(2.5), lambda: LineCount.family(2.0)):
        with pytest.raises(TypeError):
            build()
    assert LineCount.empty().is_nonempty is False
    assert LineCount.finite(0).is_nonempty is False
    assert LineCount.finite(5).is_nonempty is True
    assert LineCount.family(2).is_nonempty is True


# --- memory at a large ambient -------------------------------------------------------

@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_line_integral_at_a_large_ambient_peaks_small():
    # Only the Catalan numbers that P's terms read are made, here Catalan(N-3..N-2), not the
    # ~220 MiB of all N of them.  The child prints its own peak RSS (VmHWM, in kB): unlike
    # ru_maxrss, it does not carry over the parent's peak through fork and exec.
    code = ("from fanojet.cli import run; run(['lines', '--ambient', '40000', '--degrees', '3']); "
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])")
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    assert "result: 79994-dimensional family (nonempty)\n" in done.stdout, done.stdout[:200]
    assert int(done.stdout.split()[-1]) < 30 * 1024

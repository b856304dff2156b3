"""Embedding-order analysis of Fano complete intersections.

A complete intersection X of degrees d_1, ..., d_r in P^N has
K_X = O(-N - 1 + sum(d_i)) restricted to X, so X is Fano exactly when
sum(d_i) <= N.  For Fano X of dimension >= 2 the anticanonical bundle is
k-jet ample with k = N + 1 - sum(d_i), and since X contains a line ell with
-K_X . ell = k, it is not (k+1)-spanned: the jet order is exact.  For a curve
`analyze` extrapolates k, withholding it for the plane conic alone, though no conic
has a line: CI(1,2) in P^3 still gets k = 1 (item 7 of ROADMAP.md).
"""

from itertools import combinations
from math import comb, prod

from .chern import InputError, _at_least, _Record, _strict_int
from .lines import (
    CompleteIntersection,
    LineCount,
    _positive_dimensional,
    count_lines,
    line_family_through_point,
)


class EmbeddingOrderReport(_Record):
    """Everything the analysis pins down for one complete intersection.

    `jet_order` is exact when set (k-jet ample but not (k+1)-spanned);
    `contains_line` is read off `line_family` where the order needs a line,
    else None; `formula_extrapolated` marks dimension-1 results, where the
    order comes from the same formula but the line-existence argument is silent.
    """

    __slots__ = {
        "is_fano": "bool", "dim": "int", "jet_order": "int | None",
        "not_spanned_order": "int | None", "contains_line": "bool | None",
        "line_family": "LineCount", "family_through_point": "int | None",
        "anticanonical_degree": "int", "curve_exception": "bool", "formula_extrapolated": "bool",
    }


def degree_of_twist(ci: CompleteIntersection, t: int) -> int:
    """Self-intersection of O_X(t) on a positive-dimensional X: t^dim times prod(d_i)."""
    return _strict_int(t, "twist") ** _positive_dimensional(ci).dim * prod(ci.degrees)


def anticanonical_degree(ci: CompleteIntersection) -> int:
    """(-K_X)^dim for a positive-dimensional Fano complete intersection."""
    if _positive_dimensional(ci).degree_sum > ci.N:
        raise InputError("not Fano: sum of degrees exceeds ambient dimension")
    return degree_of_twist(ci, ci.N + 1 - ci.degree_sum)


def h0_of_twist(ci: CompleteIntersection, t: int) -> int:
    """h^0(O_X(t)) via the Koszul alternating sum over subsets of the degrees.

    Complete intersections are projectively normal, so this is also the
    Hilbert function of the homogeneous coordinate ring:
    sum over S of (-1)^|S| C(N + t - sum_{i in S} d_i, N), for positive-dimensional X.
    """
    _at_least(t, 0, "twist", "twist must be >= 0")
    N, total = ci.N, 0
    for size in range(_positive_dimensional(ci).r + 1):  # a subset sum s > t adds C(< N, N) = 0
        sums = map(sum, combinations(ci.degrees, size))
        terms = sum(comb(N + t - s, N) for s in sums if s <= t)
        total += -terms if size % 2 else terms
    return total


def _line_order(family: LineCount, t: int) -> int | None:
    """The jet, very-ample and spanned order of O_X(t) when X has a line, else None.

    O_{P^N}(t) is t-jet ample and so is its restriction O_X(t), hence t-very ample
    and t-spanned; a line ell in X has O_X(t) . ell = t, so O_X(t) is not
    (t+1)-spanned.  All three orders are then exactly t.  `family` is X's lines.
    """
    return t if family.is_nonempty else None


def analyze(ci: CompleteIntersection) -> EmbeddingOrderReport:
    """Jet order of -K_X, line-family data, and the anticanonical degree.

    X must be positive-dimensional (r = 0 means X = P^N).  `contains_line` is
    computed: a Fano X of dimension >= 2 with no line raises AssertionError.
    """
    family = count_lines(ci)
    index = ci.N + 1 - ci.degree_sum
    fano = index >= 1
    curve_exception = ci.N == 2 and ci.degrees == (2,)  # the plane conic, a Fano curve
    contains_line = None
    if fano and ci.dim >= 2:  # -K = O_X(index), whose order the line rule fixes
        jet = _line_order(family, index)
        if jet is None:
            raise AssertionError("no line on the Fano %s, against the order theorem" % ci)
        contains_line = True
    else:  # a curve's order comes from the same formula, extrapolated
        jet = index if fano and not curve_exception else None
    return EmbeddingOrderReport(
        is_fano=fano,
        dim=ci.dim,
        jet_order=jet,
        not_spanned_order=None if jet is None else jet + 1,
        contains_line=contains_line,
        line_family=family,
        family_through_point=line_family_through_point(ci),
        anticanonical_degree=degree_of_twist(ci, index),
        curve_exception=curve_exception,
        formula_extrapolated=jet is not None and ci.dim == 1,
    )

"""Embedding-order analysis of Fano complete intersections.

A complete intersection X of degrees d_1, ..., d_r in P^N has
K_X = O(-N - 1 + sum(d_i)) restricted to X, so X is Fano exactly when
sum(d_i) <= N.  For Fano X of dimension >= 2 the anticanonical bundle is
k-jet ample with k = N + 1 - sum(d_i), and since X contains a line ell with
-K_X . ell = k, it is not (k+1)-spanned: the jet order is exact.  The only
curve escaping the pattern is the plane conic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, prod

from .chern import InputError, _at_least, _strict_int
from .lines import (
    CompleteIntersection,
    LineCount,
    _positive_dimensional,
    count_lines,
    line_family_through_point,
)


@dataclass(frozen=True)
class EmbeddingOrderReport:
    """Everything the analysis pins down for one complete intersection.

    `jet_order` is exact when set (k-jet ample but not (k+1)-spanned);
    `contains_line` is read off `line_family` where the order needs a line,
    else None; `formula_extrapolated` marks dimension-1 results, where the
    order comes from the same formula but the line-existence argument is silent.
    """

    is_fano: bool
    dim: int
    jet_order: int | None
    not_spanned_order: int | None
    contains_line: bool | None
    line_family: LineCount
    family_through_point: int | None
    anticanonical_degree: int
    curve_exception: bool
    formula_extrapolated: bool = False


def degree_of_twist(ci: CompleteIntersection, t: int) -> int:
    """Self-intersection of O_X(t) on a positive-dimensional X: t^dim times prod(d_i)."""
    return _strict_int(t, "twist") ** _positive_dimensional(ci).dim * prod(ci.degrees)


def anticanonical_degree(ci: CompleteIntersection) -> int:
    """(-K_X)^dim for a positive-dimensional Fano complete intersection."""
    if _positive_dimensional(ci).degree_sum > ci.N:
        raise InputError("not Fano: sum of degrees exceeds ambient dimension")
    return degree_of_twist(ci, ci.N + 1 - ci.degree_sum)


def _binom(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def h0_of_twist(ci: CompleteIntersection, t: int) -> int:
    """h^0(O_X(t)) via the Koszul alternating sum over subsets of the degrees.

    Complete intersections are projectively normal, so this is also the
    Hilbert function of the homogeneous coordinate ring:
    sum over S of (-1)^|S| C(N + t - sum_{i in S} d_i, N), for positive-dimensional X.
    """
    _at_least(t, 0, "twist", "twist must be >= 0")
    total = 0
    for size in range(_positive_dimensional(ci).r + 1):
        for subset in combinations(ci.degrees, size):
            total += (-1) ** size * _binom(ci.N + t - sum(subset), ci.N)
    return total


def analyze(ci: CompleteIntersection) -> EmbeddingOrderReport:
    """Jet order of -K_X, line-family data, and the anticanonical degree.

    X must be positive-dimensional (r = 0 means X = P^N).  `contains_line` is
    computed: a Fano X of dimension >= 2 with no line raises AssertionError.
    """
    family = count_lines(ci)
    index = ci.N + 1 - ci.degree_sum
    fano = index >= 1
    curve_exception = ci.N == 2 and ci.degrees == (2,)  # the plane conic, a Fano curve
    jet = index if fano and not curve_exception else None
    contains_line = family.is_nonempty if jet is not None and ci.dim >= 2 else None
    if contains_line is False:
        raise AssertionError("no line on the Fano %s, against the order theorem" % ci)
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

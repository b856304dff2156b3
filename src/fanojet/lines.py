"""Lines on generic complete intersections, by Schubert calculus on G(2, N+1).

A section of O(d) on P^N induces a section of Sym^d F on G(2, N+1) whose
zeros are the lines inside the hypersurface.  For a complete intersection of
degrees d_1, ..., d_r the locus of lines is cut by a section of
(+) Sym^(d_i) F, so its class is the product of the top Chern classes
c_(d_i+1)(Sym^(d_i) F).  The expected dimension of the family of lines is

    delta = 2(N - 1) - sum(d_i + 1).

The class is nonzero, and the family of lines on a generic member nonempty,
exactly when delta >= 0 (Debarre-Manivel); when delta = 0 its integral is the
(multiplicity-counted) number of lines.  X must be positive-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .chern import ChernPolynomial, InputError, _at_least, _strict_int, sym_top_chern
from .schubert import CohomologyElement, from_chern_poly, integrate


@dataclass(frozen=True)
class CompleteIntersection:
    """Ambient P^N cut by hypersurfaces of the given degrees (r may be 0).

    N and the degrees must be ints; a float, a string or a bool raises
    TypeError rather than being coerced.
    """

    N: int
    degrees: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        for value in (self.N, *self.degrees):
            _strict_int(value, "N and each degree")
        if self.N < 1:
            raise InputError("ambient dimension N must be >= 1")
        if any(d < 1 for d in self.degrees):
            raise InputError("hypersurface degrees must be >= 1")

    @property
    def r(self) -> int:
        return len(self.degrees)

    @property
    def dim(self) -> int:
        return self.N - self.r

    @property
    def degree_sum(self) -> int:
        return sum(self.degrees)

    def __str__(self) -> str:
        if not self.degrees:
            return "P^%d" % self.N
        return "CI(%s) in P^%d" % (",".join(map(str, self.degrees)), self.N)


@dataclass(frozen=True)
class LineCount:
    """Outcome of a line count: finite, a positive-dimensional family, or empty."""

    kind: str  # "finite" | "family" | "empty"
    count: int | None = None
    family_dim: int | None = None
    nonempty: bool | None = None

    @classmethod
    def finite(cls, count: int) -> "LineCount":
        _at_least(count, 0, "line count", "finite line counts are nonnegative")
        return cls("finite", count=count)

    @classmethod
    def family(cls, dim: int, nonempty: bool) -> "LineCount":
        _at_least(dim, 1, "family dimension", "family dimension must be >= 1")
        return cls("family", family_dim=dim, nonempty=nonempty)

    @classmethod
    def empty(cls) -> "LineCount":
        return cls("empty")

    @property
    def is_nonempty(self) -> bool:
        if self.kind == "finite":
            return self.count > 0
        if self.kind == "family":
            return bool(self.nonempty)
        return False

    def __str__(self) -> str:
        if self.kind == "finite":
            return "finite count %d" % self.count
        if self.kind == "family":
            return "%d-dimensional family (%s)" % (
                self.family_dim,
                "nonempty" if self.nonempty else "possibly empty",
            )
        return "empty"


def _positive_dimensional(ci: CompleteIntersection) -> CompleteIntersection:
    _at_least(ci.dim, 1, "dimension", "not positive-dimensional")
    return ci


def expected_family_dimension(ci: CompleteIntersection) -> int:
    return 2 * (ci.N - 1) - sum(d + 1 for d in ci.degrees)


def lines_class(ci: CompleteIntersection) -> CohomologyElement:
    """Class of the locus of lines on X in H*(G(2, N+1)).

    The factors are multiplied in Z[c1, c2] and substituted into it once.  For
    X = P^N (r = 0) the product is empty and the class is the unit: every line.
    """
    product = prod(map(sym_top_chern, ci.degrees), start=ChernPolynomial.one())
    return from_chern_poly(product, ci.N + 1)


def count_lines(ci: CompleteIntersection) -> LineCount:
    """Count or bound the family of lines on a generic complete intersection.

    X must be positive-dimensional.  The nonvanishing verdict is computed twice,
    by the criterion delta >= 0 and by testing the class directly; disagreement,
    like a negative count, raises, because it would mean an arithmetic bug.
    X = P^N (r = 0) takes the same route, its class being the unit.
    """
    delta = expected_family_dimension(_positive_dimensional(ci))
    cls = lines_class(ci)
    if (delta >= 0) == cls.is_zero():
        raise AssertionError(
            "degree criterion and direct class computation disagree for %s" % ci
        )
    if delta < 0:
        return LineCount.empty()
    if delta == 0:
        count = integrate(cls)
        if count < 0:
            raise ArithmeticError("negative line count %d for %s" % (count, ci))
        return LineCount.finite(count)
    return LineCount.family(delta, True)


def line_family_through_point(ci: CompleteIntersection) -> int | None:
    """Dimension of the space of lines through a general point, if covered.

    Returns N - sum(d_i) - 1 when N > sum(d_i), else None: below that bound
    the covering-family argument does not apply.
    """
    if ci.N > ci.degree_sum:
        return ci.N - ci.degree_sum - 1
    return None

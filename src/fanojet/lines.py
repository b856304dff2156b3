"""Lines on generic complete intersections, by Schubert calculus on G(2, N+1).

A section of O(d) on P^N induces a section of Sym^d F on G(2, N+1) whose
zeros are the lines inside the hypersurface.  For a complete intersection of
degrees d_1, ..., d_r the locus of lines is cut by a section of
(+) Sym^(d_i) F, so its class is the product of the top Chern classes
c_(d_i+1)(Sym^(d_i) F).  The expected dimension of the family of lines is

    delta = 2(N - 1) - sum(d_i + 1).

When delta = 0 the integral of the class is the (multiplicity-counted) number
of lines on a generic member; when delta > 0 the class is nonzero, and the
family nonempty, exactly when sum(d_i) <= 2N - 2 - r.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .chern import ChernPolynomial, _strict_int, sym_top_chern
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
            raise ValueError("ambient dimension N must be >= 1")
        if any(d < 1 for d in self.degrees):
            raise ValueError("hypersurface degrees must be >= 1")

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
        if count < 0:
            raise ValueError("finite line counts are nonnegative")
        return cls("finite", count=count)

    @classmethod
    def family(cls, dim: int, nonempty: bool) -> "LineCount":
        if dim < 1:
            raise ValueError("family dimension must be >= 1")
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


def expected_family_dimension(ci: CompleteIntersection) -> int:
    return 2 * (ci.N - 1) - sum(d + 1 for d in ci.degrees)


def lines_class(ci: CompleteIntersection) -> CohomologyElement:
    """Class of the locus of lines on X in H*(G(2, N+1)).

    The factors are multiplied in Z[c1, c2] and substituted into it once.
    """
    if ci.r < 1:
        raise ValueError("no hypersurfaces")
    product = prod(map(sym_top_chern, ci.degrees), start=ChernPolynomial.one())
    return from_chern_poly(product, ci.N + 1)


def count_lines(ci: CompleteIntersection) -> LineCount:
    """Count or bound the family of lines on a generic complete intersection.

    The nonvanishing verdict is computed twice, by the degree inequality
    sum(d_i) <= 2N - 2 - r and by testing the class directly; disagreement
    raises, because it would mean an arithmetic bug.
    """
    if ci.r < 1:
        raise ValueError("no hypersurfaces")
    if ci.r >= ci.N:
        raise ValueError("not positive-dimensional")
    delta = expected_family_dimension(ci)
    cls = lines_class(ci)
    criterion = ci.degree_sum <= 2 * ci.N - 2 - ci.r
    if criterion != (not cls.is_zero()):
        raise AssertionError(
            "degree criterion and direct class computation disagree for %s" % ci
        )
    if delta < 0:
        return LineCount.empty()
    if delta == 0:
        return LineCount.finite(integrate(cls))
    return LineCount.family(delta, criterion)


def line_family_through_point(ci: CompleteIntersection) -> int | None:
    """Dimension of the space of lines through a general point, if covered.

    Returns N - sum(d_i) - 1 when N > sum(d_i), else None: below that bound
    the covering-family argument does not apply.
    """
    if ci.N > ci.degree_sum:
        return ci.N - ci.degree_sum - 1
    return None

"""Lines on generic complete intersections, by intersection theory on G(2, N+1).

A section of O(d) on P^N induces a section of Sym^d F on G(2, N+1) whose
zeros are the lines inside the hypersurface.  For a complete intersection of
degrees d_1, ..., d_r the locus of lines is cut by a section of
(+) Sym^(d_i) F, so its class is the product P of the top Chern classes
c_(d_i+1)(Sym^(d_i) F), and the family of lines has expected dimension
delta = 2(N - 1) - sum(d_i + 1).

A generic member has lines exactly when delta >= 0 (Debarre-Manivel); the class
is effective, so then I = integral of c1^delta * P > 0, the number of lines at
delta = 0.  `count_lines` reads I off P by integral c1^(2k) c2^(N-1-k) = Catalan(k).
"""

from collections import Counter
from itertools import accumulate
from math import comb

from .chern import (ChernPolynomial, InputError, _at_least, _decimal, _product_of_powers, _Record,
                    sym_top_chern)


class CompleteIntersection(_Record):
    """Ambient P^N cut by hypersurfaces of the given degrees (r may be 0).

    N and the degrees must be ints; a float, a string or a bool raises
    TypeError rather than being coerced.
    """

    __slots__ = {"N": "int", "degrees": "tuple[int, ...]"}
    _defaults = {"degrees": ()}

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        _at_least(self.N, 1, "N", "ambient dimension N must be >= 1")
        for d in self.degrees:
            _at_least(d, 1, "each degree", "degrees must be positive integers")

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
            return "P^%s" % _decimal(self.N)
        return "CI(%s) in P^%s" % (",".join(map(_decimal, self.degrees)), _decimal(self.N))


class LineCount(_Record):
    """Outcome of a line count: finite, a positive-dimensional family, or empty."""

    __slots__ = {"kind": '"finite" | "family" | "empty"', "count": "int | None",
                 "family_dim": "int | None", "nonempty": "True for every family, else None"}
    _defaults = {"count": None, "family_dim": None, "nonempty": None}

    def __post_init__(self):
        is_finite, is_family = self.kind == "finite", self.kind == "family"
        if not (is_finite or is_family or self.kind == "empty"):
            raise InputError("unknown line count kind %r" % (self.kind,))
        if ((self.count is not None, self.family_dim is not None) != (is_finite, is_family)
                or self.nonempty is not (True if is_family else None)):
            raise InputError("fields disagree with kind %r: %r" % (self.kind, self))
        if is_finite:
            _at_least(self.count, 0, "line count", "finite line counts are nonnegative")
        if is_family:
            _at_least(self.family_dim, 1, "family dimension", "family dimension must be >= 1")

    @classmethod
    def finite(cls, count: int) -> "LineCount":
        return cls("finite", count=count)

    @classmethod
    def family(cls, dim: int) -> "LineCount":
        """A `dim`-dimensional family, nonempty: `count_lines` builds one only after I > 0."""
        return cls("family", family_dim=dim, nonempty=True)

    @classmethod
    def empty(cls) -> "LineCount":
        return cls("empty")

    @property
    def is_nonempty(self) -> bool:
        return self.kind == "family" or (self.kind == "finite" and self.count > 0)

    def __str__(self) -> str:
        if self.kind == "finite":
            return "finite count %s" % _decimal(self.count)
        if self.kind == "family":
            return "%s-dimensional family (nonempty)" % _decimal(self.family_dim)
        return "empty"


def _positive_dimensional(ci: CompleteIntersection) -> CompleteIntersection:
    _at_least(ci.dim, 1, "dimension", "not positive-dimensional")
    return ci


def expected_family_dimension(ci: CompleteIntersection) -> int:
    return 2 * (ci.N - 1) - sum(d + 1 for d in ci.degrees)


def _factor_product(ci: CompleteIntersection) -> ChernPolynomial:
    """P = prod of the c_(d_i+1)(Sym^(d_i) F) in Z[c1, c2]; the unit (every line) when r = 0,
    and the cached class itself, with no product, when r = 1.  Otherwise equal degrees d,
    m of them, enter as one power, and `_product_of_powers` packs each distinct degree's
    class once, with one shift for the whole count, and unpacks P once."""
    if ci.r <= 1:
        return sym_top_chern(ci.degrees[0]) if ci.degrees else ChernPolynomial.one()
    return _product_of_powers([(sym_top_chern(d), m) for d, m in Counter(ci.degrees).items()])


def lines_class(ci: CompleteIntersection):
    """The `CohomologyElement` of the lines on X in G(2, N+1): the factor product, substituted."""
    from .schubert import from_chern_poly  # the one use of the Schubert ring in this module
    return from_chern_poly(_factor_product(ci), ci.N + 1)


def _line_integral(ci: CompleteIntersection) -> int:
    """I for delta >= 0: the sum of c * Catalan(N-1-j) over the terms c * c1^i c2^j of P.

    Only the Catalan numbers between the smallest and the largest index read are made:
    one `math.comb` at the smallest, then Catalan(k+1) = Catalan(k) * 2(2k+1) / (k+2).
    P is a ring value, checked where its factors were built, so its terms are not
    checked again; a term with j > N-1 has no Catalan number and raises ValueError.
    """
    terms = _factor_product(ci).terms
    js = [j for _, j in terms] or [0]  # a zero P, only ever a fault, still sums to 0
    top = max(js)
    if top >= ci.N:
        raise ValueError("term c2^%d has no Catalan number in G(2, %d)" % (top, ci.N + 1))
    lo = ci.N - 1 - top  # catalan[i] is Catalan(lo + i), so c2^j reads catalan[top - j]
    catalan = list(accumulate(range(lo, ci.N - 1 - min(js)),
                              lambda c, k: c * 2 * (2 * k + 1) // (k + 2),
                              initial=comb(2 * lo, lo) // (lo + 1)))
    return sum(c * catalan[top - j] for j, c in zip(js, terms.values()))


def count_lines(ci: CompleteIntersection) -> LineCount:
    """Count or bound the family of lines on a generic complete intersection.

    X must be positive-dimensional.  At delta < 0 X is empty by degree and nothing
    is computed; else I > 0 is asserted, as anything else is an arithmetic bug.
    """
    delta = expected_family_dimension(_positive_dimensional(ci))
    if delta < 0:
        return LineCount.empty()
    integral = _line_integral(ci)
    if integral <= 0:
        raise AssertionError("line integral %s is not positive for %s" % (_decimal(integral), ci))
    return LineCount.finite(integral) if delta == 0 else LineCount.family(delta)


def line_family_through_point(ci: CompleteIntersection) -> int | None:
    """Dimension of the space of lines through a general point, if covered.

    Returns N - sum(d_i) - 1 when N > sum(d_i), else None: below that bound
    the covering-family argument does not apply.
    """
    if ci.N > ci.degree_sum:
        return ci.N - ci.degree_sum - 1
    return None

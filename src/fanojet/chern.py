"""Top Chern class of symmetric powers of a rank-2 bundle, exactly.

Polynomials live in Z[c1, c2] where c1, c2 are the Chern classes of a rank-2
bundle F (weights 1 and 2).  If F has Chern roots x, y then Sym^d F has the
d + 1 roots {t*x + (d-t)*y : 0 <= t <= d}, so its top Chern class is

    c_(d+1)(Sym^d F) = prod_{t=0}^{d} (t*x + (d-t)*y),

a symmetric polynomial that rewrites exactly in e1 = x + y = c1 and
e2 = x*y = c2.  Pairing the roots t and d - t gives the closed form

    d^2 * c2 * prod_{t=1}^{floor((d-1)/2)} (t(d-t) c1^2 + (d-2t)^2 c2)

with an extra factor (d/2) c1 when d is even.  A widely printed variant of
this product carries the boundary coefficient (d+1)^2 instead of d^2; it is
kept here as `sym_top_chern_paper` purely for comparison and is never used
downstream, since the splitting-principle expansion pins the coefficient to
d^2 (the roots t = 0 and t = d contribute d*y and d*x, whose product is
d^2 * c2).  The two variants differ by the exact scalar (d+1)^2 / d^2.
"""

from __future__ import annotations

from functools import cache
from math import comb
from types import MappingProxyType
from typing import Mapping


def _bump(acc: dict, key, value: int) -> None:
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _strict_int(value, what: str) -> int:
    """Return `value` if it is an int and not a bool; raise TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("%s must be an int, got %r" % (what, value))
    return value


class ChernPolynomial:
    """Element of Z[c1, c2]; keys are (i, j) for c1^i c2^j, values are ints.

    The weighted degree of a monomial is i + 2j.  No relations are imposed;
    evaluation inside an ambient Grassmannian happens in `schubert`.  Exponents
    and coefficients must be ints; a float or a bool raises TypeError.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        clean: dict = {}
        if terms:
            for (i, j), c in terms.items():
                if _strict_int(i, "exponent") < 0 or _strict_int(j, "exponent") < 0:
                    raise ValueError("negative exponent in (%d, %d)" % (i, j))
                if _strict_int(c, "coefficient"):
                    _bump(clean, (i, j), c)
        self._terms = clean

    @property
    def terms(self) -> Mapping:
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls) -> "ChernPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "ChernPolynomial":
        return cls({(0, 0): 1})

    @classmethod
    def c1(cls) -> "ChernPolynomial":
        return cls({(1, 0): 1})

    @classmethod
    def c2(cls) -> "ChernPolynomial":
        return cls({(0, 1): 1})

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, i: int, j: int) -> int:
        return self._terms.get((i, j), 0)

    def weighted_degrees(self) -> set[int]:
        return {i + 2 * j for (i, j) in self._terms}

    def is_homogeneous(self) -> bool:
        return len(self.weighted_degrees()) <= 1

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._terms)
        for key, c in other._terms.items():
            _bump(acc, key, c)
        return ChernPolynomial(acc)

    __radd__ = __add__

    def __neg__(self) -> "ChernPolynomial":
        return ChernPolynomial({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc: dict = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                _bump(acc, (i1 + i2, j1 + j2), c1 * c2)
        return ChernPolynomial(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ChernPolynomial":
        if _strict_int(n, "exponent") < 0:
            raise ValueError("negative powers are not defined")
        out = ChernPolynomial.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, ChernPolynomial) and self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (i, j) in sorted(self._terms, key=lambda k: (-(k[0] + 2 * k[1]), -k[0])):
            c = self._terms[(i, j)]
            factors = []
            if c != 1 or (i == 0 and j == 0):
                factors.append(str(c))
            if i:
                factors.append("c1" if i == 1 else "c1^%d" % i)
            if j:
                factors.append("c2" if j == 1 else "c2^%d" % j)
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return "ChernPolynomial(%s)" % self


def _coerce(value) -> ChernPolynomial | None:
    if isinstance(value, ChernPolynomial):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return ChernPolynomial({(0, 0): value})
    return None


def _paired_product(d: int, boundary: int) -> ChernPolynomial:
    """Closed form d-th symmetric power top class with a chosen boundary coefficient."""
    if d < 1:
        raise ValueError("symmetric power exponent must be >= 1")
    out = ChernPolynomial({(0, 1): boundary})
    if d % 2 == 0:
        out = out * ChernPolynomial({(1, 0): d // 2})
        pairs = d // 2 - 1
    else:
        pairs = (d - 1) // 2
    for t in range(1, pairs + 1):
        out = out * ChernPolynomial({(2, 0): t * (d - t), (0, 1): (d - 2 * t) ** 2})
    return out


@cache
def sym_top_chern_paper(d: int) -> ChernPolynomial:
    """The printed closed-form variant with boundary coefficient (d+1)^2.

    Kept for comparison only; equals (d+1)^2/d^2 times `sym_top_chern(d)`.
    """
    return _paired_product(d, (d + 1) ** 2)


@cache
def sym_top_chern_oracle(d: int) -> ChernPolynomial:
    """Splitting-principle computation of c_(d+1)(Sym^d F).

    Expands prod_{t=0}^{d} (t*x + (d-t)*y) over the formal roots and rewrites
    the result in e1, e2 by repeated division, checking for a zero remainder.
    """
    if d < 1:
        raise ValueError("symmetric power exponent must be >= 1")
    roots: dict = {(0, 0): 1}
    for t in range(d + 1):
        nxt: dict = {}
        for (i, j), c in roots.items():
            if t:
                _bump(nxt, (i + 1, j), c * t)
            if d - t:
                _bump(nxt, (i, j + 1), c * (d - t))
        roots = nxt
    return ChernPolynomial(_elementary_rewrite(roots))


def _elementary_rewrite(xy: Mapping) -> dict:
    """Rewrite a symmetric integer polynomial in x, y as one in e1, e2.

    Standard leading-term elimination: peel off c * e1^(i-j) * e2^j at the
    lex-leading monomial x^i y^j until nothing remains.  A leading monomial
    with i < j, or a nonzero remainder, would mean the input was not
    symmetric; both are impossible here and raise ArithmeticError.
    """
    work = dict(xy)
    out: dict = {}
    while work:
        i, j = max(work)
        if i < j:
            raise ArithmeticError("nonsymmetric remainder at x^%d y^%d" % (i, j))
        c = work[(i, j)]
        for k in range(i - j + 1):
            _bump(work, (j + k, i - k), -c * comb(i - j, k))
        if (i, j) in work:
            raise ArithmeticError("leading term x^%d y^%d survived elimination" % (i, j))
        _bump(out, (i - j, j), c)
    return out


@cache
def sym_top_chern(d: int) -> ChernPolynomial:
    """Top Chern class of Sym^d F, the value used by all downstream counts.

    Computed by the corrected closed form (boundary coefficient d^2) and
    checked term-for-term against the splitting-principle expansion on every
    call; disagreement would be a bug, not a result.
    """
    value = _paired_product(d, d * d)
    if value != sym_top_chern_oracle(d):
        raise AssertionError(
            "closed form and splitting-principle expansion disagree at d=%d" % d
        )
    return value

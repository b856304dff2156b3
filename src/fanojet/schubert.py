"""Exact Schubert calculus in the cohomology ring of the Grassmannian G(2, m).

G(2, m) parametrizes 2-dimensional subspaces of an m-dimensional complex
vector space (equivalently, lines in P^(m-1)).  Its integral cohomology has a
Z-basis of Schubert classes sigma(a, b) indexed by partitions with
m - 2 >= a >= b >= 0; the class sigma(a, b) sits in codimension a + b and the
fundamental point class is sigma(m-2, m-2).

The ring is generated by c1 = sigma(1, 0) and c2 = sigma(1, 1), the Chern
classes of the tautological quotient bundle, which act by the Pieri rules

    sigma(1, 0) * sigma(a, b) = sigma(a+1, b) + sigma(a, b+1)
    sigma(1, 1) * sigma(a, b) = sigma(a+1, b+1)

where any term whose first part exceeds m - 2 is dropped.  Dropping overflow
terms at every intermediate step is legitimate: the span of the non-fitting
partitions is exactly the ideal cut out by the ambient, so truncation is a
ring homomorphism.  Every product goes through one primitive, `_act`: a
polynomial in c1, c2 acts on Schubert classes by Horner in c1, and a class
enters as such a polynomial by Giambelli,

    sigma(a, b) = c2^b * h_(a-b),  h_k = sum_i (-1)^i C(k-i, i) c1^(k-2i) c2^i.

All coefficients are Python ints, so arithmetic is exact at any size.  Values
are immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Mapping, NamedTuple
from types import MappingProxyType

from .chern import _bump, _strict_int


class SchubertClass(NamedTuple):
    """Basis class sigma(a, b) with a >= b >= 0, of codimension a + b."""

    a: int
    b: int

    @property
    def codim(self) -> int:
        return self.a + self.b

    def fits(self, m: int) -> bool:
        """Whether the class is nonzero in G(2, m)."""
        return self.a <= m - 2

    def __str__(self) -> str:
        return "s[%d,%d]" % (self.a, self.b)


def _as_class(key) -> SchubertClass:
    cls = SchubertClass(*(_strict_int(part, "partition part") for part in key))
    if not cls.a >= cls.b >= 0:
        raise ValueError("invalid partition %r: need a >= b >= 0" % (key,))
    return cls


def _ambient(m) -> int:
    if _strict_int(m, "Grassmannian parameter m") < 2:
        raise ValueError("Grassmannian parameter m must be >= 2")
    return m


def _pieri_one(m: int, terms: Mapping) -> dict:
    """Multiply a term dict by sigma(1, 0), truncating at the ambient."""
    out: dict = {}
    for (a, b), c in terms.items():
        if a + 1 <= m - 2:
            _bump(out, (a + 1, b), c)
        if b + 1 <= a:
            _bump(out, (a, b + 1), c)
    return out


def _act(m: int, poly: Mapping, terms: Mapping) -> dict:
    """Multiply a term dict by a polynomial {(i, j): c} in c1 and c2.

    Horner in c1: for i from the top down, acc = sigma(1,0) * acc plus
    c * sigma(1,1)^j * terms for each monomial c * c1^i c2^j.
    """
    rows: dict = {}
    for (i, j), c in poly.items():
        rows.setdefault(i, []).append((j, c))
    acc: dict = {}
    for i in range(max(rows, default=-1), -1, -1):
        acc = _pieri_one(m, acc)
        for j, c in rows.get(i, ()):
            for (a, b), v in terms.items():
                if a + j <= m - 2:
                    _bump(acc, (a + j, b + j), c * v)
    return acc


def _giambelli(terms: Mapping) -> dict:
    """Rewrite Schubert classes as a polynomial {(i, j): c} in c1 and c2."""
    poly: dict = {}
    for (a, b), c in terms.items():
        for i in range((a - b) // 2 + 1):
            _bump(poly, (a - b - 2 * i, b + i), (-1) ** i * comb(a - b - i, i) * c)
    return poly


class CohomologyElement:
    """Integer combination of Schubert classes of a fixed G(2, m).

    The representation is truncated: keys always satisfy a <= m - 2.  The
    parameter m, the partition parts and the coefficients must be ints.
    Heterogeneous (mixed-codimension) combinations are allowed; integration
    only ever reads the coefficient of the point class.
    """

    __slots__ = ("m", "_terms")

    def __init__(self, m: int, terms: Mapping | Iterable | None = None):
        self.m = _ambient(m)
        clean: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, value in items:
                cls = _as_class(key)
                if _strict_int(value, "coefficient") and cls.fits(m):
                    _bump(clean, (cls.a, cls.b), value)
        self._terms = clean

    @property
    def terms(self) -> Mapping:
        """Read-only view of the coefficient map {(a, b): int}."""
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls, m: int) -> "CohomologyElement":
        return cls(m)

    @classmethod
    def one(cls, m: int) -> "CohomologyElement":
        return cls(m, {(0, 0): 1})

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, a: int, b: int) -> int:
        return self._terms.get((a, b), 0)

    def codimensions(self) -> set[int]:
        return {a + b for (a, b) in self._terms}

    def __add__(self, other: "CohomologyElement") -> "CohomologyElement":
        self._check_ambient(other)
        acc = dict(self._terms)
        for key, c in other._terms.items():
            _bump(acc, key, c)
        return CohomologyElement(self.m, acc)

    def __neg__(self) -> "CohomologyElement":
        return CohomologyElement(self.m, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "CohomologyElement") -> "CohomologyElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return CohomologyElement(self.m, {k: other * c for k, c in self._terms.items()})
        if isinstance(other, CohomologyElement):
            return mul(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CohomologyElement":
        if _strict_int(n, "exponent") < 0:
            raise ValueError("negative powers are not defined")
        out = CohomologyElement.one(self.m)
        for _ in range(n):
            out = mul(out, self)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohomologyElement)
            and self.m == other.m
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        if not self._terms:
            body = "0"
        else:
            parts = []
            for (a, b) in sorted(self._terms, key=lambda k: (k[0] + k[1], -k[0])):
                c = self._terms[(a, b)]
                parts.append("%d*s[%d,%d]" % (c, a, b))
            body = " + ".join(parts).replace("+ -", "- ")
        return "<%s in G(2,%d)>" % (body, self.m)

    def _check_ambient(self, other: "CohomologyElement") -> None:
        if self.m != other.m:
            raise ValueError("ambient mismatch: G(2,%d) vs G(2,%d)" % (self.m, other.m))


def sigma(m: int, a: int, b: int = 0) -> CohomologyElement:
    """The Schubert class sigma(a, b) as an element of H*(G(2, m))."""
    _as_class((a, b))
    return CohomologyElement(m, {(a, b): 1})


def mul(x: CohomologyElement, y: CohomologyElement) -> CohomologyElement:
    """Product in H*(G(2, m)); raises on mismatched ambients."""
    x._check_ambient(y)
    left, right = (x, y) if len(x._terms) <= len(y._terms) else (y, x)
    return CohomologyElement(x.m, _act(x.m, _giambelli(left._terms), right._terms))


def integrate(x: CohomologyElement) -> int:
    """Pairing with the fundamental class: the coefficient of sigma(m-2, m-2)."""
    top = x.m - 2
    return x._terms.get((top, top), 0)


def from_chern_poly(p, m: int) -> CohomologyElement:
    """Evaluate a polynomial in c1, c2 of the tautological quotient bundle.

    Substitutes c1 -> sigma(1, 0) and c2 -> sigma(1, 1), applying the whole
    polynomial to the unit class by Horner in c1.  `p` is anything exposing a
    `terms` mapping {(i, j): coefficient} for c1^i c2^j.
    """
    return CohomologyElement(m, _act(_ambient(m), p.terms, {(0, 0): 1}))


def plucker_degree(m: int) -> int:
    """Degree of G(2, m) in the Plucker embedding: integral of sigma(1,0)^dim.

    Equals the Catalan number C_(m-2).
    """
    top = _ambient(m) - 2
    return _act(m, {(2 * top, 0): 1}, {(0, 0): 1}).get((top, top), 0)

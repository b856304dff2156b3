"""Exact Schubert calculus in the cohomology ring of the Grassmannian G(2, m).

G(2, m) parametrizes 2-dimensional subspaces of an m-dimensional complex
vector space (equivalently, lines in P^(m-1)).  Its integral cohomology has a
Z-basis of Schubert classes sigma(a, b) indexed by partitions with
m - 2 >= a >= b >= 0; the class sigma(a, b) sits in codimension a + b and the
fundamental point class is sigma(m-2, m-2).

Multiplication is generated by the two rank-2 Pieri rules

    sigma(1, 0) * sigma(a, b) = sigma(a+1, b) + sigma(a, b+1)
    sigma(1, 1) * sigma(a, b) = sigma(a+1, b+1)

where any term whose first part exceeds m - 2 is dropped.  Dropping overflow
terms at every intermediate step is legitimate: the span of the non-fitting
partitions is exactly the ideal cut out by the ambient, so truncation is a
ring homomorphism.  General basis products are reduced to Pieri steps through
the recursion h_k = sigma(1,0) h_{k-1} - sigma(1,1) h_{k-2} for the one-row
classes h_k = sigma(k, 0).

All coefficients are Python ints, so arithmetic is exact at any size.  Values
are immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple
from types import MappingProxyType

from .chern import _bump


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
    cls = SchubertClass(int(key[0]), int(key[1]))
    if not cls.a >= cls.b >= 0:
        raise ValueError("invalid partition %r: need a >= b >= 0" % (key,))
    return cls


def _pieri_one(m: int, terms: Mapping) -> dict:
    """Multiply a term dict by sigma(1, 0), truncating at the ambient."""
    out: dict = {}
    for (a, b), c in terms.items():
        if a + 1 <= m - 2:
            _bump(out, (a + 1, b), c)
        if b + 1 <= a:
            _bump(out, (a, b + 1), c)
    return out


def _shift(m: int, terms: Mapping, j: int) -> dict:
    """Multiply by sigma(1, 1)^j in one move: (a, b) -> (a+j, b+j)."""
    if j == 0:
        return dict(terms)
    out = {}
    for (a, b), c in terms.items():
        if a + j <= m - 2:
            out[(a + j, b + j)] = c
    return out


def _mul_basis(m: int, terms: Mapping, a: int, b: int) -> dict:
    """Multiply a term dict by sigma(a, b) using iterated Pieri steps.

    sigma(a, b) = sigma(1,1)^b * h_{a-b}, and multiplication by h_k follows
    the recursion u_k = sigma(1,0) u_{k-1} - sigma(1,1) u_{k-2}.
    """
    cur = _shift(m, terms, b)
    k = a - b
    if k == 0 or not cur:
        return cur
    prev = cur
    out = _pieri_one(m, cur)
    for _ in range(k - 1):
        nxt = _pieri_one(m, out)
        for key, c in _shift(m, prev, 1).items():
            _bump(nxt, key, -c)
        prev, out = out, nxt
    return out


class CohomologyElement:
    """Integer combination of Schubert classes of a fixed G(2, m).

    The representation is truncated: keys always satisfy a <= m - 2.
    Heterogeneous (mixed-codimension) combinations are allowed; integration
    only ever reads the coefficient of the point class.
    """

    __slots__ = ("m", "_terms")

    def __init__(self, m: int, terms: Mapping | Iterable | None = None):
        if m < 2:
            raise ValueError("Grassmannian parameter m must be >= 2")
        self.m = m
        clean: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, value in items:
                cls = _as_class(key)
                if value and cls.fits(m):
                    _bump(clean, (cls.a, cls.b), int(value))
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
        if isinstance(other, int):
            return CohomologyElement(self.m, {k: other * c for k, c in self._terms.items()})
        if isinstance(other, CohomologyElement):
            return mul(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CohomologyElement":
        if n < 0:
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
    acc: dict = {}
    for (a, b), c in left._terms.items():
        for key, v in _mul_basis(x.m, right._terms, a, b).items():
            _bump(acc, key, c * v)
    return CohomologyElement(x.m, acc)


def integrate(x: CohomologyElement) -> int:
    """Pairing with the fundamental class: the coefficient of sigma(m-2, m-2)."""
    top = x.m - 2
    return x._terms.get((top, top), 0)


def from_chern_poly(p, m: int) -> CohomologyElement:
    """Evaluate a polynomial in c1, c2 of the tautological quotient bundle.

    Substitutes c1 -> sigma(1, 0) and c2 -> sigma(1, 1) and expands each
    monomial through Pieri multiplication.  `p` is anything exposing a
    `terms` mapping {(i, j): coefficient} for c1^i c2^j.
    """
    if m < 2:
        raise ValueError("Grassmannian parameter m must be >= 2")
    items = list(p.terms.items())
    max_i = max((i for (i, _j), _c in items), default=0)
    powers = [{(0, 0): 1}]
    for _ in range(max_i):
        powers.append(_pieri_one(m, powers[-1]))
    acc: dict = {}
    for (i, j), c in items:
        for key, v in _shift(m, powers[i], j).items():
            _bump(acc, key, c * v)
    return CohomologyElement(m, acc)


def plucker_degree(m: int) -> int:
    """Degree of G(2, m) in the Plucker embedding: integral of sigma(1,0)^dim.

    Equals the Catalan number C_(m-2).
    """
    if m < 2:
        raise ValueError("Grassmannian parameter m must be >= 2")
    terms = {(0, 0): 1}
    for _ in range(2 * (m - 2)):
        terms = _pieri_one(m, terms)
    return terms.get((m - 2, m - 2), 0)

"""Numerical necessary conditions attached to k-very ample line bundles.

For L k-very ample with k >= 2 on an n-fold: L^n >= 2^n + k - 2 and
h^0(L) >= 2n + k - 1, with equality in the section count forcing equality in
the degree.  The nefvalue tau of such a pair satisfies tau <= (n + 1)/k, box
products are min(k1, k2)-very ample, and every irreducible curve has
L . C >= k.  Everything here is exact: integers and fractions.Fraction only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chern import _strict_int


@dataclass(frozen=True)
class PolarizedInvariants:
    """Dimension n, claimed order k, degree L^n, and optionally h^0(L), as ints."""

    n: int
    k: int
    deg: int
    h0: int | None = None

    def __post_init__(self):
        for value in (self.n, self.k, self.deg, 0 if self.h0 is None else self.h0):
            _strict_int(value, "every field of PolarizedInvariants")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.k < 0:
            raise ValueError("order must be >= 0")
        if self.deg < 1:
            raise ValueError("degree must be >= 1")


@dataclass(frozen=True)
class BoundsVerdict:
    """Outcome of `check`; sections_ok is None when h0 was not supplied."""

    degree_ok: bool
    sections_ok: bool | None
    borderline_consistent: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def min_degree(n: int, k: int) -> int:
    """Least possible L^n for a k-very ample L on an n-fold: 2^n + k - 2."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if k < 2:
        raise ValueError("degree bound requires k >= 2")
    return 2 ** n + k - 2


def min_sections(n: int, k: int) -> int:
    """Least possible h^0(L) for a k-very ample L on an n-fold: 2n + k - 1."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if k < 2:
        raise ValueError("section bound requires k >= 2")
    return 2 * n + k - 1


def check(inv: PolarizedInvariants) -> BoundsVerdict:
    """Test the degree/section floors and the borderline coupling."""
    deg_floor = min_degree(inv.n, inv.k)
    sec_floor = min_sections(inv.n, inv.k)
    failures = []
    degree_ok = inv.deg >= deg_floor
    if not degree_ok:
        failures.append("degree %d below floor 2^n+k-2 = %d" % (inv.deg, deg_floor))
    sections_ok: bool | None = None
    if inv.h0 is not None:
        sections_ok = inv.h0 >= sec_floor
        if not sections_ok:
            failures.append("h0 %d below floor 2n+k-1 = %d" % (inv.h0, sec_floor))
    borderline = not (inv.h0 == sec_floor and inv.deg != deg_floor)
    if not borderline:
        failures.append(
            "h0 at the floor 2n+k-1 = %d forces degree 2^n+k-2 = %d, got %d"
            % (sec_floor, deg_floor, inv.deg)
        )
    return BoundsVerdict(degree_ok, sections_ok, borderline, tuple(failures))


def nefvalue_bound(n: int, k: int) -> Fraction:
    """Upper bound (n+1)/k for the nefvalue of a k-very ample pair, n >= 3."""
    if n < 3:
        raise ValueError("nefvalue bound requires n >= 3")
    if k < 2:
        raise ValueError("nefvalue bound requires k >= 2")
    return Fraction(n + 1, k)


def box_product_order(k1: int, k2: int) -> int:
    """Order of L1 (x) L2 on a product from the factor orders: min(k1, k2).

    Rests on the fact that a morphism never increases the length of a
    zero-dimensional subscheme, so both projections of a length-(k+1) scheme
    stay within reach of the factors.
    """
    if k1 < 0 or k2 < 0:
        raise ValueError("orders must be >= 0")
    return min(k1, k2)


def curve_degree_floor(k: int) -> int:
    """L . C >= k for every irreducible curve when L is k-very ample.

    A curve of L-degree below this floor certifies failure of k-very
    ampleness.
    """
    if k < 0:
        raise ValueError("order must be >= 0")
    return k

"""Numerical necessary conditions attached to k-very ample line bundles.

For L k-very ample with k >= 2 on an n-fold: L^n >= 2^n + k - 2 and
h^0(L) >= 2n + k - 1, with equality in the section count forcing equality in
the degree; `PolarizedInvariants` holds exactly such pairs (n >= 1, k >= 2),
so `check` judges every record.  The nefvalue tau of such a pair satisfies
tau <= (n + 1)/k, box products are min(k1, k2)-very ample, and every
irreducible curve has L . C >= k.  Everything here is exact: integers and
fractions.Fraction only.
"""

from .chern import _at_least, _decimal, _Record


class PolarizedInvariants(_Record):
    """Ints n >= 1, k >= 2, and optionally L^n >= 1 and h^0(L) >= 0; each type checked once."""

    __slots__ = {"n": "int", "k": "int", "deg": "int | None", "h0": "int | None"}
    _defaults = {"deg": None, "h0": None}

    def __post_init__(self):
        min_degree(self.n, self.k)  # the domain of the floors, and so of `check`
        if self.deg is not None:
            _at_least(self.deg, 1, "degree", "degree must be >= 1")
        if self.h0 is not None:
            _at_least(self.h0, 0, "h0", "h0 must be >= 0")


class BoundsVerdict(_Record):
    """Outcome of `check`; degree_ok (sections_ok) is None when deg (h0) was not supplied."""

    __slots__ = {"degree_ok": "bool | None", "sections_ok": "bool | None",
                 "borderline_consistent": "bool", "failures": "tuple[str, ...]"}

    @property
    def ok(self) -> bool:
        return not self.failures


def min_degree(n: int, k: int) -> int:
    """Least possible L^n for a k-very ample L on an n-fold: 2^n + k - 2."""
    _at_least(n, 1, "dimension n", "dimension must be >= 1")
    _at_least(k, 2, "order k", "degree bound requires k >= 2")
    return 2 ** n + k - 2


def min_sections(n: int, k: int) -> int:
    """Least possible h^0(L) for a k-very ample L on an n-fold: 2n + k - 1."""
    _at_least(n, 1, "dimension n", "dimension must be >= 1")
    _at_least(k, 2, "order k", "section bound requires k >= 2")
    return 2 * n + k - 1


def check(inv: PolarizedInvariants) -> BoundsVerdict:
    """Test the floors for what the record supplies, and their coupling when it has both."""
    deg_floor = min_degree(inv.n, inv.k)
    sec_floor = min_sections(inv.n, inv.k)
    failures = []  # (template, its ints), printed at any size by `_decimal`
    degree_ok = None if inv.deg is None else inv.deg >= deg_floor
    if degree_ok is False:
        failures.append(("degree %s below floor 2^n+k-2 = %s", inv.deg, deg_floor))
    sections_ok = None if inv.h0 is None else inv.h0 >= sec_floor
    if sections_ok is False:
        failures.append(("h0 %s below floor 2n+k-1 = %s", inv.h0, sec_floor))
    borderline = not (inv.deg is not None and inv.h0 == sec_floor and inv.deg != deg_floor)
    if not borderline:
        failures.append(("h0 at the floor 2n+k-1 = %s forces degree 2^n+k-2 = %s, got %s",
                         sec_floor, deg_floor, inv.deg))
    return BoundsVerdict(degree_ok, sections_ok, borderline,
                         tuple(text % tuple(map(_decimal, ints)) for text, *ints in failures))


def nefvalue_bound(n: int, k: int) -> "Fraction":
    """Upper bound (n+1)/k for the nefvalue of a k-very ample pair, n >= 3."""
    from fractions import Fraction  # here, its one use, so only its callers load `fractions`
    _at_least(n, 3, "dimension n", "nefvalue bound requires n >= 3")
    _at_least(k, 2, "order k", "nefvalue bound requires k >= 2")
    return Fraction(n + 1, k)


def box_product_order(k1: int, k2: int) -> int:
    """Order of L1 (x) L2 on a product from the factor orders: min(k1, k2).

    Rests on the fact that a morphism never increases the length of a
    zero-dimensional subscheme, so both projections of a length-(k+1) scheme
    stay within reach of the factors.
    """
    return min(_at_least(k1, 0, "order k1", "orders must be >= 0"),
               _at_least(k2, 0, "order k2", "orders must be >= 0"))


def curve_degree_floor(k: int) -> int:
    """L . C >= k for every irreducible curve when L is k-very ample.

    A curve of L-degree below this floor certifies failure of k-very
    ampleness.
    """
    return _at_least(k, 0, "order k", "order must be >= 0")

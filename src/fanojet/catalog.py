"""Classification catalog: anticanonically embedded Fano threefolds and
higher-dimensional Mukai pairs carrying a k-very ample polarization, k >= 2.

Ten threefold entries (L = -K_X) plus the two Mukai pairs in dimension 4 and
5 (L with K = -(n-2)L): `source` follows from n, `flag` from the orders.  Each
invariant was derived independently and is re-verified by `verify_all`: the
order chain, each recomputed quantity (Riemann-Roch, complete-intersection
degree, h0 and orders, box-product orders) as a row (quantity, stored,
recomputed), then the floors, and the double cover as the one entry 2-very
ample but not 2-jet ample.

The adjunction outcome table records which special structures can absorb a
pair (n, k) before the second reduction exists.  Each outcome is plain data,
paired with the integer rule on (n, k) that its `constraints` text states
(Mukai: the nefvalue bound); side conditions are text.
"""

from functools import reduce

from .bounds import PolarizedInvariants, box_product_order, check, nefvalue_bound
from .chern import InputError, _at_least, _Record, _strict_int
from .fano import _line_order, degree_of_twist, h0_of_twist
from .lines import CompleteIntersection, count_lines


class CatalogEntry(_Record):
    """One classified pair (X, L) with independently derived invariants.

    `ci`/`twist` are set when X is a complete intersection (or all of P^N) and
    L = O_X(twist), enabling recomputation of degree and h0; `box_factors` holds the
    factor orders when L is an external product, stored as a tuple.  `source` and `flag`
    follow from n and the orders.  Each int field (`twist` when set, each box factor) is
    checked once: a float, str, None or bool raises TypeError ("degree must be an int,
    got 24.0"), as does a `ci` that is not a CompleteIntersection; an empty `box_factors`
    raises InputError.
    """

    __slots__ = {
        "id": "str", "n": "int", "description": "str", "ambient": "str", "polarization": "str",
        "k_jet": "int", "k_very_ample": "int", "k_spanned": "int", "degree": "int", "h0": "int",
        "derivation": "str", "ci": "CompleteIntersection | None", "twist": "int | None",
        "box_factors": "tuple[int, ...] | None",
    }
    _defaults = {"ci": None, "twist": None, "box_factors": None}

    def __post_init__(self):
        for name in ("n", "k_jet", "k_very_ample", "k_spanned", "degree", "h0", "twist"):
            if name != "twist" or self.twist is not None:
                _strict_int(getattr(self, name), name)
        if not isinstance(self.ci, (CompleteIntersection, type(None))):
            raise TypeError("ci must be a CompleteIntersection, got %r" % (self.ci,))
        if self.box_factors is not None:
            object.__setattr__(self, "box_factors", tuple(self.box_factors))
            if not self.box_factors:
                raise InputError("box_factors must name at least one factor")
            for factor in self.box_factors:
                _strict_int(factor, "each box factor")

    @property
    def source(self) -> str:
        if self.n == 3:
            return "Fano threefolds with k-very ample anticanonical bundle, k >= 2"
        return "Mukai pairs of dimension >= 4 with a 2-very ample polarization"

    @property
    def flag(self) -> str:
        k = self.k_very_ample
        return "%d-very ample but not %d-jet ample" % (k, k) if self.k_jet < k else ""


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        id="fano3-1",
        n=3,
        description="smooth divisor of bidegree (1,1) on P2 x P2 "
        "(the projectivized tangent bundle of P2)",
        ambient="P2 x P2",
        polarization="O(2,2) restricted to X",
        k_jet=2,
        k_very_ample=2,
        k_spanned=2,
        degree=48,
        h0=27,
        derivation="L^3 = (2a+2b)^3.(a+b) on P2 x P2 with a^3 = b^3 = 0 and "
        "a^2 b^2 = 1 gives 24 + 24 = 48; h0(O(2,2)) = 6*6 = 36 by Kunneth, "
        "minus the 9-dimensional space of multiples of the defining (1,1) "
        "form, so 27.  Cross-check: h0(-K) = (-K)^3/2 + 3.",
        box_factors=(2, 2),
    ),
    CatalogEntry(
        id="fano3-2",
        n=3,
        description="P1 x P2",
        ambient="P1 x P2",
        polarization="O(2) box O(3)",
        k_jet=2,
        k_very_ample=2,
        k_spanned=2,
        degree=54,
        h0=30,
        derivation="(2a+3b)^3 on P1 x P2 = 3 * 2a * (3b)^2 = 54 with a^2 = 0, "
        "b^3 = 0, a b^2 = 1; h0 = 3 * 10 = 30 by Kunneth.",
        box_factors=(2, 3),
    ),
    CatalogEntry(
        id="fano3-3",
        n=3,
        description="V7, the blow-up of P3 at one point",
        ambient="blow-up of P3",
        polarization="2(2H - E), H the hyperplane pullback, E exceptional",
        k_jet=2,
        k_very_ample=2,
        k_spanned=2,
        degree=56,
        h0=31,
        derivation="L^3 = 8(2H-E)^3 = 8(8H^3 - E^3) = 8*7 = 56 using H^3 = 1, "
        "E^3 = 1 and vanishing mixed terms; h0(4H - 2E) = quartics on P3 with "
        "a double point = 35 - 4 = 31.",
    ),
    CatalogEntry(
        id="fano3-4",
        n=3,
        description="P1 x P1 x P1",
        ambient="P1 x P1 x P1",
        polarization="O(2) box O(2) box O(2)",
        k_jet=2,
        k_very_ample=2,
        k_spanned=2,
        degree=48,
        h0=27,
        derivation="(2a+2b+2c)^3 = 8 * 3! * abc = 48; h0 = 3^3 = 27 by Kunneth.",
        box_factors=(2, 2, 2),
    ),
    CatalogEntry(
        id="fano3-5",
        n=3,
        description="P3",
        ambient="P3",
        polarization="O(4)",
        k_jet=4,
        k_very_ample=4,
        k_spanned=4,
        degree=64,
        h0=35,
        derivation="4^3 = 64; h0(O(4)) = C(7,3) = 35.  Machine-recomputed from "
        "the empty complete intersection in P3.",
        ci=CompleteIntersection(3, ()),
        twist=4,
    ),
    CatalogEntry(
        id="fano3-6",
        n=3,
        description="smooth quadric threefold in P4",
        ambient="P4",
        polarization="O(3) restricted to X",
        k_jet=3,
        k_very_ample=3,
        k_spanned=3,
        degree=54,
        h0=30,
        derivation="3^3 * 2 = 54; h0 = C(7,4) - C(5,4) = 30 (Koszul).  "
        "Machine-recomputed from the complete intersection (2) in P4.",
        ci=CompleteIntersection(4, (2,)),
        twist=3,
    ),
    CatalogEntry(
        id="fano3-7",
        n=3,
        description="smooth cubic threefold in P4",
        ambient="P4",
        polarization="O(2) restricted to X",
        k_jet=2,
        k_very_ample=2,
        k_spanned=2,
        degree=24,
        h0=15,
        derivation="2^3 * 3 = 24; h0 = C(6,4) = 15 (the cubic imposes nothing "
        "in degree 2).  Machine-recomputed from the complete intersection (3) "
        "in P4.",
        ci=CompleteIntersection(4, (3,)),
        twist=2,
    ),
    CatalogEntry(
        id="fano3-8",
        n=3,
        description="smooth complete intersection of two quadrics in P5",
        ambient="P5",
        polarization="O(2) restricted to X",
        k_jet=2,
        k_very_ample=2,
        k_spanned=2,
        degree=32,
        h0=19,
        derivation="2^3 * 4 = 32; h0 = C(7,5) - 2 = 19 (Koszul).  "
        "Machine-recomputed from the complete intersection (2,2) in P5.",
        ci=CompleteIntersection(5, (2, 2)),
        twist=2,
    ),
    CatalogEntry(
        id="fano3-9",
        n=3,
        description="double cover of P3 branched along a smooth quartic",
        ambient="double cover of P3",
        polarization="pullback of O(2)",
        k_jet=1,
        k_very_ample=2,
        k_spanned=2,
        degree=16,
        h0=11,
        derivation="L^3 = 2 * 2^3 = 16 (covering degree times O(2)^3); "
        "pushing L forward splits off the structure sheaf, so "
        "h0 = h0(O_P3(2)) + h0(O_P3) = 10 + 1 = 11.  Order 2 fails for jets: "
        "second-order jets at a ramification point are not hit.",
    ),
    CatalogEntry(
        id="fano3-10",
        n=3,
        description="section of G(2,5) in the Plucker embedding by a linear "
        "subspace of codimension 3",
        ambient="G(2,5) in P9",
        polarization="O(2) restricted to X",
        k_jet=2,
        k_very_ample=2,
        k_spanned=2,
        degree=40,
        h0=23,
        derivation="L^3 = 2^3 * 5 = 40 since G(2,5) has Plucker degree 5; the "
        "coordinate ring of G(2,5) has Hilbert function 1, 10, 50, ... and is "
        "Cohen-Macaulay, so three general linear sections leave "
        "h(2) = 50 - 3*10 + 3*1 = 23 = h0(O_X(2)).  Cross-check: "
        "h0(-K) = (-K)^3/2 + 3 = 23.",
    ),
    CatalogEntry(
        id="mukai-n4",
        n=4,
        description="smooth quadric fourfold in P5",
        ambient="P5",
        polarization="O(2) restricted to X",
        k_jet=2,
        k_very_ample=2,
        k_spanned=2,
        degree=32,
        h0=20,
        derivation="2^4 * 2 = 32; h0 = C(7,5) - 1 = 20 (Koszul).  "
        "Machine-recomputed from the complete intersection (2) in P5.",
        ci=CompleteIntersection(5, (2,)),
        twist=2,
    ),
    CatalogEntry(
        id="mukai-n5",
        n=5,
        description="P5",
        ambient="P5",
        polarization="O(2)",
        k_jet=2,
        k_very_ample=2,
        k_spanned=2,
        degree=32,
        h0=21,
        derivation="2^5 = 32; h0(O(2)) = C(7,5) = 21.  Machine-recomputed from "
        "the empty complete intersection in P5.",
        ci=CompleteIntersection(5, ()),
        twist=2,
    ),
)


def entries(n: int | None = None, k: int | None = None,
            entry_id: str | None = None) -> list[CatalogEntry]:
    """Catalog entries in stable order, optionally filtered by n, k, or id.

    `k` filters on k_very_ample.  A filter of the wrong type raises TypeError.
    """
    for value, what in ((n, "dimension filter"), (k, "k filter")):
        if value is not None:
            _strict_int(value, what)
    if not isinstance(entry_id, (str, type(None))):
        raise TypeError("id filter must be a str, got %r" % (entry_id,))
    return [
        e for e in _ENTRIES
        if n in (None, e.n) and k in (None, e.k_very_ample) and entry_id in (None, e.id)
    ]


class CatalogVerification(_Record):
    __slots__ = {"checked": "int", "failures": "tuple[str, ...]"}

    @property
    def ok(self) -> bool:
        return not self.failures


def _entry_checks(e: CatalogEntry):
    """Yield (holds, message) for each per-entry check of `verify_all`, in order.

    The order chain and, after the rows, the floors are predicates; every other check
    is a row (quantity, stored, recomputed) that holds when the two agree.  A stored
    value outside a library function's domain raises its `InputError` or `TypeError` here.
    """
    yield (1 <= e.k_jet <= e.k_very_ample <= e.k_spanned,
           "order chain violated: k_jet=%d, k_very_ample=%d, k_spanned=%d"
           % (e.k_jet, e.k_very_ample, e.k_spanned))
    rows = [("Riemann-Roch degree", e.degree, 2 * (e.h0 - e.n))]
    if e.ci is not None:
        order = _line_order(count_lines(e.ci), e.twist)
        rows += [("complete-intersection degree", e.degree, degree_of_twist(e.ci, e.twist)),
                 ("complete-intersection h0", e.h0, h0_of_twist(e.ci, e.twist)),
                 ("jet order", e.k_jet, order), ("very-ample order", e.k_very_ample, order),
                 ("spanned order", e.k_spanned, order)]
    if e.box_factors is not None:
        rows.append(("box-product order", e.k_very_ample,
                     reduce(box_product_order, e.box_factors)))
    for quantity, stored, recomputed in rows:
        yield (stored == recomputed,
               "%s mismatch (stored %s, recomputed %s)" % (quantity, stored, recomputed))
    verdict = check(PolarizedInvariants(e.n, e.k_very_ample, e.degree, e.h0))
    yield verdict.ok, "bound check failed: %s" % "; ".join(verdict.failures)


def verify_all(catalog=None) -> CatalogVerification:
    """Re-verify every entry against the computational modules; report, never raise.

    Checks, per entry: the order chain 1 <= k_jet <= k_very_ample <= k_spanned (very
    ample is 1-jet ample, and k_very_ample >= 2 for every entry), one row (quantity,
    stored, recomputed) per recomputed quantity: Riemann-Roch h0 = L^n/2 + n (every entry
    is a Mukai pair, K = -(n-2)L); for complete-intersection entries the degree, h0 and
    each of the three orders; and box-product orders; then the floors.  A row that
    differs fails as "<quantity> mismatch (stored S, recomputed R)".  Globally, exactly
    one entry (the double cover) may have k_jet < k_very_ample; its flag follows from
    that.  Accepts an alternative entry sequence so that fault injection is testable.  A
    stored value that a library function rejects, by InputError (k < 2, twist < 0, ...)
    or TypeError (a complete-intersection entry with no twist), ends its entry as
    "<id>: outside the library's domain: <message>".
    """
    rows = tuple(catalog) if catalog is not None else _ENTRIES
    failures = []
    for e in rows:
        try:
            for holds, message in _entry_checks(e):
                if not holds:
                    failures.append("%s: %s" % (e.id, message))
        except (InputError, TypeError) as exc:
            failures.append("%s: outside the library's domain: %s" % (e.id, exc))
    deficient = [e.id for e in rows if e.k_jet < e.k_very_ample]
    if deficient != ["fano3-9"]:
        failures.append(
            "jet-deficiency structure violated: exactly the double-cover entry "
            "must have k_jet < k_very_ample, got %r" % deficient
        )
    return CatalogVerification(len(rows), tuple(failures))


_EXPORTED = ("id", "dim", "description", "ambient", "polarization", "k_jet", "k_very_ample",
             "k_spanned", "degree", "h0", "derivation", "source", "flag")


def catalog_as_dicts(rows=None) -> list[dict]:
    """JSON-ready export: each `_EXPORTED` field of each entry through str() ("dim" is n)."""
    return [
        {name: str(getattr(e, "n" if name == "dim" else name)) for name in _EXPORTED}
        for e in (rows if rows is not None else _ENTRIES)
    ]


class AdjunctionOutcome(_Record):
    """One possible structure for a pair (n, k) before the second reduction."""

    __slots__ = {"case_id": "str", "constraints": "str", "description": "str"}


def _model(dim: int, order: int):
    """Admits (n, k) when n is the model's dimension and k is at most its polarization's order."""
    return lambda n, k: n == dim and k <= order


# Each outcome with the rule that admits it.  Cases v, vii and 2 take a fibre or a
# divisor as the model, one dimension below X.
_ADJUNCTION = (
    (AdjunctionOutcome("i", "n = 3, k = 2",
                       "(P3, O(2)); here the first reduction carries no information"),
     _model(3, 2)),
    (AdjunctionOutcome("ii", "n = 3, 2 <= k <= 3", "(P3, O(3))"), _model(3, 3)),
    (AdjunctionOutcome("iii", "n = 4, k = 2", "(P4, O(2))"), _model(4, 2)),
    (AdjunctionOutcome("iv", "n = 3, k = 2", "(Q, O(2)) for a hyperquadric threefold Q in P4"),
     _model(3, 2)),
    (AdjunctionOutcome("v", "n = 3, k = 2", "fibration over a smooth curve with fibers "
                       "(P2, O(2)), 2K + 3L pulled back from the base"),
     _model(2 + 1, 2)),
    (AdjunctionOutcome("vi", "n in {4, 5} with k = 2, or n = 3 with 2 <= k <= 4",
                       "Mukai pair: K = -(n-2)L; the nefvalue bound (n+1)/k >= n-2 "
                       "forces these (n, k)"),
     lambda n, k: nefvalue_bound(n, k) >= n - 2),
    (AdjunctionOutcome("vii", "n = 4, k = 2", "Del Pezzo fibration over a smooth curve with "
                       "general fibers (P3, O(2))"),
     _model(3 + 1, 2)),
    (AdjunctionOutcome("reduction", "any n >= 3, k >= 2", "first reduction is an isomorphism "
                       "and the second reduction (Z, D) exists"),
     lambda n, k: True),
    (AdjunctionOutcome("1", "n >= 4", "second reduction is an isomorphism: X = Z"),
     lambda n, k: n >= 4),
    (AdjunctionOutcome("2", "n = 3, k = 2", "second reduction may contract divisors D = P2 "
                       "with L|_D = O(2) and O_D(D) = O(-1); Z stays smooth"),
     _model(2 + 1, 2)),
)


def adjunction_cases(n: int, k: int) -> list[AdjunctionOutcome]:
    """The outcomes whose integer rules admit (n, k); n >= 3, k >= 2.

    The outcomes are built once, so every call returns the same objects.
    """
    _at_least(n, 3, "dimension n", "adjunction table requires n >= 3")
    _at_least(k, 2, "order k", "adjunction table requires k >= 2")
    return [case for case, admits in _ADJUNCTION if admits(n, k)]

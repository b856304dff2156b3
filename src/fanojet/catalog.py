"""Classification catalog: anticanonically embedded Fano threefolds and
higher-dimensional Mukai pairs carrying a k-very ample polarization, k >= 2.

Ten threefold entries (L = -K_X) plus the two Mukai pairs in dimension 4 and
5 (L with K = -(n-2)L).  Every numerical invariant was derived independently
of the classification and is re-verified by `verify_all`: degree/section
bounds, complete-intersection recomputations, box-product orders, and the
flag structure of the one entry that is 2-very ample but not 2-jet ample.

The adjunction outcome table records which special structures can absorb a
pair (n, k) before the second reduction exists; constraints are pure integer
predicates on (n, k), geometric side conditions travel as text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

from .bounds import PolarizedInvariants, box_product_order, check
from .chern import _at_least, _strict_int
from .fano import analyze, degree_of_twist, h0_of_twist
from .lines import CompleteIntersection


@dataclass(frozen=True)
class CatalogEntry:
    """One classified pair (X, L) with independently derived invariants.

    `ci`/`twist` are set when X is a complete intersection (or all of P^N)
    and L = O_X(twist), enabling machine recomputation of degree and h0;
    `box_factors` holds the factor orders when L is an external product.
    """

    id: str
    n: int
    description: str
    ambient: str
    polarization: str
    k_jet: int
    k_very_ample: int
    k_spanned: int
    degree: int
    h0: int
    derivation: str
    source: str
    flag: str = ""
    ci: CompleteIntersection | None = None
    twist: int | None = None
    box_factors: tuple[int, ...] | None = None


_FANO3 = "Fano threefolds with k-very ample anticanonical bundle, k >= 2"
_MUKAI = "Mukai pairs of dimension >= 4 with a 2-very ample polarization"

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
        source=_FANO3,
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
        source=_FANO3,
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
        source=_FANO3,
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
        source=_FANO3,
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
        source=_FANO3,
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
        source=_FANO3,
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
        source=_FANO3,
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
        source=_FANO3,
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
        source=_FANO3,
        flag="2-very ample but not 2-jet ample",
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
        source=_FANO3,
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
        source=_MUKAI,
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
        source=_MUKAI,
        ci=CompleteIntersection(5, ()),
        twist=2,
    ),
)

_JET_DEFICIENT_ID = "fano3-9"


def entries(
    n: int | None = None,
    k: int | None = None,
    entry_id: str | None = None,
) -> list[CatalogEntry]:
    """Catalog entries in stable order, optionally filtered by n, k, or id.

    `k` filters on k_very_ample.
    """
    for value, what in ((n, "dimension filter"), (k, "k filter")):
        if value is not None:
            _strict_int(value, what)
    return [
        e for e in _ENTRIES
        if n in (None, e.n) and k in (None, e.k_very_ample) and entry_id in (None, e.id)
    ]


@dataclass(frozen=True)
class CatalogVerification:
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_all(catalog=None) -> CatalogVerification:
    """Re-verify every entry against the computational modules.

    Checks, per entry: the degree/section floors, the order chain
    k_jet <= k_very_ample <= k_spanned, recomputed (degree, h0, jet order)
    for complete-intersection entries, and box-product orders.  Globally,
    exactly one entry (the double cover) may have k_jet < k_very_ample, and
    it must carry its flag.  Accepts an alternative entry sequence so that
    fault injection is testable.
    """
    rows = tuple(catalog) if catalog is not None else _ENTRIES
    failures: list[str] = []
    for e in rows:
        verdict = check(PolarizedInvariants(e.n, e.k_very_ample, e.degree, e.h0))
        if not verdict.ok:
            failures.append("%s: bound check failed: %s" % (e.id, "; ".join(verdict.failures)))
        if not e.k_jet <= e.k_very_ample <= e.k_spanned:
            failures.append(
                "%s: order chain violated: k_jet=%d, k_very_ample=%d, k_spanned=%d"
                % (e.id, e.k_jet, e.k_very_ample, e.k_spanned)
            )
        if e.ci is not None:
            want_deg = degree_of_twist(e.ci, e.twist)
            if want_deg != e.degree:
                failures.append(
                    "%s: degree mismatch vs complete-intersection recomputation "
                    "(stored %d, recomputed %d)" % (e.id, e.degree, want_deg)
                )
            want_h0 = h0_of_twist(e.ci, e.twist)
            if want_h0 != e.h0:
                failures.append(
                    "%s: h0 mismatch vs complete-intersection recomputation "
                    "(stored %d, recomputed %d)" % (e.id, e.h0, want_h0)
                )
            if e.twist == e.ci.N + 1 - e.ci.degree_sum:
                # anticanonical polarization: the jet order is recomputable
                report = analyze(e.ci)
                if report.jet_order != e.k_jet:
                    failures.append(
                        "%s: jet order mismatch (stored %d, recomputed %s)"
                        % (e.id, e.k_jet, report.jet_order)
                    )
        if e.box_factors is not None:
            folded = reduce(box_product_order, e.box_factors)
            if folded != e.k_very_ample:
                failures.append(
                    "%s: box-product order %d does not match k_very_ample %d"
                    % (e.id, folded, e.k_very_ample)
                )
    deficient = [e for e in rows if e.k_jet < e.k_very_ample]
    if [e.id for e in deficient] != [_JET_DEFICIENT_ID]:
        failures.append(
            "jet-deficiency structure violated: exactly the double-cover entry "
            "must have k_jet < k_very_ample, got %r" % [e.id for e in deficient]
        )
    for e in deficient:
        if e.flag != "2-very ample but not 2-jet ample":
            failures.append("%s: missing jet-deficiency flag" % e.id)
    return CatalogVerification(len(rows), tuple(failures))


def catalog_as_dicts(rows=None) -> list[dict]:
    """JSON-ready export: one dict per entry, integers as decimal strings."""
    out = []
    for e in rows if rows is not None else _ENTRIES:
        out.append(
            {
                "id": e.id,
                "dim": str(e.n),
                "description": e.description,
                "ambient": e.ambient,
                "polarization": e.polarization,
                "k_jet": str(e.k_jet),
                "k_very_ample": str(e.k_very_ample),
                "k_spanned": str(e.k_spanned),
                "degree": str(e.degree),
                "h0": str(e.h0),
                "derivation": e.derivation,
                "source": e.source,
                "flag": e.flag,
            }
        )
    return out


@dataclass(frozen=True)
class AdjunctionOutcome:
    """One possible structure for a pair (n, k) before the second reduction."""

    case_id: str
    constraints: str
    description: str
    admits: Callable[[int, int], bool] = field(repr=False, compare=False)


_ADJUNCTION: tuple[AdjunctionOutcome, ...] = (
    AdjunctionOutcome(
        "i",
        "n = 3, k = 2",
        "(P3, O(2)); here the first reduction carries no information",
        lambda n, k: n == 3 and k <= 2,
    ),
    AdjunctionOutcome(
        "ii",
        "n = 3, 2 <= k <= 3",
        "(P3, O(3))",
        lambda n, k: n == 3 and k <= 3,
    ),
    AdjunctionOutcome(
        "iii",
        "n = 4, k = 2",
        "(P4, O(2))",
        lambda n, k: n == 4 and k <= 2,
    ),
    AdjunctionOutcome(
        "iv",
        "n = 3, k = 2",
        "(Q, O(2)) for a hyperquadric threefold Q in P4",
        lambda n, k: n == 3 and k <= 2,
    ),
    AdjunctionOutcome(
        "v",
        "n = 3, k = 2",
        "fibration over a smooth curve with fibers (P2, O(2)), "
        "2K + 3L pulled back from the base",
        lambda n, k: n == 3 and k <= 2,
    ),
    AdjunctionOutcome(
        "vi",
        "n in {4, 5} with k = 2, or n = 3 with 2 <= k <= 4",
        "Mukai pair: K = -(n-2)L; the nefvalue bound (n+1)/k >= n-2 "
        "forces these (n, k)",
        lambda n, k: (n in (4, 5) and k <= 2) or (n == 3 and k <= 4),
    ),
    AdjunctionOutcome(
        "vii",
        "n = 4, k = 2",
        "Del Pezzo fibration over a smooth curve with general fibers "
        "(P3, O(2))",
        lambda n, k: n == 4 and k <= 2,
    ),
    AdjunctionOutcome(
        "reduction",
        "any n >= 3, k >= 2",
        "first reduction is an isomorphism and the second reduction (Z, D) "
        "exists",
        lambda n, k: True,
    ),
    AdjunctionOutcome(
        "1",
        "n >= 4",
        "second reduction is an isomorphism: X = Z",
        lambda n, k: n >= 4,
    ),
    AdjunctionOutcome(
        "2",
        "n = 3, k = 2",
        "second reduction may contract divisors D = P2 with L|_D = O(2) and "
        "O_D(D) = O(-1); Z stays smooth",
        lambda n, k: n == 3 and k <= 2,
    ),
)


def adjunction_cases(n: int, k: int) -> list[AdjunctionOutcome]:
    """The outcomes whose integer constraints admit (n, k); n >= 3, k >= 2."""
    _at_least(n, 3, "dimension n", "adjunction table requires n >= 3")
    _at_least(k, 2, "order k", "adjunction table requires k >= 2")
    return [case for case in _ADJUNCTION if case.admits(n, k)]

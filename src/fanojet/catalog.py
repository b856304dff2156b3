"""Classification catalog: anticanonically embedded Fano threefolds and
higher-dimensional Mukai pairs carrying a k-very ample polarization, k >= 2.

Ten threefold entries (L = -K_X) plus the two Mukai pairs in dimension 4 and
5 (L with K = -(n-2)L): `source` follows from n, `flag` from the orders, and L,
for the nine entries presented in products of projective spaces, by adjunction.
Each invariant was derived independently and is re-verified by `verify_all`: the
order chain, each recomputed quantity (Riemann-Roch, dimension, complete-intersection
degree, h0 and orders, box-product orders) as a row (quantity, stored, recomputed),
then the Mukai order and the floors, the double cover as the one entry 2-very
ample but not 2-jet ample, and the complete-intersection entries as all the Mukai
ones there are.

The adjunction outcome table records which special structures can absorb a
pair (n, k) before the second reduction exists.  Each outcome is plain data,
paired with the integer rule on (n, k) that its `constraints` text states
(Mukai: the nefvalue bound; a special model: its dimension and order, read off
`CompleteIntersection.dim` and the line rule, which also write its text); side
conditions are text.  One enumeration of complete-intersection pairs serves the
coverage check (K + (n-2)L trivial) and the models of cases i-iv (not nef).
"""

from collections import Counter
from functools import reduce
from itertools import combinations_with_replacement

from .bounds import PolarizedInvariants, box_product_order, check
from .chern import InputError, _at_least, _decimal, _Record, _strict_int
from .fano import _line_order, degree_of_twist, h0_of_twist
from .lines import CompleteIntersection, count_lines


class CatalogEntry(_Record):
    """One classified pair (X, L) with independently derived invariants.

    `presentation = (dims, equations)`, when set, says that X is cut out of
    P^dims[0] x P^dims[1] x ... by hypersurfaces of the listed multidegrees; L is not
    stored but follows by adjunction, K = -(n-2)L.  `source` and `flag` follow from n and
    the orders.  Each int field, and each integer of the presentation, is checked once: a
    float, str, None or bool raises TypeError ("degree must be an int, got 24.0"), as does
    a presentation that is not a pair of tuples with each equation as long as `dims`.
    """

    __slots__ = {
        "id": "str", "n": "int", "description": "str", "ambient": "str", "polarization": "str",
        "k_jet": "int", "k_very_ample": "int", "k_spanned": "int", "degree": "int", "h0": "int",
        "derivation": "str", "presentation": "(dims, equations), tuples of ints, or None",
    }
    _defaults = {"presentation": None}

    def __post_init__(self):
        for name in ("n", "k_jet", "k_very_ample", "k_spanned", "degree", "h0"):
            _strict_int(getattr(self, name), name)
        if (p := self.presentation) is not None:
            if not (type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is tuple
                    and all(type(eq) is tuple and len(eq) == len(p[0]) for eq in p[1])):
                raise TypeError("presentation must be a pair (dims, equations) of tuples, "
                                "each equation as long as dims")
            for value in p[0] + sum(p[1], ()):
                _strict_int(value, "each presentation entry")

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
        presentation=((2, 2), ((1, 1),)),
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
        presentation=((1, 2), ()),
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
        presentation=((1, 1, 1), ()),
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
        presentation=((3,), ()),
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
        presentation=((4,), ((2,),)),
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
        presentation=((4,), ((3,),)),
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
        presentation=((5,), ((2,), (2,))),
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
        presentation=((5,), ((2,),)),
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
        presentation=((5,), ()),
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
    return [e for e in _ENTRIES
            if n in (None, e.n) and k in (None, e.k_very_ample) and entry_id in (None, e.id)]


class CatalogVerification(_Record):
    __slots__ = {"checked": "int", "failures": "tuple[str, ...]"}

    @property
    def ok(self) -> bool:
        return not self.failures


def _adjunction(e: CatalogEntry) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """(-K, L), a degree per factor of `e.presentation`: -K = (n_i + 1 - sum_j e_j[i])_i by
    adjunction, and L = -K/(n - 2), or None when n - 2 does not divide -K."""
    dims, equations = e.presentation
    minus_k = tuple(d + 1 - sum(eq[i] for eq in equations) for i, d in enumerate(dims))
    divides = e.n != 2 and not any(a % (e.n - 2) for a in minus_k)
    return minus_k, tuple(a // (e.n - 2) for a in minus_k) if divides else None


def _mukai_order(n: int, k: int) -> bool:
    """Whether a k-very ample L can have K = -(n-2)L: the nefvalue bound (n+1)/k >= n-2
    of `bounds.nefvalue_bound`, in integers."""
    return (n - 2) * k <= n + 1


def _entry_checks(e: CatalogEntry, covered: set):
    """Yield (holds, message) for each per-entry check of `verify_all`, in order, and add
    (N, degrees, t) to `covered` when `e` is a complete intersection in P^N with L = O(t).

    The order chain, the adjunction, the Mukai order and the floors are predicates; every
    other check is a row (quantity, stored, recomputed) that holds when the two agree.  The
    rows read off L (complete intersection or box product) and the `covered` entry come only
    from a presentation whose dimension row holds, so a wrong one such as CI(3) in P^1000000
    is never computed.  A stored value outside a library function's domain raises its
    `InputError` or `TypeError` here.
    """
    yield (1 <= e.k_jet <= e.k_very_ample <= e.k_spanned,
           "order chain violated: k_jet=%s, k_very_ample=%s, k_spanned=%s"
           % tuple(map(_decimal, (e.k_jet, e.k_very_ample, e.k_spanned))))
    rows, L = [("Riemann-Roch degree", e.degree, 2 * (e.h0 - e.n))], ()
    if e.presentation is not None:
        (dims, equations), (minus_k, L) = e.presentation, _adjunction(e)
        dimension = sum(dims) - len(equations)
        rows.append(("dimension", e.n, dimension))
        # A presentation of another dimension is not X: no L row and no CI come from it.
        consistent = L is not None and dimension == e.n
        if consistent and len(L) == 1:
            ci, t = CompleteIntersection(dims[0], [d for (d,) in equations]), L[0]
            covered.add((ci.N, tuple(sorted(ci.degrees)), t))
            order = _line_order(count_lines(ci), t)
            rows += [("complete-intersection degree", e.degree, degree_of_twist(ci, t)),
                     ("complete-intersection h0", e.h0, h0_of_twist(ci, t)),
                     ("jet order", e.k_jet, order), ("very-ample order", e.k_very_ample, order),
                     ("spanned order", e.k_spanned, order)]
        elif consistent:
            # One-sided on fano3-1: X is a (1,1) divisor in P2 x P2, not a product, and
            # restriction keeps k-very ampleness, so the row shows only k_very_ample >= 2.
            # tests/test_catalog.py::KNOWN_GAP lists the unchecked upper side.
            rows.append(("box-product order", e.k_very_ample, reduce(box_product_order, L)))
    for quantity, stored, recomputed in rows:
        yield (stored == recomputed, "%s mismatch (stored %s, recomputed %s)"
               % (quantity, _decimal(stored), _decimal(recomputed)))
    if L is None:
        yield False, "adjunction failed: -K = O(%s), not (n-2)L" % ",".join(map(_decimal, minus_k))
    if not _mukai_order(e.n, e.k_very_ample):
        yield False, ("not a Mukai order: (n-2)k > n+1 at n=%s, k_very_ample=%s"
                      % (_decimal(e.n), _decimal(e.k_very_ample)))
        return
    verdict = check(PolarizedInvariants(e.n, e.k_very_ample, e.degree, e.h0))
    yield verdict.ok, "bound check failed: %s" % "; ".join(verdict.failures)


def verify_all(catalog=None) -> CatalogVerification:
    """Re-verify every entry against the computational modules; report, never raise.

    Checks, per entry: the order chain 1 <= k_jet <= k_very_ample <= k_spanned (very ample
    is 1-jet ample, and k_very_ample >= 2 for every entry), one row (quantity, stored,
    recomputed) per recomputed quantity: Riemann-Roch h0 = L^n/2 + n (every entry is a Mukai
    pair, K = -(n-2)L); for a presented entry its dimension and, from L by adjunction, in
    one P^N the complete intersection's degree, h0 and three orders, in a product the
    box-product order; then, when -K is not (n-2)L, "adjunction failed: ..."; then the
    Mukai order (n-2)k_very_ample <= n+1, the nefvalue bound in integers, whose failure
    "not a Mukai order: ..." ends the entry (a huge stored n never reaches 2^n); then the
    floors.  A row that differs fails as "<quantity> mismatch (stored S, recomputed R)".
    Globally, an id that more than one entry carries fails once, as "<id>: id repeated
    (<count> entries)"; exactly one entry (the double cover) may have k_jet < k_very_ample,
    and its flag follows from that.  The complete-intersection entries' (N, degrees, t) are
    exactly the Mukai pairs, the gap-0 part of `_CI_PAIRS`, and each missing or extra one
    fails by its CI; the six other threefolds rest on the Iskovskikh-Mori-Mukai
    classification (Iskovskikh, Prokhorov, Fano varieties, 1999), which cannot be
    recomputed here.  Accepts an alternative entry sequence so that fault injection is
    testable.  Faults in an entry's stored values are reported: a value that a library
    function rejects, by InputError (k < 2, L < 0, ...) or TypeError, ends its entry as
    "<id>: outside the library's domain: <message>".  A row that is not a `CatalogEntry`
    is the caller's type error: it raises TypeError, naming the row, before any check runs.
    A presented entry whose dimension row fails gets no row from L and adds no complete
    intersection to the coverage check.
    """
    rows = tuple(catalog) if catalog is not None else _ENTRIES
    for e in rows:
        if not isinstance(e, CatalogEntry):
            raise TypeError("catalog row must be a CatalogEntry, got %r" % (e,))
    failures, covered = [], set()
    for e in rows:
        try:
            for holds, message in _entry_checks(e, covered):
                if not holds:
                    failures.append("%s: %s" % (e.id, message))
        except (InputError, TypeError) as exc:
            failures.append("%s: outside the library's domain: %s" % (e.id, exc))
    failures += ["%s: id repeated (%d entries)" % (entry_id, count)
                 for entry_id, count in Counter(e.id for e in rows).items() if count > 1]
    deficient = [e.id for e in rows if e.k_jet < e.k_very_ample]
    if deficient != ["fano3-9"]:
        failures.append("jet-deficiency structure violated: exactly the double-cover entry "
                        "must have k_jet < k_very_ample, got %r" % deficient)
    mukai = {pair for pair, gap in _CI_PAIRS.items() if not gap}
    failures += sorted("complete-intersection coverage violated: %s with O(%s) is %s"
                       % (CompleteIntersection(N, degrees), _decimal(t),
                          "extra" if (N, degrees, t) in covered else "missing")
                       for N, degrees, t in covered ^ mukai)
    return CatalogVerification(len(rows), tuple(failures))


# Each pair (CI(degrees) in P^N, O(t)) with n = N - r >= 3, each degree >= 2 (a degree 1
# repeats X in a smaller P^N) and t >= 2, keyed (N, degrees, t), with its gap index - (n-2)t,
# index = N + 1 - sum(degrees), when K + (n-2)L = O(-gap) is trivial (gap 0: the Mukai pairs,
# which `verify_all` holds the one-factor presentations to) or not nef (gap > 0: the models of
# adjunction cases i-iv).  As 2(n-2) <= (n-2)t <= index <= n + 1 - r, n <= 5 - r, N <= 5.
_CI_PAIRS = {(N, ds, t): gap for N in range(3, 6) for r in range(N - 2)
             for ds in combinations_with_replacement(range(2, N + 2), r) for t in range(2, N + 2)
             for gap in (N + 1 - sum(ds) - (N - r - 2) * t,) if gap >= 0}


_EXPORTED = ("id", "dim", "description", "ambient", "polarization", "k_jet", "k_very_ample",
             "k_spanned", "degree", "h0", "derivation", "source", "flag")


def catalog_as_dicts(rows=None) -> list[dict]:
    """JSON-ready export: each `_EXPORTED` field of each entry through `_decimal`, which is
    str() at any size ("dim" is n)."""
    return [{name: _decimal(getattr(e, "n" if name == "dim" else name)) for name in _EXPORTED}
            for e in (rows if rows is not None else _ENTRIES)]


class AdjunctionOutcome(_Record):
    """One possible structure for a pair (n, k) before the second reduction."""

    __slots__ = {"case_id": "str", "constraints": "str", "description": "str"}


def _model(ci: CompleteIntersection, t: int, case_id: str, description: str, extra: int = 0):
    """The outcome (ci, O(t)) and its rule: admits (n, k) when n = ci.dim + extra (1 for a fibre
    or a divisor, one dimension below X) and k is at most the order of O(t) on ci, read once off
    its lines by `_line_order`; its `constraints` text is written from that n and order."""
    dim, order = ci.dim + extra, _line_order(count_lines(ci), t)
    rule = "n = %d, k = 2" % dim if order == 2 else "n = %d, 2 <= k <= %d" % (dim, order)
    return AdjunctionOutcome(case_id, rule, description), lambda n, k: n == dim and k <= order


# Cases i-iv: the pairs on which K + (n-2)L is not nef, in sorted order, each with its id and
# description under its (N, degrees, t); a pair without one fails here with a KeyError naming it.
_NOT_NEF = {(3, (), 2): ("i", "(P3, O(2)); here the first reduction carries no information"),
            (3, (), 3): ("ii", "(P3, O(3))"), (4, (), 2): ("iii", "(P4, O(2))"),
            (4, (2,), 2): ("iv", "(Q, O(2)) for a hyperquadric threefold Q in P4")}

# Each outcome with the rule that admits it; cases v, vii and 2 model a fibre or a divisor.
_ADJUNCTION = tuple(_model(CompleteIntersection(N, ds), t, *_NOT_NEF[N, ds, t])
                    for (N, ds, t), gap in sorted(_CI_PAIRS.items()) if gap > 0) + (
    _model(CompleteIntersection(2), 2, "v", "fibration over a smooth curve with fibers "
           "(P2, O(2)), 2K + 3L pulled back from the base", extra=1),
    (AdjunctionOutcome("vi", "n in {4, 5} with k = 2, or n = 3 with 2 <= k <= 4",
                       "Mukai pair: K = -(n-2)L; the nefvalue bound (n+1)/k >= n-2 "
                       "forces these (n, k)"),
     _mukai_order),
    _model(CompleteIntersection(3), 2, "vii", "Del Pezzo fibration over a smooth curve with "
           "general fibers (P3, O(2))", extra=1),
    (AdjunctionOutcome("reduction", "any n >= 3, k >= 2", "first reduction is an isomorphism "
                       "and the second reduction (Z, D) exists"),
     lambda n, k: True),
    (AdjunctionOutcome("1", "n >= 4", "second reduction is an isomorphism: X = Z"),
     lambda n, k: n >= 4),
    _model(CompleteIntersection(2), 2, "2", "second reduction may contract divisors D = P2 "
           "with L|_D = O(2) and O_D(D) = O(-1); Z stays smooth", extra=1),
)


def adjunction_cases(n: int, k: int) -> list[AdjunctionOutcome]:
    """The outcomes whose integer rules admit (n, k); n >= 3, k >= 2.

    The outcomes are built once, so every call returns the same objects.
    """
    _at_least(n, 3, "dimension n", "adjunction table requires n >= 3")
    _at_least(k, 2, "order k", "adjunction table requires k >= 2")
    return [case for case, admits in _ADJUNCTION if admits(n, k)]

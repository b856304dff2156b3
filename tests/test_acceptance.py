"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything asserted here is exact integer or rational equality.
"""

import functools
import random
from fractions import Fraction
from functools import reduce

from fanojet.bounds import (
    box_product_order,
    min_degree,
    min_sections,
    nefvalue_bound,
)
from fanojet.catalog import entries, verify_all
from fanojet.chern import sym_top_chern, sym_top_chern_oracle, sym_top_chern_paper
from fanojet.fano import analyze, h0_of_twist
from fanojet.lines import CompleteIntersection, count_lines, lines_class
from fanojet.schubert import CohomologyElement, integrate, mul, plucker_degree, sigma

from oracles import catalan, degree_tuples, free_line_integral, free_mul, monomial_hilbert, truncate


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def runner():
            try:
                fn()
            except BaseException:
                print("[criterion %d] FAIL  %s" % (num, title))
                raise
            print("[criterion %d] PASS  %s" % (num, title))

        return runner

    return wrap


def ci(N, *degrees):
    return CompleteIntersection(N, degrees)


@criterion(1, "jet orders of the Fano complete-intersection table")
def test_criterion_1_jet_orders():
    assert analyze(ci(3)).jet_order == 4
    assert analyze(ci(4, 2)).jet_order == 3
    assert analyze(ci(4, 3)).jet_order == 2
    assert analyze(ci(5, 2, 2)).jet_order == 2


@criterion(2, "classical line counts, each integral computed two ways")
def test_criterion_2_line_counts():
    for (N, degrees, expected) in [
        (3, (3,), 27),
        (4, (2, 2), 16),
        (4, (5,), 2875),
    ]:
        got = count_lines(CompleteIntersection(N, degrees))
        assert got.kind == "finite" and got.count == expected
        # independent route: free two-row Schur ring, truncating only at the end
        assert free_line_integral(N, degrees) == expected


@criterion(3, "closed form == splitting principle; printed variant off by (d+1)^2/d^2")
def test_criterion_3_formula_oracle_identity():
    for d in range(1, 13):
        assert sym_top_chern(d) == sym_top_chern_oracle(d)
        assert sym_top_chern_paper(d) * (d * d) == sym_top_chern(d) * ((d + 1) ** 2)


@criterion(4, "nonvanishing criterion sweep: class != 0 <=> sum(d) <= 2N-2-r")
def test_criterion_4_nonvanishing_equivalence():
    checked = 0
    for N in range(2, 9):
        for r in range(1, min(3, N - 1) + 1):
            for degrees in degree_tuples(r, 5):
                c = CompleteIntersection(N, degrees)
                nonzero = not lines_class(c).is_zero()
                assert nonzero == (c.degree_sum <= 2 * N - 2 - c.r), c
                checked += 1
    assert checked == 300  # 35 + 90 + 175 parameter combinations


@criterion(5, "Plucker degrees are Catalan numbers, against brute-force expansion")
def test_criterion_5_plucker_degrees():
    for m in range(2, 13):
        assert plucker_degree(m) == catalan(m - 2)
        # independent brute force: expand sigma1 powers in the free ring
        power = {(0, 0): 1}
        for _ in range(2 * (m - 2)):
            power = free_mul(power, {(1, 0): 1})
        assert truncate(power, m).get((m - 2, m - 2), 0) == plucker_degree(m)


@criterion(6, "degree/section floors and the nefvalue sweep")
def test_criterion_6_bounds():
    assert min_degree(3, 2) == 8
    assert min_sections(3, 2) == 7
    assert min_sections(3, 4) == 9
    for k in range(2, 13):
        assert (nefvalue_bound(3, k) >= 1) == (k <= 4)
    for n in range(3, 13):
        assert (nefvalue_bound(n, 2) >= n - 2) == (n <= 5)
    # combined: pairs that can carry K = -(n-2)L with a k-very ample L
    admissible = [
        (n, k)
        for n in range(3, 13)
        for k in range(2, 13)
        if nefvalue_bound(n, k) >= n - 2
    ]
    assert admissible == [(3, 2), (3, 3), (3, 4), (4, 2), (5, 2)]


@criterion(7, "catalog verification: 12 entries, recomputed invariants, jet flag")
def test_criterion_7_catalog():
    outcome = verify_all()
    assert outcome.checked == 12 and outcome.ok
    stored = {e.id: (e.degree, e.h0) for e in entries()}
    assert stored["fano3-5"] == (64, 35)
    assert stored["fano3-6"] == (54, 30)
    assert stored["fano3-7"] == (24, 15)
    assert stored["fano3-8"] == (32, 19)
    assert stored["mukai-n4"] == (32, 20)
    assert stored["mukai-n5"] == (32, 21)
    assert stored["fano3-9"] == (16, 11)
    deficient = [e.id for e in entries() if e.k_jet < e.k_very_ample]
    assert deficient == ["fano3-9"]


@criterion(8, "box-product orders reproduce k = 2 for the product entries")
def test_criterion_8_box_products():
    for entry_id in ("fano3-1", "fano3-2", "fano3-4"):
        (e,) = entries(entry_id=entry_id)
        assert reduce(box_product_order, e.box_factors) == e.k_very_ample == 2


@criterion(9, "property suite standing in for the non-computable classification proofs")
def test_criterion_9_properties():
    # Poincare duality
    for m in range(2, 7):
        top = m - 2
        basis = [(a, b) for a in range(top + 1) for b in range(a + 1)]
        for (a, b) in basis:
            for (c, d) in basis:
                if a + b + c + d == 2 * top:
                    expected = 1 if (c, d) == (top - b, top - a) else 0
                    assert integrate(mul(sigma(m, a, b), sigma(m, c, d))) == expected
    # commutativity / associativity samples
    rng = random.Random(20240229)
    for _ in range(40):
        m = rng.randint(2, 8)
        x, y, z = (_random_element(rng, m) for _ in range(3))
        assert mul(x, y) == mul(y, x)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
    # permutation invariance of finite counts
    for (N, degrees) in [(4, (2, 2)), (5, (2, 4)), (6, (2, 2, 3))]:
        base = count_lines(CompleteIntersection(N, degrees))
        for _ in range(4):
            shuffled = list(degrees)
            rng.shuffle(shuffled)
            assert count_lines(CompleteIntersection(N, tuple(shuffled))) == base
    # h0 against brute-force Hilbert coefficients
    for N in range(1, 6):
        for degrees in (t for r in range(min(2, N - 1) + 1) for t in degree_tuples(r, 4)):
            c = CompleteIntersection(N, degrees)
            for t in range(7):
                assert h0_of_twist(c, t) == monomial_hilbert(N, degrees, t)
    # The classification theorems themselves (existence and uniqueness of the
    # listed pairs) are proofs, not computations; these data-level consistency
    # checks are the stated substitute.


def _random_element(rng, m):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        a = rng.randint(0, min(m - 2, 4))
        b = rng.randint(0, a)
        terms[(a, b)] = rng.randint(-9, 9)
    return CohomologyElement(m, terms)

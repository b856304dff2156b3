"""Oracles for the test suite.

Each is written against a different algorithm than the library:
- the free two-row Schur ring with the closed Littlewood-Richardson rule;
- the bialternant coefficient extraction for line counts;
- direct monomial enumeration for Hilbert functions, and tableau counting for the
  coordinate ring of G(2, n);
- the splitting principle over the roots in (x, y): `unpaired_sym_top_chern`
  rewrites the root product in c1, c2 by binomial peeling.
  The library's oracle expands the same product in s = x + y and w = x - y and
  rewrites it by a Taylor shift, so this checks it by another route.

Every route is written once.  Four come from the benchmark's
`perfbench/reference.py`, under the names the tests import: `catalan`,
`hilbert_series_h0` (the Hilbert series of a complete intersection),
`chern_identity_holds` (a c1, c2 polynomial against the root product, at d + 2
points) and `_root_product` (the coefficients of prod_i prod_t (t x + (d_i - t) y),
which the bialternant and `unpaired_sym_top_chern` start from).  Nothing here,
and nothing in `reference`, imports library code.
"""

import sys
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from reference import (_root_product, catalan, chern_identity_holds,  # noqa: E402, F401
                       h0 as hilbert_series_h0)


def degree_tuples(r: int, dmax: int) -> list:
    """Every nondecreasing r-tuple of degrees in 1..dmax, in lexicographic order."""
    return list(combinations_with_replacement(range(1, dmax + 1), r))


# ---------------------------------------------------------------------------
# free two-row Schur ring (no ambient truncation)

def lr_basis_product(a: int, b: int, c: int, d: int) -> dict:
    """sigma(a,b) * sigma(c,d) in the free ring, by the closed two-row rule:

    the product is the multiplicity-free sum of sigma(a+c-i, b+d+i) for
    0 <= i <= min(a-b, c-d).
    """
    return {(a + c - i, b + d + i): 1 for i in range(min(a - b, c - d) + 1)}


def free_mul(t1: dict, t2: dict) -> dict:
    out: dict = {}
    for (a, b), x in t1.items():
        for (c, d), y in t2.items():
            for key, mult in lr_basis_product(a, b, c, d).items():
                out[key] = out.get(key, 0) + x * y * mult
    return {k: v for k, v in out.items() if v}


def free_from_chern(poly_terms) -> dict:
    """Substitute c1 -> sigma(1,0), c2 -> sigma(1,1) in the free ring."""
    out: dict = {}
    for (i, j), c in poly_terms.items():
        term = {(j, j): 1}
        for _ in range(i):
            term = free_mul(term, {(1, 0): 1})
        for key, v in term.items():
            out[key] = out.get(key, 0) + c * v
    return {k: v for k, v in out.items() if v}


def truncate(terms: dict, m: int) -> dict:
    return {k: v for k, v in terms.items() if k[0] <= m - 2}


def free_point_coefficient(terms: dict, m: int) -> int:
    return terms.get((m - 2, m - 2), 0)


def free_line_integral(N: int, degrees) -> int:
    """Free-ring-then-truncate route for the line count integral."""
    acc = {(0, 0): 1}
    for d in degrees:
        acc = free_mul(acc, free_from_chern(unpaired_sym_top_chern(d)))
    return free_point_coefficient(acc, N + 1)


# ---------------------------------------------------------------------------
# splitting principle over the two roots

def _xy_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + a * b
    return {k: v for k, v in out.items() if v}


def unpaired_sym_top_chern(d: int) -> dict:
    """c_(d+1)(Sym^d) as {(i, j): coeff}: the root product of degree d + 1, untruncated,
    then `binomial_peel_rewrite`."""
    return binomial_peel_rewrite(_root_product(d + 1, (d,)))


def binomial_peel_rewrite(xy: list) -> dict:
    """A symmetric binary form (`xy[j]` at x^(n-j) y^j) in e1, e2.

    For j = 0, ..., n // 2 peel c * e1^(n-2j) * e2^j, c being the coefficient
    left at x^(n-j) y^j; the peels are symmetric, so only the first half is
    updated, rolling C(n-2j, k) along k.
    """
    n = len(xy) - 1
    if xy != xy[::-1]:
        raise ArithmeticError("nonsymmetric form of degree %d" % n)
    half, out = xy[: n // 2 + 1], {}
    for j in range(len(half)):
        c, m, b = half[j], n - 2 * j, 1
        if c:
            for k in range(len(half) - j):
                half[j + k] -= c * b
                b = b * (m - k) // (k + 1)
            out[(m, j)] = c
    return out


def bialternant_line_count(N: int, degrees, c1_power: int = 0) -> int:
    """[x^N y^(N-1)] of (x - y) * (x + y)^c1_power * prod_d prod_t (t x + (d-t) y).

    This is the integral over G(2, N+1) written through the Jacobi
    bialternant for two-row Schur polynomials; completely bypasses any
    Schubert-basis bookkeeping.  With c1_power = delta it is the Pluecker
    degree of a delta-dimensional family of lines.
    """
    if c1_power + sum(d + 1 for d in degrees) != 2 * N - 2:
        return 0  # a form of another degree has no x^N y^(N-1) term
    # The root product's x^k coefficients, k <= N, times the binomial row of (x + y)^c1_power
    roots = _root_product(N, degrees) + [0] * N
    g = [sum(comb(c1_power, i) * roots[k - i] for i in range(min(k, c1_power) + 1))
         for k in (N - 1, N)]
    return g[0] - g[1]


# ---------------------------------------------------------------------------
# Hilbert functions by monomial counting

def monomial_hilbert(N: int, degrees, t: int) -> int:
    """Degree-t monomials of C[z_0..z_N] modulo (z_i^(d_i) for each degree).

    A regular sequence of the given degrees has the same Hilbert function as
    the monomial one, so this counts sections of O_X(t) on the complete
    intersection.  Constrained exponents are enumerated directly; the
    unconstrained remainder is counted by stars and bars.
    """
    degrees = tuple(degrees)
    free_vars = N + 1 - len(degrees)
    assert free_vars >= 1

    def spread(remaining: int) -> int:
        return comb(remaining + free_vars - 1, free_vars - 1)

    def walk(idx: int, remaining: int) -> int:
        if idx == len(degrees):
            return spread(remaining)
        return sum(
            walk(idx + 1, remaining - e)
            for e in range(min(degrees[idx] - 1, remaining) + 1)
        )

    return walk(0, t)


def ssyt_two_row_count(t: int, max_entry: int) -> int:
    """Semistandard tableaux of shape (t, t), entries 1..max_entry.

    Counts the degree-t graded piece of the Plucker coordinate ring of
    G(2, max_entry).
    """
    if t == 0:
        return 1
    count = 0
    rows = list(combinations_with_replacement(range(1, max_entry + 1), t))
    for top in rows:
        for bottom in rows:
            if all(hi > lo for lo, hi in zip(top, bottom)):
                count += 1
    return count

"""Oracles for the test suite.

Each is written against a different algorithm than the library: the free
two-row Schur ring with the closed Littlewood-Richardson rule, coefficient
extraction through the bialternant, direct monomial enumeration and running
sums of the series for Hilbert functions, and the splitting principle over the
roots in (x, y).  The library's oracle expands the same root product in
s = x + y and w = x - y, and rewrites it by a Taylor shift;
`sym_top_roots_in_chern` (root by root, then leading-term elimination) and
`unpaired_sym_top_chern` (root by root, then binomial peeling) stay in (x, y),
so they check it independently.  Nothing here imports library code.
"""

from itertools import combinations_with_replacement
from math import comb, factorial


def catalan(k: int) -> int:
    return factorial(2 * k) // (factorial(k) * factorial(k + 1))


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
        acc = free_mul(acc, free_from_chern(sym_top_roots_in_chern(d)))
    return free_point_coefficient(acc, N + 1)


# ---------------------------------------------------------------------------
# splitting principle, redone from scratch over the two roots

def _xy_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + a * b
    return {k: v for k, v in out.items() if v}


def sym_top_roots_in_chern(d: int) -> dict:
    """c_(d+1)(Sym^d) as {(i, j): coeff} for c1^i c2^j, via the roots."""
    p = {(0, 0): 1}
    for t in range(d + 1):
        p = _xy_mul(p, {(1, 0): t, (0, 1): d - t})
    # rewrite in e1, e2 by leading-term elimination
    out: dict = {}
    while p:
        i, j = max(p)
        assert i >= j, "not symmetric"
        c = p[(i, j)]
        for k in range(i - j + 1):
            key = (j + k, i - k)
            v = p.get(key, 0) - c * comb(i - j, k)
            if v:
                p[key] = v
            else:
                p.pop(key, None)
        out[(i - j, j)] = out.get((i - j, j), 0) + c
    return out


def unpaired_sym_top_chern(d: int) -> dict:
    """c_(d+1)(Sym^d) as {(i, j): coeff}: one linear sweep per root over the
    whole list, then `binomial_peel_rewrite`."""
    xy = [1]
    for t in range(d + 1):
        xy = [t * p + (d - t) * q for p, q in zip(xy + [0], [0] + xy)]
    return binomial_peel_rewrite(xy)


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
    p = {(0, 0): 1}
    for _ in range(c1_power):
        p = _xy_mul(p, {(1, 0): 1, (0, 1): 1})
    for d in degrees:
        for t in range(d + 1):
            p = _xy_mul(p, {(1, 0): t, (0, 1): d - t})
    p = _xy_mul(p, {(1, 0): 1, (0, 1): -1})
    return p.get((N, N - 1), 0)


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


def hilbert_series_h0(N: int, degrees, t: int) -> int:
    """[s^t] of prod_i (1 - s^(d_i)) / (1 - s)^(N+1), the Hilbert series of a
    complete intersection of the given degrees in P^N.

    The numerator is multiplied out truncated at s^t, and each factor
    1 / (1 - s) is applied as a running sum, so no binomial appears.
    """
    series = [1] + [0] * t
    for d in degrees:
        for k in range(t, d - 1, -1):
            series[k] -= series[k - d]
    for _ in range(N + 1):
        for k in range(1, t + 1):
            series[k] += series[k - 1]
    return series[t]

"""Independent reference values for checking every benchmarked result.

Nothing here imports fanojet.  Each quantity is recomputed by a route that
shares no code with the library:

- finite line counts by the bialternant coefficient
  [x^N y^(N-1)] (x - y) * prod_i prod_t (t*x + (d_i - t)*y);
- family and empty verdicts by the expected dimension and the degree
  criterion sum(d_i) <= 2N - 2 - r;
- h^0(O_X(t)) by the coefficient of s^t in prod_i (1 - s^d_i) / (1 - s)^(N+1);
- top Chern classes of Sym^d F by evaluating the reported polynomial at
  c1 = x + 1, c2 = x on d + 2 integer points, against the root product;
- k-very ample floors by their closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, prod


def _root_product(N: int, degrees) -> list[int]:
    """Coefficients, by x-degree, of prod_i prod_t (t*x + (d_i - t)*y), kept up to x^N.

    The product is homogeneous, so the coefficient of x^k stands for x^k y^(D-k).
    Truncating above x^N is exact for the coefficients that are kept.
    """
    poly = [1]
    for d in degrees:
        for t in range(d + 1):
            a, b = t, d - t
            nxt = [b * c for c in poly]
            nxt.append(0)
            for k, c in enumerate(poly):
                nxt[k + 1] += a * c
            poly = nxt[: N + 1]
    return poly


def expected_family_dim(N: int, degrees) -> int:
    return 2 * (N - 1) - sum(d + 1 for d in degrees)


@cache
def lines_on(N: int, degrees: tuple[int, ...]) -> tuple:
    """("finite", count), ("family", dim, nonempty) or ("empty",) for CI(degrees) in P^N."""
    delta = expected_family_dim(N, degrees)
    if delta < 0:
        return ("empty",)
    if delta > 0:
        return ("family", delta, sum(degrees) <= 2 * N - 2 - len(degrees))
    # (x - y) F has x^N y^(N-1) coefficient F[x^(N-1) y^(N-1)] - F[x^N y^(N-2)].
    poly = _root_product(N, degrees) + [0, 0]
    return ("finite", poly[N - 1] - poly[N])


@cache
def h0(N: int, degrees: tuple[int, ...], t: int) -> int:
    """Coefficient of s^t in prod_i (1 - s^d_i) / (1 - s)^(N+1)."""
    num = [1] + [0] * t
    for d in degrees:
        for k in range(t, d - 1, -1):
            num[k] -= num[k - d]
    return sum(c * comb(N + t - k, N) for k, c in enumerate(num))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def chern_identity_holds(terms: dict, d: int, scale: Fraction = Fraction(1)) -> bool:
    """Whether sum c * c1^i c2^j equals scale * c_(d+1)(Sym^d F).

    `terms` maps (i, j) to the coefficient of c1^i c2^j.  The polynomial must be
    weighted-homogeneous of degree d + 1; then both sides, at c1 = x + 1 and
    c2 = x, are polynomials of degree <= d + 1 in x, so agreement on d + 2
    points is an identity.
    """
    if any(i + 2 * j != d + 1 for (i, j) in terms):
        return False
    for x in range(d + 2):
        lhs = sum(c * (x + 1) ** i * x ** j for (i, j), c in terms.items())
        if lhs != scale * prod(t * x + (d - t) for t in range(d + 1)):
            return False
    return True


def bounds_verdict(n: int, k: int, deg: int | None, h0_value: int | None) -> dict:
    """Floors 2^n + k - 2 and 2n + k - 1 and the verdict they give.

    With no degree there is nothing to test: the verdict is vacuously ok.
    """
    deg_floor = 2 ** n + k - 2
    sec_floor = 2 * n + k - 1
    if deg is None:
        return {"min_degree": deg_floor, "min_sections": sec_floor, "degree_ok": None,
                "sections_ok": None, "borderline_consistent": True, "ok": True}
    degree_ok = deg >= deg_floor
    sections_ok = None if h0_value is None else h0_value >= sec_floor
    borderline = not (h0_value == sec_floor and deg != deg_floor)
    return {
        "min_degree": deg_floor,
        "min_sections": sec_floor,
        "degree_ok": degree_ok,
        "sections_ok": sections_ok,
        "borderline_consistent": borderline,
        "ok": degree_ok and sections_ok is not False and borderline,
    }


# Headline integers of the library, pinned: (N, degrees) -> number of lines.
PINNED_LINE_COUNTS = {
    (3, (3,)): 27,
    (4, (5,)): 2875,
    (4, (2, 2)): 16,
    (5, (3, 3)): 1053,
    (7, (3, 3, 3)): 51759,
}

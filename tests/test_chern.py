import re
from functools import cache
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from fanojet import chern
from fanojet.chern import (
    ChernPolynomial,
    _elementary_rewrite,
    sym_top_chern,
    sym_top_chern_oracle,
    sym_top_chern_paper,
)

from oracles import sym_top_roots_in_chern, unpaired_sym_top_chern


def poly(terms):
    return ChernPolynomial(terms)


# --- small closed-form values -----------------------------------------------

def test_printed_variant_small_values():
    assert sym_top_chern_paper(1) == poly({(0, 1): 4})
    assert sym_top_chern_paper(2) == poly({(1, 1): 9})
    # 16*c2*(2*c1^2 + c2)
    assert sym_top_chern_paper(3) == poly({(2, 1): 32, (0, 2): 16})


def test_oracle_small_values():
    assert sym_top_chern_oracle(1) == poly({(0, 1): 1})
    assert sym_top_chern_oracle(2) == poly({(1, 1): 4})
    # 25*c2*(4*c1^2 + 9*c2)*(6*c1^2 + c2)
    assert sym_top_chern_oracle(5) == poly({(4, 1): 600, (2, 2): 1450, (0, 3): 225})


def test_canonical_small_values():
    assert sym_top_chern(1) == poly({(0, 1): 1})
    # 9*c2*(2*c1^2 + c2)
    assert sym_top_chern(3) == poly({(2, 1): 18, (0, 2): 9})
    # 16*c2*2*c1*(3*c1^2 + 4*c2)
    assert sym_top_chern(4) == poly({(3, 1): 96, (1, 2): 128})


# --- the identities the whole build rests on ---------------------------------

@pytest.mark.parametrize("d", range(1, 13))
def test_canonical_equals_oracle(d):
    assert sym_top_chern(d) == sym_top_chern_oracle(d)


@pytest.mark.parametrize("d", [*range(1, 13), 100, 277])
def test_oracle_agrees_with_independent_rewrite(d):
    assert dict(sym_top_chern_oracle(d).terms) == sym_top_roots_in_chern(d)


_unpaired = cache(unpaired_sym_top_chern)  # shared by the two routes' tests below


@pytest.mark.parametrize("d", [*range(1, 301), 555, 557, 801])
def test_paired_oracle_equals_unpaired_route(d):
    # Both parities, well past the d <= 277 that the benchmark's lines-hyper reaches; at
    # the prime 557 every pass's multipliers are coprime, so nothing moves into the scale.
    assert dict(sym_top_chern_oracle(d).terms) == _unpaired(d)


@pytest.mark.parametrize("d", [*range(1, 301), 555, 557, 801])
def test_closed_form_equals_unpaired_route(d):
    # The closed form on its own, not only through sym_top_chern's comparison.  Both
    # routes take two factors per pass, starting with the odd one out; d runs over every
    # residue mod 4, so each parity of d meets each parity of the factor count.
    assert dict(chern._paired_product(d, d * d).terms) == _unpaired(d)


@pytest.mark.parametrize("d", [5, 6, 277])
def test_printed_boundary_in_closed_form_trips_the_check(monkeypatch, d):
    # The fault enters on the closed-form side: the printed (d+1)^2 in place of d^2.
    paired = chern._paired_product
    monkeypatch.setattr(chern, "_paired_product", lambda e, boundary: paired(e, (e + 1) ** 2))
    message = "closed form and splitting-principle expansion disagree at d=%d" % d
    sym_top_chern.cache_clear()
    try:
        with pytest.raises(AssertionError, match="^%s$" % re.escape(message)):
            sym_top_chern(d)
    finally:
        sym_top_chern.cache_clear()


@pytest.mark.parametrize("d", [*range(1, 41), 100, 277])
def test_canonical_evaluates_to_root_product(d):
    # At the roots x = 1, y = s: e1 = 1 + s, e2 = s.  d + 2 values of s fix a
    # form of weighted degree d + 1, so this checks the whole identity.
    terms = sym_top_chern(d).terms
    for s in range(d + 2):
        value = sum(c * (1 + s) ** i * s ** j for (i, j), c in terms.items())
        assert value == prod(t + (d - t) * s for t in range(d + 1))


@st.composite
def _elementary_forms(draw):
    """(n, cs, xy): xy is the coefficient list of sum_j cs[j] * e1^(n-2j) * e2^j."""
    n = draw(st.integers(0, 60))
    cs = draw(st.lists(st.just(0) | st.integers(-10**40, 10**40),
                       min_size=n // 2 + 1, max_size=n // 2 + 1))
    xy = [0] * (n + 1)
    for j, c in enumerate(cs):
        for k in range(n - 2 * j + 1):
            xy[j + k] += c * comb(n - 2 * j, k)
    return n, cs, xy


@settings(max_examples=200, deadline=None)
@given(form=_elementary_forms())
def test_elementary_rewrite_round_trip(form):
    # n runs over both parities; the rewrite reads only the first half of the form.
    n, cs, xy = form
    assert _elementary_rewrite(xy[: n // 2 + 1], n) == {
        (n - 2 * j, j): c for j, c in enumerate(cs) if c}


@pytest.mark.parametrize("d", range(1, 13))
def test_printed_variant_scalar_relation(d):
    # cross-multiplied so everything stays in Z
    assert sym_top_chern_paper(d) * (d * d) == sym_top_chern(d) * ((d + 1) ** 2)


@pytest.mark.parametrize("d", range(1, 13))
def test_all_coefficients_positive(d):
    assert all(c > 0 for c in sym_top_chern(d).terms.values())


@pytest.mark.parametrize("d", range(1, 13))
def test_weighted_degree_is_d_plus_one(d):
    assert sym_top_chern(d).weighted_degrees() == {d + 1}
    assert sym_top_chern(d).is_homogeneous()


@pytest.mark.parametrize("func", [sym_top_chern, sym_top_chern_oracle, sym_top_chern_paper])
@pytest.mark.parametrize("d", [0, -1, -7])
def test_nonpositive_d_rejected(func, d):
    with pytest.raises(ValueError):
        func(d)


# --- polynomial ring sanity ---------------------------------------------------

def test_string_form():
    assert str(sym_top_chern(4)) == "96*c1^3*c2 + 128*c1*c2^2"
    assert repr(sym_top_chern(4)) == "ChernPolynomial(96*c1^3*c2 + 128*c1*c2^2)"
    assert str(ChernPolynomial.zero()) == "0"
    assert str(poly({(0, 0): -2, (1, 0): 1})) == "c1 - 2"


def test_int_coercion_and_subtraction():
    c1 = ChernPolynomial.c1()
    c2 = ChernPolynomial.c2()
    assert (c1 + c2) * (c1 - c2) == c1 ** 2 - c2 ** 2
    assert 2 - c1 == poly({(0, 0): 2, (1, 0): -1})
    assert (3 * c2) - c2 - c2 - c2 == ChernPolynomial.zero()


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        poly({(-1, 0): 1})
    with pytest.raises(ValueError):
        ChernPolynomial.c1() ** -2


@pytest.mark.parametrize(
    "build",
    [
        lambda: poly({(1.9, 0): 2.7}),      # once truncated to 2*c1
        lambda: poly({(1, 0): 2.5}),
        lambda: poly({(1, True): 1}),
        lambda: poly({(1, 0): True}),
        lambda: ChernPolynomial.c1() + True,  # once read as c1 + 1
        lambda: True - ChernPolynomial.c1(),
        lambda: ChernPolynomial.c1() - True,
        lambda: ChernPolynomial.c2() * False,
        lambda: ChernPolynomial.c1() ** True,
        lambda: ChernPolynomial.c1().coefficient(True, 0),  # once 1
    ],
)
def test_chern_polynomial_rejects_non_int(build):
    with pytest.raises(TypeError):
        build()


_small_poly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-8, 8),
    max_size=4,
).map(ChernPolynomial)


def _assert_checked(x):
    """`x` holds only what the public constructor admits, and that constructor rebuilds it."""
    for (i, j), c in x.terms.items():
        assert type(i) is int and type(j) is int and i >= 0 and j >= 0, (i, j)
        assert type(c) is int and c != 0, c
    assert ChernPolynomial(dict(x.terms)) == x


# Ring results are built by `_like`, which skips the constructor's checks; these two
# tests show that those checks could never fail on them.
@settings(max_examples=100, deadline=None)
@given(p=_small_poly, q=_small_poly, k=st.integers(-10**30, 10**30), n=st.integers(0, 5))
def test_ring_results_pass_the_checks_they_skip(p, q, k, n):
    for x in (p * q, p + q, p - q, -p, p ** n, p * k, k - p, p + k):
        _assert_checked(x)


@pytest.mark.parametrize("d", range(1, 61))
def test_sym_top_classes_pass_the_checks_they_skip(d):
    _assert_checked(chern._paired_product(d, d * d))
    _assert_checked(sym_top_chern_oracle(d))


@settings(max_examples=60, deadline=None)
@given(p=_small_poly, q=_small_poly, r=_small_poly)
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r

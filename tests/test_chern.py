import re
from functools import cache
from itertools import accumulate, repeat
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from fanojet import chern
from fanojet.chern import (
    ChernPolynomial,
    InputError,
    _sum_difference_rewrite,
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
def _sum_difference_forms(draw):
    """(d, cs, form): form[k] is the coefficient of S^(L-k) W^k in 4^L * sum_j cs[j] *
    e1^(2(L-j)) e2^j, S = d^2 e1^2 and W = e1^2 - 4 e2; each cs[j] is a multiple of
    d^(2L), so that the form is integral."""
    d, L = draw(st.integers(1, 30)), draw(st.integers(0, 30))
    units = draw(st.lists(st.just(0) | st.integers(-10**40, 10**40),
                          min_size=L + 1, max_size=L + 1))
    # e1^2 = S / d^2 and e2 = (S / d^2 - W) / 4, expanded by the binomial theorem
    form = [(-1) ** k * d ** (2 * k) * sum(u * 4 ** (L - j) * comb(j, k)
                                           for j, u in enumerate(units)) for k in range(L + 1)]
    return d, [u * d ** (2 * L) for u in units], form


@settings(max_examples=200, deadline=None)
@given(drawn=_sum_difference_forms())
def test_sum_difference_rewrite_round_trip(drawn):
    # d runs over both parities; for even d every e1 exponent gains the middle root's 1.
    # Zero coefficients stay in the map; `ChernPolynomial._like` drops them.
    d, cs, form = drawn
    L, even = len(form) - 1, 1 - d % 2
    assert _sum_difference_rewrite(form, d) == {
        (2 * (L - j) + even, j): c for j, c in enumerate(cs)}


@pytest.mark.parametrize("form, d", [([1, 0], 1), ([1, 0], 3), ([0, 1], 2), ([1, 0, 0], 1)])
def test_sum_difference_rewrite_rejects_a_form_outside_z_e1_e2(form, d):
    # S / 4 = d^2 e1^2 / 4 at odd d, W / 4 = e1^2 / 4 - e2, S^2 / 16 at d = 1.
    with pytest.raises(ArithmeticError):
        _sum_difference_rewrite(form, d)


def _swap_pair(form: list, b: int, wrong: int) -> list:
    """form / (S - b W) * (S - wrong W), on [coefficient of S^(L-k) W^k]."""
    quotient = list(accumulate(form, lambda q, f: f + b * q))
    assert quotient.pop() == 0, "S - %d W does not divide the form" % b
    return [q - wrong * p for q, p in zip(quotient + [0], [0] + quotient)]


@pytest.mark.parametrize("d", [5, 6, 277])
def test_wrong_root_in_oracle_trips_the_check(monkeypatch, d):
    # The fault enters on the oracle side: roots 0 and d carry the w-coefficient d - 2
    # in place of d, so pair (0, d) reads S - (d-2)^2 W; the product stays in Z[e1, e2].
    rewrite = chern._sum_difference_rewrite
    monkeypatch.setattr(chern, "_sum_difference_rewrite",
                        lambda form, e: rewrite(_swap_pair(form, e * e, (e - 2) ** 2), e))
    message = "closed form and splitting-principle expansion disagree at d=%d" % d
    sym_top_chern.cache_clear()
    try:
        with pytest.raises(AssertionError, match="^%s$" % re.escape(message)):
            sym_top_chern(d)
    finally:
        sym_top_chern.cache_clear()


@pytest.mark.parametrize("d", range(1, 13))
def test_printed_variant_scalar_relation(d):
    # cross-multiplied so everything stays in Z
    assert sym_top_chern_paper(d) * (d * d) == sym_top_chern(d) * ((d + 1) ** 2)


@pytest.mark.parametrize("d", range(1, 301))
def test_all_coefficients_positive(d):
    # Pins what a size bound can rest on: the largest coefficient is at most P(1, 1).
    assert all(c > 0 for c in sym_top_chern(d).terms.values())


@pytest.mark.parametrize("d", range(1, 13))
def test_weighted_degree_is_d_plus_one(d):
    assert sym_top_chern(d).weighted_degrees() == {d + 1}
    assert sym_top_chern(d).is_homogeneous()


@pytest.mark.parametrize("func", [sym_top_chern, sym_top_chern_oracle, sym_top_chern_paper])
@pytest.mark.parametrize("d", [0, -1, -7])
def test_nonpositive_d_rejected(func, d):
    with pytest.raises(InputError, match="^symmetric power exponent must be >= 1$"):
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
    with pytest.raises(InputError, match=r"^negative exponent in \(-1, 0\)$"):
        poly({(-1, 0): 1})
    for exponent in (-1, -2):
        with pytest.raises(InputError, match="^negative powers are not defined$"):
            ChernPolynomial.c1() ** exponent


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
        lambda: sym_top_chern(True),                          # once c2
        lambda: sym_top_chern_paper(True),                    # once 4*c2
        lambda: sym_top_chern_oracle(2.0),
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


@settings(max_examples=40, deadline=None)
@given(p=_small_poly)
def test_power_by_squaring_equals_repeated_products(p):
    for n in range(18):  # every n of up to 4 bits, then 16 and 17 (5 bits)
        assert p ** n == prod(repeat(p, n), start=ChernPolynomial.one()), n
    with pytest.raises(InputError, match="^negative powers are not defined$"):
        p ** -1


# Wider than `_small_poly`: exponents to 12 and coefficients to 10^40, so that many cross
# terms share a key, in up to 12 terms; the first branch gives the empty and one-term ones.
_wide_poly = st.one_of(*(st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                                         st.integers(-10**40, 10**40), max_size=size)
                         for size in (1, 12))).map(ChernPolynomial)


@settings(max_examples=200, deadline=None)
@given(p=_wide_poly)
def test_square_equals_the_product_with_an_equal_copy(p):
    # `p * p` takes the square's triangle loop; an equal copy is another object, so
    # `p * copy` takes the general double loop.
    square = p * p
    assert square == p * ChernPolynomial(dict(p.terms))
    _assert_checked(square)


def _tuple_keyed_product(p, q) -> dict:
    """p * q as a map, with each key sum built as an (i, j) tuple: no packing."""
    acc: dict = {}
    for (i1, j1), c1 in p.terms.items():
        for (i2, j2), c2 in q.terms.items():
            key = (i1 + i2, j1 + j2)
            acc[key] = acc.get(key, 0) + c1 * c2
    return {key: c for key, c in acc.items() if c}


@st.composite
def _boundary_operands(draw):
    """(p, q) whose largest c2 exponents add to exactly 2^k - 1 or 2^k, for k in 1..12 or
    65..130.  Exponents sit at a top, one below it, 0 or 1, next to c1 exponents up to 3 * 2^k,
    and the coefficients are +-1, +-2, so that cross terms often share a key and cancel."""
    k = draw(st.integers(1, 12) | st.integers(65, 130))
    total = draw(st.sampled_from([2 ** k - 1, 2 ** k]))
    tops = draw(st.sampled_from([0, total // 2]) | st.integers(0, total))
    coefficient = st.sampled_from([-2, -1, 1, 2])

    def operand(top):
        i = st.sampled_from([0, 1, 2 ** k, 3 * 2 ** k])
        j = st.sampled_from(sorted({top, max(top - 1, 0), 0, min(top, 1)}))
        terms = draw(st.dictionaries(st.tuples(i, j), coefficient, max_size=6))
        return ChernPolynomial({**terms, (draw(i), top): draw(coefficient)})

    return operand(tops), operand(total - tops)


@settings(max_examples=200, deadline=None)
@given(operands=_boundary_operands(), n=st.integers(0, 4))
def test_packed_keys_at_the_bit_boundary_equal_tuple_keys(operands, n):
    # The packed key i << b | j must leave no carry from a j sum into i: b is worked out
    # from the two operands' largest j added, and for a square from twice its own.
    p, q = operands
    assert dict((p * q).terms) == _tuple_keyed_product(p, q)
    assert dict((p * p).terms) == _tuple_keyed_product(p, p)
    power = ChernPolynomial.one()
    for _ in range(n):
        power = ChernPolynomial(_tuple_keyed_product(power, p))
    assert p ** n == power
    for x in (p * q, p * p, p ** n):
        _assert_checked(x)


@pytest.mark.parametrize("total", [1, 2, 2 ** 5 - 1, 2 ** 5, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1])
def test_cross_terms_at_the_bit_boundary_cancel(total):
    # (c2^a + c1 c2^b)(c2^a - c1 c2^b) = c2^2a - c1^2 c2^2b: the cross terms cancel on c1 c2^total.
    a, b = total // 2, total - total // 2
    p, q = poly({(0, a): 1, (1, b): 1}), poly({(0, a): 1, (1, b): -1})
    assert dict((p * q).terms) == _tuple_keyed_product(p, q) == {(0, 2 * a): 1, (2, 2 * b): -1}


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

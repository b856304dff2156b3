import pytest
from hypothesis import given, settings, strategies as st

from fanojet.chern import (
    ChernPolynomial,
    sym_top_chern,
    sym_top_chern_oracle,
    sym_top_chern_paper,
)

from oracles import sym_top_roots_in_chern


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


@pytest.mark.parametrize("d", range(1, 13))
def test_oracle_agrees_with_independent_rewrite(d):
    assert dict(sym_top_chern_oracle(d).terms) == sym_top_roots_in_chern(d)


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
        lambda: ChernPolynomial.c2() * False,
        lambda: ChernPolynomial.c1() ** True,
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


@settings(max_examples=60, deadline=None)
@given(p=_small_poly, q=_small_poly, r=_small_poly)
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r

import copy
import pickle
from itertools import repeat
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fanojet.chern import ChernPolynomial, InputError
from fanojet.schubert import (
    CohomologyElement,
    SchubertClass,
    _giambelli,
    from_chern_poly,
    integrate,
    mul,
    plucker_degree,
    sigma,
)

from oracles import catalan, free_mul, free_point_coefficient, truncate


def elem(m, terms):
    return CohomologyElement(m, terms)


# --- Pieri rule spot checks -------------------------------------------------

def test_sigma1_squared_in_g24():
    assert mul(sigma(4, 1), sigma(4, 1)) == elem(4, {(2, 0): 1, (1, 1): 1})


def test_truncation_kills_both_lifts():
    assert mul(sigma(4, 2, 2), sigma(4, 1)).is_zero()


def test_strip_conditions_in_g25():
    assert mul(sigma(5, 2, 2), sigma(5, 2, 0)).is_zero()
    assert mul(sigma(5, 2, 2), sigma(5, 1, 1)) == elem(5, {(3, 3): 1})


def test_sigma11_shifts_diagonally():
    assert mul(sigma(6, 1, 1), sigma(6, 3, 1)) == elem(6, {(4, 2): 1})


# --- integration ------------------------------------------------------------

@pytest.mark.parametrize("m", range(2, 9))
def test_integrate_point_class_is_one(m):
    assert integrate(sigma(m, m - 2, m - 2)) == 1


def test_integrate_power_examples():
    assert integrate(sigma(4, 1) ** 4) == 2
    assert integrate(sigma(6, 1) ** 8) == 14


def test_integrate_reads_only_top_degree():
    mixed = elem(5, {(0, 0): 7, (2, 1): -4, (3, 3): 11})
    assert mixed.codimensions() == {0, 3, 6}
    assert integrate(mixed) == 11
    assert integrate(elem(5, {(1, 0): 3})) == 0


# --- from_chern_poly --------------------------------------------------------

@pytest.mark.parametrize("m", [3, 4, 5, 7])
def test_c2_maps_to_sigma11(m):
    assert from_chern_poly(ChernPolynomial.c2(), m) == sigma(m, 1, 1)


def test_c1_squared_in_g24():
    p = ChernPolynomial.c1() ** 2
    assert from_chern_poly(p, 4) == elem(4, {(2, 0): 1, (1, 1): 1})


def test_c1sq_c2sq_in_g25():
    p = ChernPolynomial.c1() ** 2 * ChernPolynomial.c2() ** 2
    assert from_chern_poly(p, 5) == elem(5, {(3, 3): 1})


def test_from_chern_poly_is_substitution_homomorphism():
    p = ChernPolynomial({(1, 0): 2, (0, 1): -3})
    q = ChernPolynomial({(2, 0): 1, (1, 1): 5})
    m = 6
    assert from_chern_poly(p * q, m) == mul(from_chern_poly(p, m), from_chern_poly(q, m))


def _giambelli_by_recursion(a, b):
    """c2^b * h_(a-b) in Z[c1, c2], with h_k = c1 h_(k-1) - c2 h_(k-2)."""
    c1, c2 = ChernPolynomial.c1(), ChernPolynomial.c2()
    h = [ChernPolynomial.one(), c1]
    while len(h) <= a - b:
        h.append(c1 * h[-1] - c2 * h[-2])
    return c2 ** b * h[a - b]


@pytest.mark.parametrize("m", range(2, 10))
def test_giambelli_round_trip_returns_each_basis_class(m):
    for a in range(m - 1):
        for b in range(a + 1):
            p = _giambelli_by_recursion(a, b)
            assert ChernPolynomial(_giambelli({(a, b): 1})) == p
            assert from_chern_poly(p, m) == sigma(m, a, b)


# --- Plucker degrees --------------------------------------------------------

def test_plucker_degree_examples():
    assert plucker_degree(2) == 1
    assert plucker_degree(4) == 2
    assert plucker_degree(7) == 42


@pytest.mark.parametrize("m", [*range(2, 13), 30, 60])
def test_plucker_degree_is_catalan(m):
    assert plucker_degree(m) == catalan(m - 2)
    # brute force: sigma1^(2(m-2)) in the free ring, truncated, read at the point class
    power = {(0, 0): 1}
    for _ in range(2 * (m - 2)):
        power = free_mul(power, {(1, 0): 1})
    assert free_point_coefficient(truncate(power, m), m) == plucker_degree(m)


# --- ring axioms and duality ------------------------------------------------

@pytest.mark.parametrize("m", range(2, 8))
def test_poincare_duality(m):
    top = m - 2
    basis = [(a, b) for a in range(top + 1) for b in range(a + 1)]
    for (a, b) in basis:
        dual = (top - b, top - a)
        assert integrate(mul(sigma(m, a, b), sigma(m, *dual))) == 1
        for (c, d) in basis:
            if (c, d) != dual and c + d == 2 * top - a - b:
                assert integrate(mul(sigma(m, a, b), sigma(m, c, d))) == 0


@pytest.mark.parametrize("m", [3, 4, 5])
def test_truncation_soundness(m):
    top = m - 2
    basis = [(a, b) for a in range(top + 1) for b in range(a + 1)]
    for (a, b) in basis:
        for (c, d) in basis:
            if a + b + c + d > 2 * top:
                assert integrate(mul(sigma(m, a, b), sigma(m, c, d))) == 0


@pytest.mark.parametrize("m", range(3, 10))
def test_basis_products_match_lr_rule(m):
    top = m - 2
    basis = [(a, b) for a in range(top + 1) for b in range(a + 1)]
    for (a, b) in basis:
        for (c, d) in basis:
            got = mul(sigma(m, a, b), sigma(m, c, d))
            want = truncate(free_mul({(a, b): 1}, {(c, d): 1}), m)
            assert dict(got.terms) == want, ((a, b), (c, d), m)


def _element_strategy(m):
    pair = st.tuples(st.integers(0, min(m - 2, 4)), st.integers(0, 4)).map(
        lambda ab: (ab[0], min(ab[1], ab[0]))
    )
    return st.dictionaries(pair, st.integers(-9, 9), max_size=4).map(
        lambda terms: CohomologyElement(m, terms)
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mul_commutative_and_associative(data):
    m = data.draw(st.integers(2, 8))
    x = data.draw(_element_strategy(m))
    y = data.draw(_element_strategy(m))
    z = data.draw(_element_strategy(m))
    assert mul(x, y) == mul(y, x)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, y + z) == mul(x, y) + mul(x, z)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_power_by_squaring_equals_repeated_products(data):
    m = data.draw(st.integers(2, 8))
    x = data.draw(_element_strategy(m))
    for n in range(18):  # every n of up to 4 bits, then 16 and 17 (5 bits)
        assert x ** n == prod(repeat(x, n), start=CohomologyElement.one(m)), n
    with pytest.raises(InputError, match="^negative powers are not defined$"):
        x ** -1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mul_agrees_with_free_ring_then_truncate(data):
    m = data.draw(st.integers(2, 8))
    x = data.draw(_element_strategy(m))
    y = data.draw(_element_strategy(m))
    free = free_mul(dict(x.terms), dict(y.terms))
    assert dict(mul(x, y).terms) == truncate(free, m)


# --- representation and errors ----------------------------------------------

def test_ambient_mismatch_raises():
    with pytest.raises(ValueError, match="ambient mismatch"):
        mul(sigma(4, 1), sigma(5, 1))
    with pytest.raises(ValueError, match="ambient mismatch"):
        sigma(4, 1) + sigma(5, 1)


def test_invalid_partition_rejected():
    with pytest.raises(ValueError):
        sigma(5, 1, 2)
    with pytest.raises(ValueError):
        CohomologyElement(5, {(2, -1): 1})


def test_small_ambient_rejected():
    for build in (lambda: CohomologyElement(1), lambda: plucker_degree(1), lambda: sigma(1, 0)):
        with pytest.raises(InputError, match="^Grassmannian parameter m must be >= 2$"):
            build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: integrate(CohomologyElement(4.5, {(2, 2): 1})),  # once read as 0
        lambda: CohomologyElement(5.0),
        lambda: CohomologyElement(5, {(1, 0): 2.0}),
        lambda: CohomologyElement(5, {(1.0, 0): 1}),
        lambda: sigma(5, 2.0, 1.0),                              # once s[2,1]
        lambda: sigma(5, True),
        lambda: sigma(5, 1) * True,                              # once 1*s[1,0]
        lambda: False * sigma(5, 1),
        lambda: sigma(5, 1) ** True,
        lambda: from_chern_poly(ChernPolynomial.c1(), 5.0),
        lambda: sigma(5, 1) + 1,                                 # once AttributeError
        lambda: sigma(5, 1) - 1,
        lambda: 1 + sigma(5, 1),
        lambda: 2 - sigma(5, 1),
        lambda: mul(sigma(5, 1), 2),
        lambda: mul(2, sigma(5, 1)),                             # once AttributeError
        lambda: sigma(5, 1).coefficient(1.0, 0),                 # once 1
        # Only a ChernPolynomial, whose terms were checked when it was built, is read:
        # the first once lost its c1^-1 term, the second read True as 1.
        lambda: from_chern_poly(SimpleNamespace(terms={(-1, 0): 5, (0, 0): 1}), 5),
        lambda: from_chern_poly(SimpleNamespace(terms={(0, 0): True}), 5),
        lambda: from_chern_poly(5, 4),                           # once AttributeError
        lambda: integrate(5),                                    # once AttributeError
    ],
)
def test_cohomology_element_rejects_non_int(build):
    with pytest.raises(TypeError):
        build()


def test_constructor_truncates_and_drops_zeros():
    e = CohomologyElement(4, {(3, 1): 5, (2, 0): 0, (1, 1): 2})
    assert dict(e.terms) == {(1, 1): 2}


def test_cohomology_element_is_immutable():
    x = sigma(4, 1)
    for name in ("m", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 9)  # `x.m = 9` once worked, and x then printed in G(2,9)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x.m == 4 and repr(x) == "<1*s[1,0] in G(2,4)>"
    assert copy.deepcopy(x) == x == pickle.loads(pickle.dumps(x))


def test_schubert_class_helpers():
    cls = SchubertClass(3, 1)
    assert cls.codim == 4
    assert cls.fits(5) and not cls.fits(4)
    assert str(cls) == "s[3,1]"


def test_scalar_and_power_arithmetic():
    x = sigma(5, 1)
    assert 3 * x == elem(5, {(1, 0): 3})
    assert x ** 0 == CohomologyElement.one(5)
    assert (x - x).is_zero()
    assert integrate(x ** 6) == plucker_degree(5)

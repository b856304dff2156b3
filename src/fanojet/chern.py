"""Top Chern class of symmetric powers of a rank-2 bundle, exactly.

Polynomials live in Z[c1, c2] where c1, c2 are the Chern classes of a rank-2
bundle F (weights 1 and 2).  If F has Chern roots x, y then Sym^d F has the
d + 1 roots {t*x + (d-t)*y : 0 <= t <= d}, so its top Chern class is

    c_(d+1)(Sym^d F) = prod_{t=0}^{d} (t*x + (d-t)*y),

a symmetric polynomial that rewrites exactly in e1 = x + y = c1 and
e2 = x*y = c2.  Pairing the roots t and d - t gives the closed form

    d^2 * c2 * prod_{t=1}^{floor((d-1)/2)} (t(d-t) c1^2 + (d-2t)^2 c2)

with an extra factor (d/2) c1 when d is even.  A widely printed variant of
this product carries the boundary coefficient (d+1)^2 instead of d^2; it is
kept here as `sym_top_chern_paper` purely for comparison and is never used
downstream, since the splitting-principle expansion pins the coefficient to
d^2 (the roots t = 0 and t = d contribute d*y and d*x, whose product is
d^2 * c2).  The two variants differ by the exact scalar (d+1)^2 / d^2.

Both routes keep binary forms in (u, v) as lists [coefficient of u^(n-j) v^j]
and take two factors per pass, the odd one out first; they share no kernel.  The
closed form divides a pass's multipliers by their gcd and carries the gcds, with
its constant content, as one scale applied at the end.  The oracle works in
s = x + y = e1 and w = x - y instead, where root t is (d s - (d-2t) w)/2: root t
times root d - t is (S - (d-2t)^2 W)/4 with S = d^2 s^2 and W = w^2, monic in S,
so a pass of two pairs has the multipliers b1 + b2 and b1*b2 and no gcd.  Its
rewrite turns S into s^2 by one running power of d^2 and W = e1^2 - 4 e2 into e2
by one Taylor shift (prefix sums), then divides exactly by powers of 4.  A pair
is the closed form's pair factor in other coordinates, derived from the roots; the
oracle reads nothing of the closed form: not its code, its boundary d^2 or its gcds.

`ChernPolynomial` and `schubert.CohomologyElement` share one core, `_Combination`:
a map {key: nonzero int} with its sum, negation, square-and-multiply power and signed-sum printing.
A `ChernPolynomial` square takes each cross term once, doubled: about half a product.
Products run on packed keys, in `_product_of_powers`: each key (i, j) becomes the int
i << b | j, so a key sum is one int add, and b is worked out per call from the product's
largest j, since exponents have no bound.  `*` is one such call on its two operands.  A line
count is one call on all its classes (`lines._factor_product`): each class is packed once,
with one b for the whole count, and the product is unpacked once.
"""

import operator
from functools import cache, reduce
from itertools import accumulate
from math import gcd
from types import MappingProxyType
from typing import Mapping


class InputError(ValueError):
    """An argument outside a function's domain: the caller's input, not a bug."""


def _strict_int(value, what: str) -> int:
    """Return `value` if it is an int and not a bool; raise TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("%s must be an int, got %r" % (what, value))
    return value


def _at_least(value, floor: int, what: str, message: str) -> int:
    """`_strict_int(value, what)`, then InputError(message) if it is below `floor`."""
    if _strict_int(value, what) < floor:
        raise InputError(message)
    return value


def _decimal(n: int) -> str:
    """`str(n)` at any size: past Python's int-to-str digit limit, `decimal` prints it."""
    try:
        return str(n)
    except ValueError:  # the limit; Decimal(n) is exact and sets no process-wide state
        from decimal import Decimal
        return str(Decimal(n))


class _Record:
    """Base of the public records: frozen, slotted, built by position or keyword.

    A subclass maps its fields, in order, to their types in `__slots__` and gives
    the defaults of trailing fields in `_defaults`.  `__init__` sets the fields,
    then runs `__post_init__`.  Every field takes part in ==, hash, repr and
    pickling, and a record equals only a record of its own class.  As on a named
    tuple, `_fields`, `_replace` and `_asdict` give the field names, a changed
    copy and a dict.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__slots__)
        # `__init__` is written out per class, so Python itself binds and checks the arguments.
        params = ("%s=_defaults[%r]" % (f, f) if f in cls._defaults else f for f in cls._fields)
        sets = "".join("_set(self, %r, %s); " % (f, f) for f in cls._fields)
        scope = {"_defaults": cls._defaults, "_set": object.__setattr__}
        exec("def __init__(self, %s): %sself.__post_init__()" % (", ".join(params), sets), scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = cls.__qualname__ + ".__init__"

    def __post_init__(self):
        pass

    def __setattr__(self, name, *value):  # also __delattr__: a record is frozen
        raise AttributeError("cannot assign to field %r" % name)

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        pairs = ("%s=%s" % (name, _Record._repr(v)) for name, v in zip(self._fields, self._key()))
        return "%s(%s)" % (type(self).__qualname__, ", ".join(pairs))

    @staticmethod
    def _repr(v) -> str:
        """`repr(v)`, but ints, also inside a tuple, print at any size, as `_decimal` does."""
        return ("(%s%s)" % (", ".join(map(_Record._repr, v)), "," * (len(v) == 1))
                if type(v) is tuple else _decimal(v) if type(v) is int else repr(v))

    def __reduce__(self):
        return type(self), self._key()

    def _replace(self, **changes):
        """A copy with `changes` applied; it is validated as a new record is."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})

    def _asdict(self) -> dict:
        """{field: value} for every field, records nested in it as dicts too."""
        values = ((name, getattr(self, name)) for name in self._fields)
        return {name: v._asdict() if isinstance(v, _Record) else v for name, v in values}


class _Combination:
    """A Z-combination {key: nonzero int}: the sums, powers and printing of both rings.

    A subclass validates caller data in `__init__`, and supplies `_coerce` (an
    operand as a value of its space, or None), `_like` (a value of its space from
    a map the ring built), `*`, `==` and its monomial format.  Checking happens
    where values enter: every result here goes through `_like`, and the keys and
    coefficients it combines come from values that were checked when built.
    """

    __slots__ = ("_terms",)

    @property
    def terms(self) -> Mapping:
        """Read-only view of the coefficient map."""
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, i: int, j: int) -> int:
        return self._terms.get((_strict_int(i, "index"), _strict_int(j, "index")), 0)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._terms)
        for key, c in other._terms.items():
            acc[key] = acc.get(key, 0) + c
        return self._like(acc)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other + (-self)

    def __pow__(self, n: int):
        """self ** n by `_square_and_multiply`; the unit when n = 0."""
        _at_least(n, 0, "exponent", "negative powers are not defined")
        return _square_and_multiply(self, n, operator.mul) if n else self._like({(0, 0): 1})

    @staticmethod
    def _signed_sum(monomials) -> str:
        """Printed monomials joined into a signed sum; "0" if there are none."""
        return " + ".join(monomials).replace("+ -", "- ") or "0"


def _square_and_multiply(base, n: int, mul):
    """base ** n for n >= 1, over the bits of n after the leading 1, from the top: square,
    and on a 1 multiply by `base`.  At most 2*log2(n) products, not n - 1; each square is
    `mul(power, power)`, which a ring may compute in about half a product."""
    power = base
    for bit in bin(n)[3:]:
        power = mul(power, power)
        if bit == "1":
            power = mul(power, base)
    return power


class ChernPolynomial(_Combination):
    """Element of Z[c1, c2]; keys are (i, j) for c1^i c2^j, values are ints.

    Weighted degree of c1^i c2^j: i + 2j.  No relations are imposed; `lines`
    integrates over G(2, N+1) (`count_lines`), `schubert` expands in its basis.
    Exponents and coefficients must be ints; a float or a bool raises TypeError.
    That is checked once, when a value is built from caller data: by this
    constructor and by `_coerce` for an operand.  Sums, powers and the Sym^d top
    classes are built by `_like`, and products by `*` as `_like` builds values: they
    only drop zero coefficients, since ints combined by + and * are ints again.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping | None = None):
        clean: dict = {}
        if terms:
            for (i, j), c in terms.items():
                _strict_int(i, "exponent"), _strict_int(j, "exponent")
                if i < 0 or j < 0:
                    raise InputError("negative exponent in (%d, %d)" % (i, j))
                if _strict_int(c, "coefficient"):
                    clean[(i, j)] = c
        self._terms = clean

    @classmethod
    def zero(cls) -> "ChernPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "ChernPolynomial":
        return cls({(0, 0): 1})

    @classmethod
    def c1(cls) -> "ChernPolynomial":
        return cls({(1, 0): 1})

    @classmethod
    def c2(cls) -> "ChernPolynomial":
        return cls({(0, 1): 1})

    @staticmethod
    def _coerce(value) -> "ChernPolynomial | None":
        if isinstance(value, int) and not isinstance(value, bool):
            return ChernPolynomial._like({(0, 0): value})
        return value if isinstance(value, ChernPolynomial) else None

    @staticmethod
    def _like(terms: Mapping) -> "ChernPolynomial":
        """A value from a map of checked ints the ring built: drops zeros, checks nothing."""
        value = object.__new__(ChernPolynomial)
        value._terms = {key: c for key, c in terms.items() if c}
        return value

    def weighted_degrees(self) -> set[int]:
        return {i + 2 * j for (i, j) in self._terms}

    def is_homogeneous(self) -> bool:
        return len(self.weighted_degrees()) <= 1

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _product_of_powers([(self, 2)] if other is self else [(self, 1), (other, 1)])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, ChernPolynomial) and self._terms == other._terms

    def __str__(self) -> str:
        parts = []
        for (i, j) in sorted(self._terms, key=lambda k: (-(k[0] + 2 * k[1]), -k[0])):
            c = self._terms[(i, j)]
            factors = [_decimal(c)] if c != 1 or i == j == 0 else []
            if i:
                factors.append("c1" if i == 1 else "c1^%d" % i)
            if j:
                factors.append("c2" if j == 1 else "c2^%d" % j)
            parts.append("*".join(factors))
        return self._signed_sum(parts)

    def __repr__(self) -> str:
        return "ChernPolynomial(%s)" % self


def _packed_mul(x: dict, y: dict) -> dict:
    """x * y on packed keys, zero coefficients kept.  A square (`y is x`) takes each cross
    term once, doubled, over the upper triangle: about half the coefficient products."""
    acc: dict = {}
    if y is x:
        items = list(x.items())
        for n, (k1, c1) in enumerate(items):
            key = k1 + k1
            acc[key] = acc.get(key, 0) + c1 * c1
            c1 += c1
            for k2, c2 in items[n + 1:]:
                key = k1 + k2
                acc[key] = acc.get(key, 0) + c1 * c2
    else:
        right = list(y.items())
        for k1, c1 in x.items():
            for k2, c2 in right:
                key = k1 + k2
                acc[key] = acc.get(key, 0) + c1 * c2
    return acc


def _product_of_powers(powers) -> ChernPolynomial:
    """The product of the p ** m over the pairs (p, m) in `powers`, each m >= 1.

    Each p is packed once, each key (i, j) as the int i << b | j, so a key sum is one int
    add.  b is the bit length of the sum of m * (largest j of p), the product's largest j,
    so no partial product carries a j into i; it is worked out per call, since exponents
    have no bound.  Powers go by square-and-multiply; they and the products between them
    stay packed, and the result is unpacked once, zeros dropped as `_like` does.
    """
    b = sum(m * max((j for _, j in p._terms), default=0) for p, m in powers).bit_length()
    packed = [({i << b | j: c for (i, j), c in p._terms.items()}, m) for p, m in powers]
    product = reduce(_packed_mul, [_square_and_multiply(x, m, _packed_mul) for x, m in packed])
    mask, value = (1 << b) - 1, object.__new__(ChernPolynomial)
    value._terms = {(k >> b, k & mask): c for k, c in product.items() if c}
    return value


def _paired_product(d: int, boundary: int) -> ChernPolynomial:
    """Closed form d-th symmetric power top class with a chosen boundary coefficient.

    Two pair factors go per pass, as one quadratic in (c1^2, c2); t = 1 starts an odd count.
    Each quadratic loses its content gcd, kept with boundary * (d/2)^even in one final scale.
    """
    _at_least(d, 1, "symmetric power exponent", "symmetric power exponent must be >= 1")
    even = 1 - d % 2  # even d carries one more factor (d/2) c1
    pairs, scale = (d - 1) // 2, boundary * (d // 2) ** even
    form = [d - 1, (d - 2) ** 2] if pairs % 2 else [1]  # a binary form in (c1^2, c2)
    for t in range(1 + pairs % 2, pairs, 2):
        a1, a2, b1, b2 = t * (d - t), (t + 1) * (d - t - 1), (d - 2 * t) ** 2, (d - 2 * t - 2) ** 2
        a, b, c = a1 * a2, a1 * b2 + a2 * b1, b1 * b2
        g, z = gcd(a, b, c), [0, 0, *form, 0, 0]
        a, b, c, scale = a // g, b // g, c // g, scale * g
        form = [a * r + b * q + c * p for p, q, r in zip(z, z[1:], z[2:])]
    top = len(form) - 1
    return ChernPolynomial._like({(2 * (top - j) + even, j + 1): scale * c
                                  for j, c in enumerate(form)})


def sym_top_chern_paper(d: int) -> ChernPolynomial:
    """The printed closed-form variant with boundary coefficient (d+1)^2.

    Kept for comparison only; equals (d+1)^2/d^2 times `sym_top_chern(d)`.
    """
    return _paired_product(d, (d + 1) ** 2)


def sym_top_chern_oracle(d: int) -> ChernPolynomial:
    """Splitting-principle computation of c_(d+1)(Sym^d F).

    Expands prod_{t=0}^{d} (t*x + (d-t)*y) over the formal roots in s = x + y and
    w = x - y, where root t is (d s - (d-2t) w)/2, then rewrites it in e1, e2.  Root
    t times root d - t is (S - (d-2t)^2 W)/4 with S = d^2 s^2 and W = w^2, monic in
    S; two such pairs go per pass, pair (0, d) first if the pairs are odd in number,
    and for even d the middle root (d/2) s leaves d/2 as the scale.  A pair is the
    closed form's pair factor in other coordinates, so b1*b2 is also that route's c2^2
    multiplier before its gcd; both are derived here from the roots.  The closed form's
    code, its boundary d^2 and its gcds appear nowhere here.
    """
    _at_least(d, 1, "symmetric power exponent", "symmetric power exponent must be >= 1")
    pairs = (d + 1) // 2  # root t times root d - t, for 0 <= t < pairs
    form = [1, -d * d] if pairs % 2 else [1]  # [coefficient of S^(L-k) W^k], L pairs so far
    for t in range(pairs % 2, pairs, 2):
        b1, b2 = (d - 2 * t) ** 2, (d - 2 * t - 2) ** 2
        b, c, z = b1 + b2, b1 * b2, [0, 0, *form, 0, 0]
        form = [r - b * q + c * p for p, q, r in zip(z, z[1:], z[2:])]
    terms, scale = _sum_difference_rewrite(form, d), (d // 2) ** (1 - d % 2)
    return ChernPolynomial._like({key: scale * c for key, c in terms.items()})


def _sum_difference_rewrite(form: list, d: int) -> dict:
    """4^-L * sum_k form[k] S^(L-k) W^k, times e1 if d is even, as {(i, j): c} for c1^i c2^j.

    Here L = len(form) - 1, S = d^2 s^2 and W = w^2, with s = e1 and w^2 = e1^2 - 4 e2.
    One running power of d^2 turns S^(L-k) into s^(2(L-k)), leaving a polynomial p of
    degree L in z = W / s^2 = 1 - 4 e2 / s^2.  A Taylor shift, L prefix sums, writes it
    as sum_j h_j (z - 1)^j, so the coefficient of e1^(2(L-j)) e2^j is (-1)^j h_j / 4^(L-j).
    Raises ArithmeticError if that division is not exact.
    """
    coeffs, power = [], 1  # p's coefficients, z^L first
    for c in reversed(form):
        coeffs.append(c * power)
        power *= d * d
    out, even = {}, 1 - d % 2
    for j in range(len(form)):
        coeffs = list(accumulate(coeffs))  # synthetic division by z - 1; the remainder is h_j
        h, k = coeffs.pop(), 2 * (len(form) - 1 - j)
        if h & ((1 << k) - 1):
            raise ArithmeticError("h_%d is not divisible by 4^%d" % (j, k // 2))
        out[(k + even, j)] = -(h >> k) if j % 2 else h >> k
    return out


@cache
def sym_top_chern(d: int) -> ChernPolynomial:
    """Top Chern class of Sym^d F, the value used by all downstream counts.

    Computed by the corrected closed form (boundary coefficient d^2) and
    checked term-for-term against the splitting-principle expansion on every
    call; disagreement would be a bug, not a result.
    """
    value = _paired_product(d, d * d)
    if value != sym_top_chern_oracle(d):
        raise AssertionError(
            "closed form and splitting-principle expansion disagree at d=%d" % d
        )
    return value

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
and take two factors per pass, the odd one out first; they share no kernel.
Each divides a pass's multipliers by their gcd and carries the gcds, with its
own constant content, as one scale applied at the end.  The oracle multiplies
root t by root d - t in (x, y) as t(d-t) x^2 + (t^2 + (d-t)^2) xy + t(d-t) y^2,
two such pairs per pass, after the middle root (d/2)(x + y) for even d; every
partial product is symmetric, so it keeps only the first half of each list, and
its e1/e2 rewrite takes that half, dividing it exactly by e1 (additions only)
and reading each e2^j coefficient off the value at (x, y) = (1, -1).

`ChernPolynomial` and `schubert.CohomologyElement` share one core, `_Combination`:
a map {key: nonzero int} with its sum, negation, power and signed-sum printing.
"""

from functools import cache
from itertools import accumulate, repeat
from math import gcd, prod
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
        pairs = ("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__qualname__, ", ".join(pairs))

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
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __pow__(self, n: int):
        _at_least(n, 0, "exponent", "negative powers are not defined")
        return prod(repeat(self, n), start=self._like({(0, 0): 1}))

    @staticmethod
    def _signed_sum(monomials) -> str:
        """Printed monomials joined into a signed sum; "0" if there are none."""
        return " + ".join(monomials).replace("+ -", "- ") or "0"


class ChernPolynomial(_Combination):
    """Element of Z[c1, c2]; keys are (i, j) for c1^i c2^j, values are ints.

    Weighted degree of c1^i c2^j: i + 2j.  No relations are imposed; `lines`
    integrates over G(2, N+1) (`count_lines`), `schubert` expands in its basis.
    Exponents and coefficients must be ints; a float or a bool raises TypeError.
    That is checked once, when a value is built from caller data: by this
    constructor and by `_coerce` for an operand.  Sums, products, powers and the
    Sym^d top classes are built by `_like`, which only drops zero coefficients,
    since ints combined by + and * are ints again.
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
        acc: dict = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                acc[key] = acc.get(key, 0) + c1 * c2
        return ChernPolynomial._like(acc)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, ChernPolynomial) and self._terms == other._terms

    def __str__(self) -> str:
        parts = []
        for (i, j) in sorted(self._terms, key=lambda k: (-(k[0] + 2 * k[1]), -k[0])):
            c = self._terms[(i, j)]
            factors = [str(c)] if c != 1 or i == j == 0 else []
            if i:
                factors.append("c1" if i == 1 else "c1^%d" % i)
            if j:
                factors.append("c2" if j == 1 else "c2^%d" % j)
            parts.append("*".join(factors))
        return self._signed_sum(parts)

    def __repr__(self) -> str:
        return "ChernPolynomial(%s)" % self


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

    Expands prod_{t=0}^{d} (t*x + (d-t)*y) over the formal roots, then rewrites
    it in e1, e2.  Root t times root d - t is a symmetric quadratic, and two such
    pairs go per pass as one symmetric quartic, roots 0 and d first if the pairs
    are odd in number; so only the first half of each partial product is kept, and
    `_elementary_rewrite` takes that half.  Each quartic loses its content gcd; the
    gcds, d^2 (roots 0 and d) and d/2 (the middle root) make one scale, applied to
    the rewrite's output, which is linear.  Pairing only orders the multiplication:
    the closed form's pair factor t(d-t) c1^2 + (d-2t)^2 c2, its boundary d^2 and
    its even-d factor (d/2) c1 appear nowhere here.
    """
    _at_least(d, 1, "symmetric power exponent", "symmetric power exponent must be >= 1")
    even, pairs = 1 - d % 2, (d + 1) // 2  # root t times root d - t, for 0 <= t < pairs
    half = [0, 1] if pairs % 2 else [1]  # roots 0 and d give (d y)(d x) = d^2 xy
    scale = (d // 2) ** even * (d * d if pairs % 2 else 1)  # d^2, and the middle root's d/2
    for t in range(pairs % 2, pairs, 2):
        a1, b1 = t * (d - t), t * t + (d - t) ** 2
        a2, b2 = (t + 1) * (d - t - 1), (t + 1) ** 2 + (d - t - 1) ** 2
        a, b, c = a1 * a2, a1 * b2 + a2 * b1, 2 * a1 * a2 + b1 * b2
        g, z = gcd(a, b, c), [0, 0, 0, 0, *half]
        a, b, c, scale = a // g, b // g, c // g, scale * g
        z += z[even - 2], z[even - 3]  # the two coefficients past the half, by symmetry
        half = [a * (p + v) + b * (q + s) + c * r
                for p, q, r, s, v in zip(z, z[1:], z[2:], z[3:], z[4:])]
    terms = _elementary_rewrite(half, d + 1)
    return ChernPolynomial._like({key: scale * c for key, c in terms.items()})


def _elementary_rewrite(half: list, n: int) -> dict:
    """Rewrite a symmetric binary form in x, y of degree n as a polynomial in e1, e2.

    `half[j]` is the coefficient of x^(n-j) y^j for j <= n // 2, the first half of the
    form; symmetry gives the rest, so no input is asymmetric.  A symmetric f is e1 times
    a symmetric form if n is odd, and c e2^m plus e1^2 times one if n = 2m, where
    c = (-1)^m f(1, -1).  So divide once by e1 for odd n, then read c off
    f(1, -1) = 2*S + middle (S the alternating sum before the middle) and divide
    f - c e2^m by e1^2, down to m = 0.  This runs on the half with signs (-1)^j and
    two leading 0s, where dividing by e1 = x + y is a prefix sum: one double prefix
    sum H divides by e1^2, and H[-1] - H[-3] = 2*S + middle.  The map is linear, so
    the oracle applies its one scale to the output.  It uses nothing of the closed form.
    """
    signed = [0, 0, *(-c if j % 2 else c for j, c in enumerate(half))]
    if n % 2:
        signed = list(accumulate(signed))  # f / e1
    out = {}
    for m in range(len(signed) - 3, -1, -1):
        signed = list(accumulate(accumulate(signed)))  # (f - c e2^m) / e1^2, and one more
        value = signed.pop() - signed[-2]  # H[-1] - H[-3] = 2*S + middle
        if value:
            out[(n - 2 * m, m)] = -value if m % 2 else value
    return dict(reversed(out.items()))


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

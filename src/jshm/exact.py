"""Exact scalar arithmetic: rationals, polynomials, rational functions.

Rationals are ``fractions.Fraction``.  A polynomial in one indeterminate,
written ``nu`` (the ground-set size when identities are checked
symbolically), is stored as dense ascending integer coefficients over one
positive common denominator, in lowest terms, so its arithmetic runs on
Python ints; ``coeffs`` builds the Fraction tuple only when it is read.
A rational function is reduced once, when it is built (``_lowest_terms``):
the primitive parts of numerator and denominator are divided by their gcd
over Z, taken by the primitive remainder sequence and skipped when either
part is constant, and the result is scaled so that gcd(num, den) = 1 and
den is monic over Q.  That canonical form makes equality plain structural
comparison.  One integer pseudo-division, ``_pdivmod``, serves the
remainder sequence and the exact quotients.

``Record`` is the base of every jshm record type: its fields are the class
annotations, none with a default, and ``__init_subclass__`` writes each
subclass's ``__init__`` once, so that no module imports ``dataclasses`` at
start-up.  ``Report``, the record whose JSON document is its fields, is
one, and ``to_json`` writes every document.

A binomial provider, ``binom_rf`` or ``binom_at_int(n)``, maps (shift, b)
to C(nu + shift, b); formulas use it with ring operations only, so the
numeric ones stay in integers, and each caller divides once.

Everything here is immutable and pure; ``binom_rf`` is memoised for that
reason.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its denominator."""


def binom(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) with C(a, b) = 0 for b < 0 or b > a.

    The vanishing convention is load-bearing: several alternating sums in
    this package rely on out-of-range binomials truncating their index
    range.  Negative a is rejected, nothing in scope needs it.
    """
    if a < 0:
        raise ValueError(f"binom: negative upper argument {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def rat_to_str(x: Scalar) -> str:
    """Serialize a rational as "p/q", or "p" alone when q = 1."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# rat_from_str refuses a decimal exponent beyond this in magnitude, which
# Fraction would multiply out first ("1e999999999" takes about 415 MB);
# finite floats end near 1e308, and 10**1000 is a 3322-bit integer
MAX_DECIMAL_EXPONENT = 1000


def rat_from_str(s: str) -> Fraction:
    """Parse the "p/q" / "p" form produced by :func:`rat_to_str`, or a
    decimal such as "-1.5e3"; an exponent beyond MAX_DECIMAL_EXPONENT in
    magnitude, also one written with "_", raises ValueError."""
    s = s.strip()
    try:
        too_large = abs(int(s.lower().partition("e")[2])) > MAX_DECIMAL_EXPONENT
    except ValueError:  # no exponent, or a malformed one that Fraction names
        too_large = False
    if too_large:
        raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT} in magnitude: {s!r}")
    return Fraction(s)


def _poly(nums: tuple[int, ...], den: int) -> "Polynomial":
    """The polynomial nums / den, from parts already in canonical form."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "_num", nums)
    object.__setattr__(p, "_den", den)
    return p


def _canonical(nums: list[int], den: int) -> "Polynomial":
    """The polynomial nums / den for any nonzero den: trailing zeros trimmed,
    the denominator made positive and coprime to the coefficients."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _poly((), 1)
    if den < 0:
        den = -den
        nums = [-c for c in nums]
    g = math.gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [c // g for c in nums]
    return _poly(tuple(nums), den)


def _split(c) -> tuple[int, tuple[int, ...]]:
    """(content, primitive part) of nonzero integer coefficients, the
    content being their positive gcd."""
    g = math.gcd(*c)
    return g, (tuple(c) if g == 1 else tuple(x // g for x in c))


def _pdivmod(a, b) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division of ascending coefficient sequences: (q, r, e)
    with lc(b)**e * a = q * b + r, r trimmed and shorter than b.

    A step scales by lc(b) only when lc(b) does not divide the leading
    remainder coefficient, so e = 0 whenever b divides a over Z, which by
    Gauss's lemma holds for a primitive b that divides a over Q.
    """
    lead, d = b[-1], len(b) - 1
    rem = list(a)
    q = [0] * max(len(a) - d, 0)
    e = 0
    for pos in range(len(a) - 1 - d, -1, -1):
        c = rem[pos + d]
        if not c:
            continue
        if c % lead:
            rem = [x * lead for x in rem]
            q = [x * lead for x in q]
            e += 1
            c *= lead
        c //= lead
        q[pos] = c
        for i in range(d):  # rem[pos + d] cancels and is never read again
            rem[pos + i] -= c * b[i]
    del rem[d:]
    while rem and not rem[-1]:
        rem.pop()
    return q, rem, e


def _zgcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Gcd over Z of two nonzero primitive integer polynomials, primitive
    and of either sign, by the primitive remainder sequence: each
    pseudo-remainder is divided by its content.  A shorter a is its own
    remainder, so the first step swaps the two.  Reduction divides both
    parts by the gcd and takes the sign from the denominator, so the
    gcd's own sign does not matter."""
    while len(b) > 1:
        r = _pdivmod(a, b)[1]
        if not r:
            return b
        a, b = b, _split(r)[1]
    return (1,)


class Polynomial:
    """Dense univariate polynomial over the rationals, ascending degree.

    Stored as integer coefficients over one positive denominator, in lowest
    terms; ``coeffs`` builds the Fraction tuple when it is read.  The zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        fs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fs))
        p = _canonical([f.numerator * (den // f.denominator) for f in fs], den)
        object.__setattr__(self, "_num", p._num)
        object.__setattr__(self, "_den", p._den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def const(cls, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        return _canonical([c.numerator], c.denominator)

    @classmethod
    def variable(cls) -> "Polynomial":
        return _poly((0, 1), 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        # a constant equals its scalar, so it hashes as that scalar
        return hash(self.evaluate(0) if self.degree < 1 else (self._num, self._den))

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        (a, da), (b, db) = (self._num, self._den), (other._num, other._den)
        if len(a) < len(b):
            (a, da), (b, db) = (b, db), (a, da)
        g = math.gcd(da, db)
        out = [x * (db // g) for x in a]
        for i, y in enumerate(b):
            out[i] += y * (da // g)
        return _canonical(out, da * (db // g))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _poly(tuple(-c for c in self._num), self._den)

    def __sub__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return _poly((), 1)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _canonical(out, self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        return _canonical([x * c.numerator for x in self._num], self._den * c.denominator)

    def evaluate(self, x: Scalar) -> Fraction:
        """Horner evaluation at a rational point."""
        acc = 0
        for c in reversed(self._num):
            acc = acc * x + c
        return Fraction(acc) / self._den

    def __repr__(self) -> str:
        return f"Polynomial({poly_to_str(self)!r})"


_ONE = Polynomial.const(1)


def _as_poly(x) -> Polynomial | None:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.const(x)
    return None


def poly_to_str(p: Polynomial) -> str:
    """Render descending-degree, e.g. "nu^2 - 5*nu + 6"."""
    if p.is_zero():
        return "0"
    coeffs = p.coeffs
    parts = []
    for d in range(p.degree, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if d == 0:
            body = rat_to_str(mag)
        else:
            var = "nu" if d == 1 else f"nu^{d}"
            body = var if mag == 1 else f"{rat_to_str(mag)}*{var}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _lowest_terms(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """num / den (den nonzero) with gcd(num, den) = 1 and den monic.

    With contents ca, cb and primitive parts a, b, num / den is
    (ca den._den) / (cb num._den) * a / b; the primitive gcd of a and b
    divides both exactly over Z, and is skipped when either is constant.
    """
    if num.is_zero():
        return num, _ONE
    (ca, a), (cb, b) = _split(num._num), _split(den._num)
    if len(a) > 1 and len(b) > 1:
        g = _zgcd(a, b)
        if len(g) > 1:
            a, b = _pdivmod(a, g)[0], tuple(_pdivmod(b, g)[0])
    lead = b[-1]
    num = _canonical([x * ca * den._den for x in a], cb * num._den * lead)
    if lead < 0:
        b, lead = tuple(-x for x in b), -lead
    return num, _poly(b, lead)


class RationalFunction:
    """Quotient of two polynomials, kept in canonical reduced form.

    Canonical means gcd(num, den) = 1 and the denominator is monic, so two
    equal rational functions are structurally identical and ``==`` decides
    equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = _ONE if den is None else _as_poly(den)
        if num is None or den is None:
            raise TypeError("RationalFunction expects polynomial or scalar parts")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = _lowest_terms(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def const(cls, c: Scalar) -> "RationalFunction":
        return cls(Polynomial.const(c))

    @classmethod
    def variable(cls) -> "RationalFunction":
        return cls(Polynomial.variable())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # with denominator 1 it equals its numerator, so it hashes as that
        return hash(self.num) if self.den == _ONE else hash((self.num, self.den))

    def __add__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return _rf(-self.num, self.den)  # negation keeps the canonical form

    def __sub__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)) and other:
            return _rf(self.num.scale(other), self.den)  # so does a nonzero scalar
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    def evaluate(self, n: Scalar) -> Fraction:
        """Exact value at n; raises :class:`PoleError` at denominator roots."""
        d = self.den.evaluate(n)
        if d == 0:
            raise PoleError(f"pole at nu = {n}")
        return self.num.evaluate(n) / d

    def __repr__(self) -> str:
        return f"RationalFunction({rf_to_str(self)!r})"


def _rf(num: Polynomial, den: Polynomial) -> RationalFunction:
    """The rational function num / den, from parts already in canonical form."""
    f = object.__new__(RationalFunction)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    return f


def _as_rf(x) -> RationalFunction | None:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction.const(x)
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    return None


def rf_to_str(f: RationalFunction) -> str:
    """Render "num/den" ("num" alone for polynomial denominator 1)."""
    num = poly_to_str(f.num)
    if f.den == _ONE:
        return num
    return f"({num})/({poly_to_str(f.den)})"


def to_json(value):
    """The JSON form of a value, written once for every jshm document.

    A Fraction becomes its "p/q" string, a rational function its text, a
    named tuple an object of its fields, other tuples and lists arrays, a
    dict an object of encoded values, and a :class:`Report` its
    ``to_dict()``; None, bools, ints, floats and strings pass through.
    Anything else raises TypeError.
    """
    if isinstance(value, Fraction):
        return rat_to_str(value)
    if isinstance(value, RationalFunction):
        return rf_to_str(value)
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {key: to_json(v) for key, v in zip(value._fields, value)}
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {key: to_json(v) for key, v in value.items()}
    if isinstance(value, Report):
        return value.to_dict()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no JSON form for {type(value).__name__}")


class Record:
    """An immutable record whose fields are its class annotations.

    A subclass names its fields by annotation, after those of its bases in
    MRO order; a field has no default, and a class attribute of the same
    name is not read.  ``__init_subclass__`` keeps the names in ``_fields``
    and writes the subclass's ``__init__`` once, which takes every field
    positionally or by name, stores them in field order and then calls
    ``__post_init__`` if the class defines one.  The instance dict holds
    exactly the fields, so equality (same type, equal fields), hashing and
    ``repr`` read it.
    """

    _fields = ()  # the field names in order, set for each subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(dict.fromkeys(
            name for base in reversed(cls.__mro__)
            for name in vars(base).get("__annotations__", ())))
        params = "".join(f", {f}" for f in cls._fields)
        body = "".join(f"    _dict[{f!r}] = {f}\n" for f in cls._fields)
        post = "    _self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        namespace = {}
        exec(f"def __init__(_self{params}):\n    _dict = _self.__dict__\n{body}{post}",
             namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


class Report(Record):
    """A result whose JSON document is its fields, encoded by :func:`to_json`.

    A subclass overrides ``to_dict`` only where its document differs from
    its fields, and says why beside the override.
    """

    def to_dict(self) -> dict:
        return to_json(vars(self))


NU = RationalFunction.variable()


def binom_poly(shift: int, b: int) -> Polynomial:
    """The degree-b polynomial C(nu + shift, b) = prod(nu + shift - j) / b!.

    Evaluating at an integer n with n + shift >= b reproduces
    ``binom(n + shift, b)``; below that range it reproduces the vanishing
    convention because the falling product hits zero.
    """
    if b < 0:
        raise ValueError(f"binom_poly: negative subset size {b}")
    p = _ONE
    for j in range(b):
        p = p * Polynomial((shift - j, 1))
    return p.scale(Fraction(1, math.factorial(b)))


@functools.lru_cache(maxsize=4096)
def binom_rf(shift: int, b: int) -> RationalFunction:
    """:func:`binom_poly` packaged as a rational function."""
    return RationalFunction(binom_poly(shift, b))


def binom_at_int(n: int):
    """Binomial provider (shift, b) -> C(n + shift, b) as an int, at size n."""
    return lambda shift, b: binom(n + shift, b)

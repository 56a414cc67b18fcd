"""Exact scalar arithmetic: rationals, polynomials, rational functions.

Rationals are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator), re-exported as ``Rational``.  Polynomials are dense
ascending coefficient tuples over the rationals in a single indeterminate,
written ``nu`` in string form, which stands for the ground-set size when
identities are checked symbolically.  Rational functions keep a monic
denominator and a reduced numerator so that equality is plain structural
comparison.

Reduction skips only work whose result is known: coefficients that are
already exactly ``Fraction`` are not re-wrapped, a gcd of degree 0 (which
``poly_gcd`` returns monic, so it is 1) divides nothing out, and a leading
denominator coefficient of 1 needs no rescaling.  The gcd is still computed
for every rational function, so the canonical form (gcd(num, den) = 1, den
monic) holds exactly as if every step ran.

Everything here is immutable and pure; ``binom_rf`` is memoised for that
reason.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Union

Rational = Fraction

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


def _trim(coeffs: Iterable[Scalar]) -> tuple[Fraction, ...]:
    out = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class Polynomial:
    """Dense univariate polynomial over the rationals, ascending degree.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def const(cls, c: Scalar) -> "Polynomial":
        return cls((Fraction(c),))

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Polynomial", self.coeffs))

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

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
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(tuple(a * c for a in self.coeffs))

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact long division: self = q * other + r with deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        lead = other.leading()
        d = other.degree
        while len(rem) - 1 >= d and rem:
            c = rem[-1] / lead
            pos = len(rem) - 1 - d
            q[pos] = c
            for i, b in enumerate(other.coeffs):
                rem[pos + i] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial(q), Polynomial(rem)

    def evaluate(self, x: Scalar) -> Fraction:
        """Horner evaluation at a rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"Polynomial({poly_to_str(self)!r})"


def _as_poly(x) -> Polynomial | None:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.const(x)
    return None


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


def poly_to_str(p: Polynomial) -> str:
    """Render descending-degree, e.g. "nu^2 - 5*nu + 6"."""
    if p.is_zero():
        return "0"
    parts = []
    for d in range(p.degree, -1, -1):
        c = p.coeffs[d]
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


class RationalFunction:
    """Quotient of two polynomials, kept in canonical reduced form.

    Canonical means gcd(num, den) = 1 and the denominator is monic, so two
    equal rational functions are structurally identical and ``==`` decides
    equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = Polynomial.const(1) if den is None else _as_poly(den)
        if num is None or den is None:
            raise TypeError("RationalFunction expects polynomial or scalar parts")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Polynomial(), Polynomial.const(1)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
            lead = den.leading()
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
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
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

    def __add__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

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
    if f.den == Polynomial.const(1):
        return num
    return f"({num})/({poly_to_str(f.den)})"


def to_json(value):
    """The JSON form of a value, written once for every jshm document.

    A Fraction becomes its "p/q" string, a rational function its text,
    tuples and lists arrays, a dict an object of encoded values, and a
    :class:`Report` its ``to_dict()``; None, bools, ints, floats and strings
    pass through.  Anything else raises TypeError.
    """
    if isinstance(value, Fraction):
        return rat_to_str(value)
    if isinstance(value, RationalFunction):
        return rf_to_str(value)
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {key: to_json(v) for key, v in value.items()}
    if isinstance(value, Report):
        return value.to_dict()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no JSON form for {type(value).__name__}")


class Report:
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
    p = Polynomial.const(1)
    for j in range(b):
        p = p * Polynomial((Fraction(shift - j), Fraction(1)))
    return p.scale(Fraction(1, math.factorial(b)))


@functools.lru_cache(maxsize=4096)
def binom_rf(shift: int, b: int) -> RationalFunction:
    """:func:`binom_poly` packaged as a rational function."""
    return RationalFunction(binom_poly(shift, b))


def binom_at_size(n: int):
    """Binomial provider (shift, b) -> Fraction(C(n + shift, b)), at size n."""
    return lambda shift, b: Fraction(binom(n + shift, b))

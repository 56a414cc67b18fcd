"""Rational functions of the ground-set size: Q(nu) and Z[nu].

A rational function of one indeterminate, written ``nu`` (the ground-set
size when identities are checked symbolically), is one integer form:
``num`` and ``den`` are dense ascending ``int`` tuples, coprime in Z[nu]
(contents included), with a positive leading coefficient of ``den``.  By
Gauss's lemma that form is unique, so equality is plain structural
comparison, and it is built once per result by ``_reduced``: the contents
are split off, the primitive parts are divided by their gcd over Z (the
primitive remainder sequence, skipped when either part is constant), the
two contents by theirs, and the sign is taken from the denominator.  One
integer pseudo-division, ``_pdivmod``, serves the remainder sequence and
the exact quotients.  Text divides by the leading coefficient of ``den``,
so it reads as num/den with den monic over Q.

Two binomial providers (see :mod:`jshm.exact`) live here: ``binom_rf``,
C(nu + shift, b) over Q(nu), and ``binom_zpoly(k)``, k! C(nu + shift, b) as
a :class:`ZPoly` for b <= k.  ``ZPoly`` is a plain integer polynomial
whose ring operations reduce nothing, so a symbolic caller calls
``_reduced`` once per result; a result read over the scaled provider has
as many of its values above the line as below, so the scale cancels.

Only :mod:`jshm.identity` imports this module on the CLI's routes, so no
other command compiles it; ``exact.to_json`` imports it only for a value
that is none of the types it tests first.  Everything here is immutable and
pure; ``binom_rf`` and the values of ``binom_zpoly`` are memoised for that
reason.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable

from .exact import Scalar, rat_to_str


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its denominator."""


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


def _padd(a, b) -> list[int]:
    """a + b of ascending integer coefficients, untrimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return out


def _pmul(a, b) -> list[int]:
    """a * b of trimmed ascending integer coefficients."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _reduced(a: list[int], b) -> "RationalFunction":
    """a / b in canonical form, for integer coefficients a (trailing zeros
    allowed) and trimmed nonzero b.

    With contents ca, cb and primitive parts pa, pb, a / b is
    (ca / cb) * pa / pb; the primitive gcd of pa and pb divides both exactly
    over Z, and is skipped when either is constant.
    """
    while a and not a[-1]:
        a.pop()
    if not a:
        return _ZERO
    if len(b) == 1 and b[0] == 1:  # an integer polynomial is its own form
        return _rf(tuple(a), (1,))
    (ca, a), (cb, b) = _split(a), _split(b)
    if len(a) > 1 and len(b) > 1:
        g = _zgcd(a, b)
        if len(g) > 1:
            a, b = _pdivmod(a, g)[0], _pdivmod(b, g)[0]
    g = math.gcd(ca, cb)
    ca, cb = ca // g, cb // g
    if b[-1] < 0:
        ca, cb = -ca, -cb
    return _rf(tuple(x * ca for x in a), tuple(x * cb for x in b))


def _horner(c, x):
    """The polynomial with ascending coefficients c at x."""
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


class RationalFunction:
    """num / den in Z[nu], kept in the canonical form of :func:`_reduced`.

    Canonical means that the ascending int tuples num and den are coprime,
    contents included, and lc(den) > 0, so two equal rational functions are
    structurally identical and ``==`` decides equality.  Zero is () / (1,).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Iterable[Scalar], den: Iterable[Scalar] = (1,)):
        """num / den from ascending coefficients, ints or Fractions."""
        num, den = [Fraction(c) for c in num], [Fraction(c) for c in den]
        while den and not den[-1]:
            den.pop()
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        lcm = math.lcm(*(c.denominator for c in num + den))
        f = _reduced([c.numerator * (lcm // c.denominator) for c in num],
                     [c.numerator * (lcm // c.denominator) for c in den])
        object.__setattr__(self, "num", f.num)
        object.__setattr__(self, "den", f.den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def const(cls, c: Scalar) -> "RationalFunction":
        c = Fraction(c)
        return _rf((c.numerator,), (c.denominator,)) if c else _ZERO

    @classmethod
    def variable(cls) -> "RationalFunction":
        return _rf((0, 1), (1,))

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # a constant equals its scalar, so it hashes as that scalar
        if len(self.num) < 2 and len(self.den) == 1:
            return hash(self.evaluate(0))
        return hash((self.num, self.den))

    def __add__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        (a, b), (c, d) = (self.num, self.den), (other.num, other.den)
        if b == d:
            return _reduced(_padd(a, c), b)
        return _reduced(_padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d))

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        # negation keeps the canonical form
        return _rf(tuple(-x for x in self.num), self.den)

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
            # a nonzero scalar p/q changes only the contents: num and den
            # stay coprime up to an integer, which one gcd divides out
            p, q = other.numerator, other.denominator
            if q == 1 and self.den == (1,):  # an integer polynomial stays one
                return _rf(tuple(x * p for x in self.num), (1,))
            num, den = [x * p for x in self.num], [x * q for x in self.den]
            g = math.gcd(*num, *den)
            return _rf(tuple(x // g for x in num), tuple(x // g for x in den))
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return _reduced(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return _reduced(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    def evaluate(self, n: Scalar) -> Fraction:
        """Exact value at n; raises :class:`PoleError` at denominator roots."""
        d = _horner(self.den, n)
        if d == 0:
            raise PoleError(f"pole at nu = {n}")
        return Fraction(_horner(self.num, n), d)

    def __repr__(self) -> str:
        return f"RationalFunction({rf_to_str(self)!r})"


def _rf(num: tuple[int, ...], den: tuple[int, ...]) -> RationalFunction:
    """The rational function num / den, from parts already in canonical form."""
    f = object.__new__(RationalFunction)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    return f


_ZERO = _rf((), (1,))


def _as_rf(x) -> RationalFunction | None:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction.const(x)
    return None


def _poly_to_str(coeffs: tuple[int, ...], lead: int) -> str:
    """Render coeffs / lead descending-degree, e.g. "nu^2 - 5*nu + 6"."""
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[d], lead)
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
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def rf_to_str(f: RationalFunction) -> str:
    """Render "(num)/(den)" with den monic over Q, or "num" alone when den
    is constant."""
    lead = f.den[-1]
    num = _poly_to_str(f.num, lead)
    if len(f.den) == 1:
        return num
    return f"({num})/({_poly_to_str(f.den, lead)})"


NU = RationalFunction.variable()


@functools.lru_cache(maxsize=4096)
def binom_rf(shift: int, b: int) -> RationalFunction:
    """C(nu + shift, b) = prod(nu + shift - j) / b!, a polynomial of degree b.

    Evaluating at an integer n with n + shift >= b reproduces
    ``binom(n + shift, b)``; below that range it reproduces the vanishing
    convention because the falling product hits zero.
    """
    if b < 0:
        raise ValueError(f"binom_rf: negative subset size {b}")
    return _reduced(_linear_product(range(-shift, b - shift)), (math.factorial(b),))


def _linear_product(roots) -> list[int]:
    """The product of (nu - m) over the integers m in roots, ascending."""
    out = [1]
    for m in roots:
        out = _padd([0] + out, [-m * c for c in out])
    return out


def binom_zpoly(k: int):
    """Binomial provider (shift, b) -> k! C(nu + shift, b) for 0 <= b <= k, a
    :class:`ZPoly`; M and Omega of one k share its values."""
    return functools.partial(_zpoly, k)


@functools.lru_cache(maxsize=4096)
def _zpoly(k: int, shift: int, b: int) -> ZPoly:
    """k! C(nu + shift, b): the falling product times k!/b!, which needs no gcd."""
    scale = math.factorial(k) // math.factorial(b)
    return ZPoly._of([c * scale for c in _linear_product(range(-shift, b - shift))])


class ZPoly(tuple):
    """An integer polynomial in nu: its trimmed ascending int coefficients,
    with the ring operations of a provider's values, +, -, unary -, and
    times an int or a ZPoly, which reduce nothing.  It equals an int as
    a constant polynomial, zero being (), as a rational function does."""

    __slots__ = ()

    @classmethod
    def _of(cls, c: list) -> ZPoly:
        while c and not c[-1]:
            c.pop()
        return tuple.__new__(cls, c)

    def __add__(self, other):
        if isinstance(other, int):
            other = (other,)
        elif not isinstance(other, ZPoly):
            return NotImplemented
        return ZPoly._of(_padd(self, other))

    __radd__ = __add__

    def __neg__(self):
        return tuple.__new__(ZPoly, [-x for x in self])

    def __sub__(self, other):
        return self + -other if isinstance(other, (int, ZPoly)) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return tuple.__new__(ZPoly, [x * other for x in self] if other else ())
        if isinstance(other, ZPoly):
            return tuple.__new__(ZPoly, _pmul(self, other))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = (other,) if other else ()
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        return hash(tuple(self)) if len(self) > 1 else hash(self[0] if self else 0)

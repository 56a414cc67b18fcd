"""Exact scalar arithmetic: rationals, records and their JSON documents.

Rationals are ``fractions.Fraction``, written "p/q" by ``rat_to_str`` and
read back by ``rat_from_str``.

``Record`` is the base of every jshm record type: its fields are the class
annotations, none with a default, and ``__init_subclass__`` writes each
subclass's ``__init__`` once, so that no module imports ``dataclasses`` at
start-up.  ``Report``, the record whose JSON document is its fields, is
one, and ``to_json`` writes every document.

A binomial provider maps (shift, b) to C(nu + shift, b) or a fixed
multiple of it: ``binom_at_int(n)`` at a size here, and ``binom_rf`` over
Q(nu) and ``binom_zpoly(k)`` in Z[nu] in :mod:`jshm.qnu`.  Formulas use it
with ring operations only, so over integers each caller divides once, and
over Z[nu] a symbolic caller reduces once per result.  The rational-function
arithmetic lives in :mod:`jshm.qnu`, which only the identity commands load,
so every other command compiles none of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


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


def to_json(value):
    """The JSON form of a value, written once for every jshm document.

    A Fraction becomes its "p/q" string, a named tuple an object of its
    fields, other tuples and lists arrays, a dict an object of encoded
    values, a :class:`Report` its ``to_dict()`` and a rational function its
    text; None, bools, ints, floats and strings pass through.  Anything else
    raises TypeError.  The rational-function type is tested last and
    imported only there, so that no document without one loads
    :mod:`jshm.qnu`.
    """
    if isinstance(value, Fraction):
        return rat_to_str(value)
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
    from .qnu import RationalFunction, rf_to_str
    if isinstance(value, RationalFunction):
        return rf_to_str(value)
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


def binom_at_int(n: int):
    """Binomial provider (shift, b) -> C(n + shift, b) as an int, at size n;
    every caller keeps b >= 0 and n + shift >= 0."""
    return lambda shift, b: math.comb(n + shift, b)

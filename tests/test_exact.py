import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jshm.exact import MAX_DECIMAL_EXPONENT, Record, binom, rat_from_str, rat_to_str
from jshm.designs import Design
from jshm.johnson import BMVector, SchemeParams
from jshm.oracles import euclid_divmod, euclid_gcd
from jshm.qnu import (
    NU,
    PoleError,
    RationalFunction,
    ZPoly,
    binom_rf,
    binom_zpoly,
    rf_to_str,
)


class TestBinom:
    def test_direct(self):
        assert binom(7, 3) == 35

    def test_empty_product(self):
        assert binom(5, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binom(3, 5) == 0
        assert binom(3, -1) == 0

    def test_negative_upper_rejected(self):
        with pytest.raises(ValueError):
            binom(-1, 0)

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_pascal(self, a, b):
        if 0 < b <= a:
            assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


class TestBinomPoly:
    """The binomial polynomial C(nu + shift, b), as ``binom_rf`` builds it."""

    def test_single_factor(self):
        assert binom_rf(0, 1) == RationalFunction((0, 1)) == NU

    def test_constant(self):
        assert binom_rf(0, 0) == RationalFunction((1,)) == 1

    def test_shifted_quadratic(self):
        # (nu-2)(nu-3)/2: checked by evaluation at three points
        p = binom_rf(-2, 2)
        for x in (0, 1, 10):
            assert p.evaluate(x) == Fraction((x - 2) * (x - 3), 2)
        assert p == RationalFunction((3, Fraction(-5, 2), Fraction(1, 2)))

    @given(st.integers(-10, 10), st.integers(0, 8), st.integers(-5, 40))
    def test_matches_integer_binomial(self, shift, b, n):
        if n + shift >= b:
            assert binom_rf(shift, b).evaluate(n) == binom(n + shift, b)

    def test_evaluation_matches_binom_example(self):
        f = binom_rf(-2, 2)
        assert f.evaluate(7) == 10 == binom(5, 2)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 9])
    def test_zpoly_is_k_factorial_binom_rf(self, k):
        # built from the falling product with no gcd, it must still be the
        # canonical integer polynomial k! C(nu + shift, b)
        provider = binom_zpoly(k)
        for b in range(k + 1):
            for shift in (-2 * k - 3, -k, -1, 0, 1, k + 4):
                p = provider(shift, b)
                f = binom_rf(shift, b) * math.factorial(k)
                assert type(p) is ZPoly and (tuple(p), (1,)) == (f.num, f.den), (k, shift, b)
                assert p[-1] > 0, (k, shift, b)


def zpolys():
    """Integer polynomials from ascending coefficient lists, trailing zeros
    allowed."""
    return st.lists(st.integers(-50, 50), max_size=5).map(ZPoly._of)


class TestZPoly:
    @settings(max_examples=300)
    @given(zpolys(), zpolys(), st.integers(-6, 6))
    def test_ring_operations_match_rational_functions(self, p, q, c):
        # every operation on integer polynomials must give the canonical
        # numerator of the same operation in Q(nu) over den (1,)
        def form(x):
            assert type(x) is ZPoly and (not x or x[-1]), x
            return tuple(x), (1,)

        def rf(f):
            return f.num, f.den

        fp, fq = RationalFunction(p), RationalFunction(q)
        assert form(p) == rf(fp)
        assert form(p + q) == rf(fp + fq)
        assert form(p - q) == rf(fp - fq)
        assert form(-p) == rf(-fp)
        assert form(p * c) == form(c * p) == rf(fp * c)
        assert form(p + c) == form(c + p) == rf(fp + c)
        assert form(p - c) == rf(fp - c)
        assert form(p * q) == rf(fp * fq)
        assert form(sum([p, q, p], 0 * p)) == rf(fp + fq + fp)
        assert (p == 0) is fp.is_zero() and (p != 0) is not fp.is_zero()
        assert (p == c) is (fp == c) and (p != c) is (fp != c)
        assert hash(ZPoly._of([c])) == hash(c)


small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def polynomials(max_degree=3):
    """Ascending coefficient lists, trailing zeros allowed."""
    return st.lists(small_fractions, max_size=max_degree + 1)


def rational_functions():
    return st.tuples(
        polynomials(), polynomials().filter(any)
    ).map(lambda nd: RationalFunction(*nd))


def _mul(a, b):
    """Product of ascending coefficient sequences over Q."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _add(a, b):
    a, b = (a, b) if len(a) >= len(b) else (b, a)
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


class TestRationalFunctionArithmetic:
    def test_sub_self_is_zero(self):
        f = binom_rf(-1, 2) / binom_rf(0, 1)
        assert (f - f).is_zero()

    def test_mul_inverse_reduces(self):
        assert NU * (1 / NU) == RationalFunction.const(1)

    def test_factored_difference_is_zero(self):
        f = RationalFunction((-1, 0, 1), (-1, 1))
        assert f - (NU + 1) == RationalFunction.const(0)

    def test_scalar_minus_function(self):
        # a scalar on the left of ``-`` takes RationalFunction.__rsub__
        f = RationalFunction((1, 1), (-4, 2))  # (nu + 1) / (2 nu - 4)
        for h, num, den, scalar, g in [(1 - NU, (1, -1), (1,), 1, NU),
                                       (Fraction(1, 2) - f, (-3,), (-4, 2), Fraction(1, 2), f)]:
            assert type(h) is RationalFunction
            assert (h.num, h.den) == (num, den)
            _assert_canonical(h)
            for x in (0, 1, 3, 7, Fraction(-5, 3)):
                assert h.evaluate(x) == scalar - g.evaluate(x)

    def test_division_by_zero_function(self):
        with pytest.raises(ZeroDivisionError):
            NU / RationalFunction.const(0)
        with pytest.raises(ZeroDivisionError):
            RationalFunction((1,), (0, 0))

    def test_canonical_form_of_distinct_constructions(self):
        # nu/1 * (nu+1)/(nu) built two ways
        a = (NU * (NU + 1)) / NU
        b = NU + 1
        assert a == b
        assert a.den == (1,)

    @settings(max_examples=60)
    @given(rational_functions(), rational_functions(), rational_functions())
    def test_field_identities(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert (f - f).is_zero()

    @settings(max_examples=60)
    @given(rational_functions(), rational_functions())
    def test_division_roundtrip(self, f, g):
        if not g.is_zero():
            assert (f / g) * g == f


mixed_scalars = st.one_of(st.integers(-5, 5), st.booleans(), small_fractions)


def mixed_polynomials(max_degree=3):
    return st.lists(mixed_scalars, max_size=max_degree + 1)


def _reference_reduction(num, den):
    """Canonical (num, den) coefficients by Euclid over Q (the oracle): both
    divided by their monic gcd, then scaled so that den is monic."""
    g = euclid_gcd(num, den)
    num, den = euclid_divmod(num, g)[0], euclid_divmod(den, g)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


def _monic(f):
    """(num, den) of f divided by lc(den), the form of the oracle."""
    lead = f.den[-1]
    return (tuple(Fraction(c, lead) for c in f.num),
            tuple(Fraction(c, lead) for c in f.den))


def _assert_canonical(f):
    """Int tuples, trimmed, coprime in Z[nu] (contents too), lc(den) > 0."""
    assert type(f.num) is tuple and type(f.den) is tuple
    assert all(type(c) is int for c in f.num + f.den), (f.num, f.den)
    assert f.den[-1] > 0 and (not f.num or f.num[-1])
    if f.is_zero():
        assert f.den == (1,)
    else:
        assert math.gcd(*f.num, *f.den) == 1
        assert euclid_gcd(f.num, f.den) == (1,)


class TestCanonicalForm:
    @settings(max_examples=80)
    @given(mixed_polynomials(), mixed_polynomials(),
           mixed_polynomials(2).filter(any))
    def test_rational_function_is_canonical(self, num, den, common):
        if not any(den):
            den = [1]
        # a shared factor forces a gcd of positive degree when common has one
        for n, d in ((num, den), (_mul(num, common), _mul(den, common))):
            f = RationalFunction(n, d)
            _assert_canonical(f)
            assert _monic(f) == _reference_reduction(n, d)
        c = num[0] if num else 0
        assert RationalFunction.const(c) == RationalFunction([c])
        _assert_canonical(RationalFunction.const(c))

    @settings(max_examples=40)
    @given(rational_functions(), rational_functions(), mixed_scalars)
    def test_arithmetic_results_are_canonical(self, f, g, c):
        # a scalar factor takes a path of its own, without a reduction
        assert f * c == c * f == f * RationalFunction.const(c)
        # each result against the oracle's reduction of its unreduced parts
        results = [
            (f + g, _add(_mul(f.num, g.den), _mul(g.num, f.den)), _mul(f.den, g.den)),
            (f - g, _add(_mul(f.num, g.den), _mul([-x for x in g.num], f.den)),
             _mul(f.den, g.den)),
            (f * g, _mul(f.num, g.num), _mul(f.den, g.den)),
            (f * c, [x * c for x in f.num], f.den),
            (-f, [-x for x in f.num], f.den),
        ]
        if not g.is_zero():
            results.append((f / g, _mul(f.num, g.den), _mul(f.den, g.num)))
        for h, num, den in results:
            _assert_canonical(h)
            assert _monic(h) == _reference_reduction(num, den)

    def test_binom_rf_is_shared_and_immutable(self):
        assert binom_rf(-3, 2) is binom_rf(-3, 2)
        with pytest.raises(AttributeError):
            binom_rf(-3, 2).num = ()
        # the memoised value shares its parts with every caller
        assert type(binom_rf(-3, 2).num) is tuple


def _negative_leading(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return [-c for c in p] if p and p[-1] > 0 else p


# products of up to five linear factors with rational roots and scales, the
# shape of the binomial denominators, so the remainder sequence runs long
linear_products = st.lists(
    st.tuples(small_fractions, small_fractions.filter(bool)), max_size=5
).map(lambda fs: functools.reduce(
    lambda p, f: _mul(p, f), fs, [Fraction(1)]))


class TestAgainstEuclid:
    @settings(max_examples=150)
    @given(st.one_of(polynomials(4), linear_products),
           st.one_of(polynomials(4), linear_products),
           st.one_of(polynomials(2), linear_products))
    def test_gcd(self, a, b, common):
        # reduction divides out the primitive gcd over Z, so it must agree
        # with the Euclid reduction over Q
        for x, y in ((a, b), (_mul(a, common), _mul(b, common)),
                     (_negative_leading(_mul(a, common)), _negative_leading(_mul(b, common))),
                     (_mul(_negative_leading(a), common), b)):
            if any(y):
                f = RationalFunction(x, y)
                _assert_canonical(f)
                assert _monic(f) == _reference_reduction(x, y)


class TestHash:
    @given(st.one_of(st.integers(-5, 5), small_fractions))
    def test_a_constant_hashes_as_its_scalar(self, c):
        for x in (RationalFunction.const(c), RationalFunction([c], [1])):
            assert x == c
            assert hash(x) == hash(c) == hash(Fraction(c))
        assert len({RationalFunction.const(c), RationalFunction([2 * c], [2]), c}) == 1

    def test_equal_values_hash_equal(self):
        p = binom_rf(-2, 3)
        assert hash(p) == hash(RationalFunction((-4, Fraction(13, 3), Fraction(-3, 2),
                                                 Fraction(1, 6))))
        a, b = (NU * (NU + 1)) / NU, NU + 1
        assert a == b and hash(a) == hash(b)
        # C(nu-2, 3) / C(nu-3, 2) = (nu - 2) / 3, built from two other scalings
        f = p / binom_rf(-3, 2)
        g = RationalFunction((-24, 26, -9, 1), (36, -21, 3))
        assert f == g and hash(f) == hash(g)


class TestEvaluation:
    def test_variable(self):
        assert NU.evaluate(7) == 7

    def test_pole_is_distinct_error(self):
        f = 1 / (NU - 7)
        with pytest.raises(PoleError):
            f.evaluate(7)
        assert f.evaluate(8) == 1

    def test_pole_error_is_not_plain_value_error(self):
        assert issubclass(PoleError, ZeroDivisionError)


class TestSerialization:
    def test_integer_renders_bare(self):
        assert rat_to_str(Fraction(7)) == "7"

    def test_fraction_renders_reduced(self):
        assert rat_to_str(Fraction(2, 4)) == "1/2"
        assert rat_to_str(Fraction(-1, 3)) == "-1/3"

    @given(small_fractions)
    def test_roundtrip(self, x):
        assert rat_from_str(rat_to_str(x)) == x

    def test_decimal_exponent_bound(self):
        assert rat_from_str(f"1e{MAX_DECIMAL_EXPONENT}") == 10**MAX_DECIMAL_EXPONENT
        assert (rat_from_str(f"-2.5E-{MAX_DECIMAL_EXPONENT}")
                == Fraction(-5, 2 * 10**MAX_DECIMAL_EXPONENT))
        for s in [f"1e{MAX_DECIMAL_EXPONENT + 1}", f"1e-{MAX_DECIMAL_EXPONENT + 1}",
                  "1e999999999", "1E+999_999_999", " -3.5e1_0_0_1 "]:
            with pytest.raises(ValueError, match="exponent"):
                rat_from_str(s)

    @pytest.mark.parametrize("s", ["1e", "e5", "1e5/3", "1e_5", "1ee5"])
    def test_malformed_exponent(self, s):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            rat_from_str(s)

    def test_poly_string(self):
        assert rf_to_str(binom_rf(-2, 2)) == "1/2*nu^2 - 5/2*nu + 3"
        assert rf_to_str(RationalFunction(())) == "0"

    def test_rf_string(self):
        f = 1 / (NU - 4)
        assert rf_to_str(f) == "(1)/(nu - 4)"
        assert rf_to_str(NU + 1) == "nu + 1"
        # den is printed monic over Q
        assert rf_to_str(RationalFunction((1,), (2, 4))) == "(1/4)/(nu + 1/2)"


class Point(Record):
    x: int
    y: Fraction


class Point3(Point):
    z: int


class Pair(Record):  # the fields of Point, in another type
    x: int
    y: Fraction


class Labelled(Record):
    x: int
    label: str = "none"  # a class attribute, not a default


class TestRecord:
    def test_fields_follow_the_mro(self):
        assert Point._fields == ("x", "y")
        assert Point3._fields == ("x", "y", "z")
        assert Design._fields == ("family", "t", "lam")

    def test_immutable(self):
        p = Point(1, 2)
        with pytest.raises(AttributeError):
            p.x = 2
        with pytest.raises(AttributeError):
            p.w = 2
        with pytest.raises(AttributeError):
            del p.x
        assert p.x == 1

    def test_equality_within_a_type_by_fields(self):
        assert Point(1, 2) == Point(1, 2)
        assert Point(1, 2) != Point(1, 3)
        assert Point(1, 2) != Pair(1, 2)
        assert Point(1, 2) != Point3(1, 2, 0)
        assert Point(1, 2) != (1, 2)
        assert SchemeParams(5, 2) == SchemeParams(5, 2) != SchemeParams(6, 2)

    def test_equal_records_hash_equal(self):
        assert hash(Point(1, Fraction(1))) == hash(Point(1, 1))
        assert len({SchemeParams(5, 2), SchemeParams(5, 2), SchemeParams(6, 2)}) == 2

    def test_repr(self):
        assert repr(Point3(1, Fraction(1, 3), 0)) == "Point3(x=1, y=Fraction(1, 3), z=0)"
        assert repr(SchemeParams(5, 2)) == "SchemeParams(n=5, k=2)"

    def test_positional_and_keyword(self):
        assert Point3(1, 2, 3) == Point3(z=3, y=2, x=1)
        assert list(vars(Point3(z=3, y=2, x=1))) == ["x", "y", "z"]

    @pytest.mark.parametrize("build", [lambda: SchemeParams(0, 1),
                                       lambda: SchemeParams(n=0, k=1),
                                       lambda: BMVector(SchemeParams(5, 2), (1, 2)),
                                       lambda: BMVector(params=SchemeParams(5, 2), coeffs=(1,))])
    def test_post_init_runs_either_way(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("build", [lambda: Point(),
                                       lambda: Point(1, 2, 3),
                                       lambda: Point(1, 2, w=3),
                                       lambda: Point(1, 2, x=1),
                                       lambda: Labelled(1),
                                       lambda: SchemeParams(5)])
    def test_missing_extra_or_repeated_field(self, build):
        with pytest.raises(TypeError):
            build()

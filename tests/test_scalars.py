"""Field axioms and serialization of the exact scalar type."""

import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from drinfeld_forge import (HALF, I, I_SQRT2, INV_SQRT2, ONE, SQRT2, ZERO,
                            Scalar)
from fraction_scalar import Scalar as RefScalar

rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12))

scalars = st.builds(Scalar, rationals, rationals, rationals, rationals)

nonzero_scalars = scalars.filter(bool)


@given(scalars, scalars, scalars)
def test_addition_and_multiplication_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(scalars)
def test_additive_structure(x):
    assert x + ZERO == x
    assert x - x == ZERO
    assert x + (-x) == ZERO
    assert x * ONE == x
    assert x * ZERO == ZERO


@given(nonzero_scalars)
def test_multiplicative_inverse(x):
    assert x * x.inv() == ONE


@given(scalars, scalars)
def test_conjugations_are_homomorphisms(x, y):
    assert (x * y).conj_i() == x.conj_i() * y.conj_i()
    assert (x + y).conj_i() == x.conj_i() + y.conj_i()
    assert x.conj_i().conj_i() == x


@given(scalars)
def test_string_round_trip(x):
    assert Scalar(*x.to_strings()) == x


def test_constants():
    assert I * I == -ONE
    assert SQRT2 * SQRT2 == Scalar(2)
    assert I_SQRT2 == I * SQRT2
    assert INV_SQRT2 * SQRT2 == ONE
    assert HALF + HALF == ONE


def test_specific_inverse():
    x = I_SQRT2
    assert x.inv() == Scalar(0, 0, 0, Fraction(-1, 2))
    assert x * x.inv() == ONE


def test_mixed_inverse_rationalizes():
    x = Scalar(1, 2, 3, Fraction(-1, 2))
    assert x * x.inv() == ONE


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_serialization_is_lowest_terms():
    x = Scalar(Fraction(2, 4), Fraction(-3, 9), 0, 0)
    assert x.to_strings() == ["1/2", "-1/3", "0", "0"]


# Differential tests against the Fraction-backed reference implementation.
# The operands reach well past the small range above so that the gcd
# reduction of the integer representation sees large and shared factors.

wide_rationals = st.builds(
    Fraction,
    st.integers(min_value=-10**6, max_value=10**6),
    st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 16, 35, 97, 2**20, 3**12]))

wide_scalars = st.builds(Scalar, wide_rationals, wide_rationals,
                         wide_rationals, wide_rationals)

# values that hit the rational, purely imaginary and zero corners often
corner_scalars = st.sampled_from(
    [ZERO, ONE, -ONE, I, SQRT2, I_SQRT2, HALF, INV_SQRT2, Scalar(2),
     Scalar(Fraction(-3, 4)), Scalar(0, Fraction(1, 2), 0, Fraction(1, 2))])

any_scalars = st.one_of(wide_scalars, scalars, corner_scalars)

plain_numbers = st.one_of(st.integers(min_value=-40, max_value=40),
                          rationals)


def ref(x):
    return RefScalar(*x.components)


def normal_form(x):
    return x._p, x._q, x._r, x._s, x._den


def assert_normal(x):
    p, q, r, s, den = normal_form(x)
    assert all(type(v) is int for v in (p, q, r, s, den))
    assert den > 0
    assert gcd(p, q, r, s, den) == 1
    if not (p or q or r or s):
        assert den == 1


def assert_same(got, want):
    """`got` is a Scalar, `want` a RefScalar holding the same value."""
    assert isinstance(got, Scalar)
    assert_normal(got)
    assert got.components == want.components
    assert all(type(v) is Fraction for v in got.components)
    assert (got.a, got.b, got.c, got.d) == (want.a, want.b, want.c, want.d)
    assert got.to_strings() == want.to_strings()
    assert str(got) == str(want)
    assert repr(got) == repr(want)
    assert hash(got) == hash(want)
    assert bool(got) == bool(want)
    assert got.is_zero() == want.is_zero()


@given(any_scalars, any_scalars)
def test_ring_operations_match_reference(x, y):
    rx, ry = ref(x), ref(y)
    assert_same(x, rx)
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(x * y, rx * ry)
    assert_same(-x, -rx)
    assert_same(x.conj_i(), rx.conj_i())
    assert (x == y) == (rx == ry)
    assert (x != y) == (rx != ry)


@given(any_scalars, any_scalars)
def test_division_matches_reference(x, y):
    rx, ry = ref(x), ref(y)
    if not y:
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            y.inv()
        return
    assert_same(y.inv(), ry.inv())
    assert_same(x / y, rx / ry)


@given(any_scalars, plain_numbers)
def test_mixed_operands_match_reference(x, n):
    rx = ref(x)
    assert_same(x + n, rx + n)
    assert_same(n + x, n + rx)
    assert_same(x - n, rx - n)
    assert_same(n - x, n - rx)
    assert_same(x * n, rx * n)
    assert_same(n * x, n * rx)
    if n:
        assert_same(x / n, rx / n)
    if x:
        assert_same(n / x, n / rx)
    assert (x == n) == (rx == n)
    assert (n == x) == (n == rx)
    assert (x != n) == (rx != n)


@given(plain_numbers, st.integers(min_value=1, max_value=12))
def test_rational_values_compare_and_hash_like_numbers(n, den):
    x = Scalar(n)
    assert x == n and n == x
    # equal values hash equal, so a Scalar finds a number's dict entry
    assert hash(x) == hash(n) == hash(ref(x))
    assert len({x, n}) == 1 and {n: "n"}.get(x) == "n"
    assert x != n + 1
    # same numerator over another denominator
    other = Fraction(Fraction(n).numerator, den)
    assert (x == other) == (Fraction(n) == other)
    assert (x == other) == (ref(x) == other)
    y = Scalar(other)
    assert y == other and hash(y) == hash(other) == hash(ref(y))
    assert {other: "q"}.get(y) == "q"


@given(wide_rationals, wide_rationals, wide_rationals, wide_rationals)
def test_construction_matches_reference(a, b, c, d):
    assert_same(Scalar(a, b, c, d), RefScalar(a, b, c, d))
    assert_same(Scalar(str(a), b, str(c), d), RefScalar(str(a), b, str(c), d))


@given(any_scalars)
def test_string_and_pickle_round_trips_keep_normal_form(x):
    for copy in (Scalar(*x.to_strings()),
                 pickle.loads(pickle.dumps(x)),
                 pickle.loads(pickle.dumps(x, protocol=0))):
        assert copy == x
        assert normal_form(copy) == normal_form(x)
        assert hash(copy) == hash(x)


def test_zero_is_stored_over_one():
    half = Scalar(Fraction(1, 2), Fraction(-1, 3))
    for zero in (ZERO, Scalar(), half - half, half * ZERO,
                 Scalar(Fraction(0, 7)), -ZERO, pickle.loads(pickle.dumps(ZERO))):
        assert normal_form(zero) == (0, 0, 0, 0, 1)


def test_components_are_read_only():
    x = Scalar(1, 2, 3, 4)
    for name in ("a", "b", "c", "d", "components"):
        with pytest.raises(AttributeError):
            setattr(x, name, Fraction(5))
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == Scalar(1, 2, 3, 4)


def test_non_rational_components_are_rejected():
    with pytest.raises(TypeError):
        Scalar(0.5)
    assert Scalar(1).__eq__(1.0) is NotImplemented
    assert Scalar(1).__add__(1.0) is NotImplemented


# The short paths of the product: a Scalar factor 1 or -1 returns the
# other factor or its negation, any other rational factor takes 4 integer
# products, and a Python int scales the numerators without becoming a
# Scalar. Each is held to the reference on either side of the product.

signs = st.sampled_from([ONE, -ONE, Scalar(1), Scalar(-1),
                         Scalar(Fraction(3, 3)), Scalar(Fraction(-2, 2))])

rational_scalars = st.one_of(
    st.builds(Scalar, wide_rationals), st.builds(Scalar, rationals),
    st.sampled_from([ZERO, HALF, -HALF, Scalar(2), Scalar(-2),
                     Scalar(Fraction(-3, 4)), Scalar(Fraction(4, 3))]))

small_ints = st.one_of(st.integers(min_value=-40, max_value=40),
                       st.integers(min_value=-10**30, max_value=10**30))


@given(any_scalars, signs)
def test_products_by_a_sign_match_reference(x, sign):
    rx, rs = ref(x), ref(sign)
    assert_same(x * sign, rx * rs)
    assert_same(sign * x, rs * rx)
    if sign == ONE:
        # a factor 1 returns the other factor itself (Scalars are
        # immutable); of two rationals, the right one is read as the factor
        assert x * sign is x
        assert sign * x is x or normal_form(x)[1:4] == (0, 0, 0)
    assert x * ONE == x == ONE * x
    assert x * -ONE == -x == -ONE * x


@given(any_scalars, rational_scalars)
def test_products_by_a_rational_match_reference(x, q):
    rx, rq = ref(x), ref(q)
    assert_same(x * q, rx * rq)
    assert_same(q * x, rq * rx)
    assert_same(q * q, rq * rq)


@given(any_scalars, small_ints)
def test_products_by_an_int_match_reference(x, n):
    rx = ref(x)
    assert_same(x * n, rx * n)
    assert_same(n * x, n * rx)
    assert_same(x * n, x * Scalar(n))


@pytest.mark.parametrize("x,n,want", [
    (HALF, 2, ONE), (HALF, -2, -ONE), (INV_SQRT2, 2, SQRT2),
    (Scalar(Fraction(1, 6), 0, Fraction(-1, 3)), 6, Scalar(1, 0, -2)),
    (Scalar(0, Fraction(3, 4)), 4, Scalar(0, 3)), (HALF, 0, ZERO)])
def test_products_that_clear_the_denominator_are_normal(x, n, want):
    # den > 1 times an int, or a rational Scalar, lands on den 1
    for got in (x * n, n * x, x * Scalar(n), Scalar(n) * x):
        assert_same(got, ref(want))
        assert normal_form(got) == normal_form(want)
        assert got.to_strings() == want.to_strings()
        assert hash(got) == hash(want)


def test_to_strings_writes_lowest_terms_itself():
    x = Scalar(Fraction(2, 4), 1, Fraction(-6, 8), Fraction(3, 12))
    assert x.to_strings() == ["1/2", "1", "-3/4", "1/4"]
    assert x.to_strings() == [str(v) for v in x.components]
    assert (x * 4).to_strings() == ["2", "4", "-3", "1"]

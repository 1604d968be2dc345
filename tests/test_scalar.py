import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from braidalg.scalar import (LaurentPoly, ONE, Q, ZERO, Scalar,
                             ScalarParseError, join_terms, parse_poly,
                             parse_scalar, power_str, q_binomial, q_integer)


def test_parse_basic_laurent():
    s = parse_scalar("q - q^-1")
    assert s.num.coeffs == {1: Fraction(1), -1: Fraction(-1)}
    assert s.den.is_one()


def test_parse_zero_and_absorption():
    z = parse_scalar("0")
    assert z.is_zero()
    assert (z * parse_scalar("(q+1)/(q-1)")).is_zero()
    assert (z * Q).is_zero()


def test_canonical_fraction_equality():
    # oracle: cross-multiplication, independent of canonicalization
    a = parse_scalar("(q^2-1)/(q+q^-1)")
    b = parse_scalar("(q^3-q)/(q^2+1)")
    assert a.num * b.den == b.num * a.den
    assert a == b


def test_denominator_normalization():
    s = parse_scalar("(q^2-1)/(q+q^-1)")
    # denominator is an ordinary polynomial with coprime integer content
    # and positive leading coefficient
    assert min(s.den.coeffs) >= 0
    assert all(c.denominator == 1 for c in s.den.coeffs.values())
    assert s.den.coeffs[s.den.degree()] > 0


def test_print_parse_roundtrip():
    samples = [
        "q - q^-1", "(q^2-1)/(q+q^-1)", "0", "1", "-1", "q^5",
        "(q^4 - 2 + q^-4)/(q^2+1)", "1/2*q + 1/3", "-3*q^-2",
        "(2*q + 1)/(3*q^2 + q + 2)",
    ]
    for text in samples:
        s = parse_scalar(text)
        assert parse_scalar(str(s)) == s


def test_parse_errors_are_positioned():
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("q + * 2")
    assert err.value.position == 4
    with pytest.raises(ScalarParseError):
        parse_scalar("(q + 1")
    with pytest.raises(ScalarParseError):
        parse_scalar("q^x")


def test_division_by_zero_polynomial():
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/(q - q)")
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def _random_scalar(rng):
    num = LaurentPoly({rng.randint(-3, 3): Fraction(rng.randint(-4, 4))
                       for _ in range(rng.randint(1, 3))})
    den = LaurentPoly({rng.randint(-2, 2): Fraction(rng.randint(-3, 3))
                       for _ in range(rng.randint(1, 2))})
    if den.is_zero():
        den = LaurentPoly.one()
    return Scalar(num, den)


def test_field_axioms_on_random_scalars():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == ONE
        assert a + ZERO == a
        assert a * ONE == a


def test_q_integer_small_values():
    assert q_integer(0).is_zero()
    assert q_integer(1) == ONE
    assert q_integer(2) == parse_scalar("q + q^-1")
    assert q_integer(4) == parse_scalar("q^3 + q + q^-1 + q^-3")


def test_q_integer_matches_defining_fraction():
    for n in range(13):
        assert q_integer(n) * (Q - Q ** -1) == Q ** n - Q ** (-n)


def test_q_integer_denominator_free():
    for n in range(9):
        assert q_integer(n).den.is_one()


def test_q_integer_rejects_negative():
    with pytest.raises(ValueError):
        q_integer(-1)


def test_q_integer_other_base():
    q2 = Scalar.q_power(2)
    assert q_integer(2, q2) == parse_scalar("q^2 + q^-2")


def _q_binomial_by_partitions(n, r):
    """Independent oracle: balanced q-binomial as the generating function of
    partitions inside an r x (n-r) box, sum q^(2|la| - r(n-r))."""
    limit = n - r
    counts = {}

    def rec(parts_left, maximum, total):
        if parts_left == 0:
            counts[total] = counts.get(total, 0) + 1
            return
        for part in range(maximum + 1):
            rec(parts_left - 1, part, total + part)

    rec(r, limit, 0)
    out = ZERO
    for size, count in sorted(counts.items()):
        out = out + Scalar.q_power(2 * size - r * (n - r)) * count
    return out


def test_q_binomial_examples_and_oracle():
    assert q_binomial(5, 0) == ONE
    assert q_binomial(2, 1) == q_integer(2)
    expected = parse_scalar("q^4 + q^2 + 2 + q^-2 + q^-4")
    assert q_binomial(4, 2) == expected
    for n in range(7):
        for r in range(n + 1):
            assert q_binomial(n, r) == _q_binomial_by_partitions(n, r)


def test_q_binomial_symmetry():
    for n in range(11):
        for r in range(n + 1):
            assert q_binomial(n, r) == q_binomial(n, n - r)


def test_q_binomial_pascal_identity():
    # q^r [n-1, r] + q^-(n-r) [n-1, r-1] = [n, r]: fixes the balanced form
    for n in range(2, 9):
        for r in range(1, n):
            lhs = (Q ** r) * q_binomial(n - 1, r) + \
                (Q ** -(n - r)) * q_binomial(n - 1, r - 1)
            assert lhs == q_binomial(n, r)


def test_q_binomial_range_check():
    with pytest.raises(ValueError):
        q_binomial(3, 4)
    with pytest.raises(ValueError):
        q_binomial(3, -1)


def test_evaluate_classical_limit():
    assert q_integer(3).evaluate(1) == 3
    assert parse_scalar("q^2").evaluate(2) == 4
    assert q_binomial(4, 2).evaluate(1) == 6  # = C(4, 2) by direct count


def test_evaluate_pole():
    s = parse_scalar("1/(q - 1)")
    with pytest.raises(ZeroDivisionError):
        s.evaluate(1)
    assert s.evaluate(2) == 1
    with pytest.raises(ZeroDivisionError):
        parse_scalar("q^-1").evaluate(0)


def test_parse_poly_in_x():
    coeffs = parse_poly("x - q")
    assert [str(c) for c in coeffs] == ["-q", "1"]
    coeffs = parse_poly("(x - q)*(x + q^-1)")
    assert len(coeffs) == 3
    assert coeffs[2] == ONE
    assert coeffs[1] == Q ** -1 - Q
    assert coeffs[0] == -ONE
    assert parse_poly("0") == []
    with pytest.raises(ScalarParseError):
        parse_poly("1/x")


def test_scalar_power_and_monomial():
    assert (Q ** -3) * (Q ** 3) == ONE
    assert Scalar.q_power(2).as_monomial() == (2, Fraction(1))
    assert parse_scalar("q + 1").as_monomial() is None


# --- sympy as an independent oracle for Q(q) arithmetic ---------------------

_q = sympy.Symbol("q")
_coeffs = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
_laurent = st.dictionaries(st.integers(-2, 2), _coeffs, max_size=3).map(
    LaurentPoly)
_random_scalars = st.builds(
    lambda num, den: Scalar(num, den if not den.is_zero() else LaurentPoly.one()),
    _laurent, _laurent)


def _to_sympy(x: Scalar):
    def laurent(p):
        return sum((sympy.Rational(v.numerator, v.denominator) * _q ** e
                    for e, v in p.coeffs.items()), sympy.Integer(0))
    return laurent(x.num) / laurent(x.den)


def _assert_canonical(x: Scalar):
    den = x.den.coeffs
    assert min(den) == 0
    assert all(v.denominator == 1 for v in den.values())
    assert den[max(den)] > 0
    content = 0
    for v in den.values():
        content = sympy.igcd(content, v.numerator)
    assert content == 1
    if not x.is_zero():
        shift = x.num.valuation()
        num = sum((sympy.Rational(v.numerator, v.denominator) * _q ** (e - shift)
                   for e, v in x.num.coeffs.items()), sympy.Integer(0))
        den_expr = sum((int(v) * _q ** e for e, v in den.items()),
                       sympy.Integer(0))
        assert sympy.degree(sympy.gcd(num, den_expr), _q) == 0


@settings(max_examples=40, deadline=None)
@given(a=_random_scalars, b=_random_scalars)
def test_field_operations_agree_with_sympy(a, b):
    sa, sb = _to_sympy(a), _to_sympy(b)
    results = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb)]
    if not b.is_zero():
        results.append((a / b, sa / sb))
    for got, expected in results:
        _assert_canonical(got)
        assert sympy.cancel(_to_sympy(got) - expected) == 0, (a, b, got)


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(_random_scalars, max_size=4))
def test_printed_polynomial_reads_back_through_parse_poly(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    text = join_terms((coeffs[d], power_str("x", d))
                      for d in reversed(range(len(coeffs)))
                      if not coeffs[d].is_zero())
    assert parse_poly(text) == coeffs, text
    assert "+ -" not in text and "- -" not in text, text

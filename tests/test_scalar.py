import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from braidalg.scalar import (LaurentPoly, ONE, Q, ZERO, Scalar,
                             ScalarParseError, _canonical, join_terms,
                             parse_poly, parse_scalar, power_str, q_binomial,
                             q_integer)

from oracles import canonical_reference


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


@pytest.mark.parametrize("text", ["0^0", "(1-1)^0", "(q-q)^0", "0^-1",
                                  "(0*q)^0"])
def test_zero_to_a_non_positive_power_is_refused(text):
    with pytest.raises(ZeroDivisionError, match="zero raised"):
        parse_scalar(text)
    with pytest.raises(ZeroDivisionError, match="zero raised"):
        parse_poly(f"x + {text}")


def test_zero_literal_is_the_canonical_zero():
    for text in ("0", "00", "0*q", "0/2", "-0", "0^3"):
        assert parse_scalar(text) == ZERO, text
        assert parse_poly(text) == [], text
    assert parse_poly("x + 0") == [ZERO, ONE]


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


def _sympy_laurent(p: LaurentPoly):
    return sum((sympy.Rational(v.numerator, v.denominator) * _q ** e
                for e, v in p.coeffs.items()), sympy.Integer(0))


def _to_sympy(x: Scalar):
    return _sympy_laurent(x.num) / _sympy_laurent(x.den)


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


def _stored_canonically(x: Scalar) -> bool:
    """Integral coefficients are ints, others Fractions; denominators are
    integral."""
    def ok(v):
        return (type(v) is int
                or isinstance(v, Fraction) and v.denominator > 1)
    return (all(ok(v) for v in x.num.coeffs.values())
            and all(type(v) is int for v in x.den.coeffs.values()))


@settings(max_examples=60, deadline=None)
@given(a=_random_scalars, b=_random_scalars)
def test_integral_coefficients_are_stored_as_int(a, b):
    results = [a + b, a - b, a * b] + ([a / b] if not b.is_zero() else [])
    for got in results:
        assert _stored_canonically(got), (a, b, got.num.coeffs, got.den.coeffs)


def test_integral_fraction_is_stored_as_int():
    p = LaurentPoly({0: Fraction(4, 2)})
    assert p.coeffs == {0: 2} and type(p.coeffs[0]) is int
    assert p == LaurentPoly({0: 2}) and hash(p) == hash(LaurentPoly({0: 2}))
    assert type(Scalar.from_int(3).num.coeffs[0]) is int
    assert type(LaurentPoly({0: True}).coeffs[0]) is int
    # sums and products that come out integral are stored as ints again
    half = parse_scalar("1/2*q")
    assert _stored_canonically(half + half) and _stored_canonically(half * 2)


def test_float_exponents_and_coefficients_are_refused():
    # int(0.7) would truncate to q^0, and Fraction(0.1) is the binary
    # fraction 3602879701896397/2**55, not 1/10
    for coeffs in ({0.7: 1}, {2.0: 1}, {Fraction(1, 2): 1}, {0: 0.1},
                   {0: 1.0}, {1: "1"}):
        with pytest.raises(TypeError):
            LaurentPoly(coeffs)
    with pytest.raises(TypeError):
        Scalar.from_int(0.5)
    with pytest.raises(TypeError):
        Scalar.q_power(1.5)
    assert LaurentPoly({True: Fraction(3, 1), 0: Fraction(1, 10)}).coeffs == \
        {1: 3, 0: Fraction(1, 10)}


def test_product_with_one_is_the_other_factor_as_a_scalar():
    """`ONE` returns the other factor itself, but a plain number is still
    coerced first, so the product is always a `Scalar`."""
    x = parse_scalar("1/(q + 1)")
    assert x * ONE is x and ONE * x is x
    for got in (ONE * 3, 3 * ONE, ONE * Fraction(1, 2)):
        assert type(got) is Scalar and _stored_canonically(got)
    assert ONE * 3 == Scalar.from_int(3) and not (ONE * 3).is_zero()
    assert ONE.__mul__("q") is NotImplemented


def test_evaluate_returns_a_fraction():
    assert isinstance(LaurentPoly().evaluate(2), Fraction)
    for s in (ZERO, ONE, Q, q_integer(3), parse_scalar("1/(q + 1)")):
        assert isinstance(s.evaluate(2), Fraction), s
        assert isinstance(s.num.evaluate(2), Fraction), s


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


# --- canonicalization against the Euclidean reference and sympy -------------

_nonzero = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                     st.sampled_from([1, 2, 3, 5]))


def _laurent_polys(min_terms: int, max_terms: int):
    return st.dictionaries(st.integers(-3, 3), _nonzero, min_size=min_terms,
                           max_size=max_terms).map(LaurentPoly)


_P = LaurentPoly


@settings(max_examples=150, deadline=None)
@given(a=_laurent_polys(0, 4), b=_laurent_polys(1, 4), f=_laurent_polys(1, 3))
@example(a=_P(), b=_P({1: -2, 0: 1}), f=_P({-1: Fraction(1, 2)}))
@example(a=_P({2: Fraction(-3, 2)}), b=_P({-1: -4}), f=_P({0: 3, 1: -1}))
@example(a=_P({0: 1, 1: -1}), b=_P({3: Fraction(-2, 3)}), f=_P({2: -5}))
@example(a=_P({1: -2, 0: 2}), b=_P({2: -1, 0: 1}), f=_P({1: Fraction(-1, 3),
                                                       -2: 1}))
def test_canonical_matches_euclid_reference_and_sympy(a, b, f):
    """_canonical(a*f, b*f) is the pair the Euclidean reference gives, its
    value is a/b, and it is in canonical form."""
    num, den = _canonical(a * f, b * f)
    ref_num, ref_den = canonical_reference(a * f, b * f)
    assert (num.coeffs, den.coeffs) == (ref_num.coeffs, ref_den.coeffs)
    got = Scalar._raw(num, den)
    _assert_canonical(got)
    assert _stored_canonically(got), (num.coeffs, den.coeffs)
    expected = _sympy_laurent(a) / _sympy_laurent(b)
    assert sympy.cancel(_to_sympy(got) - expected) == 0, (a, b, f)


# --- the fast paths of the operators against the canonicalizing route ------

def _structure(x: Scalar):
    """The canonical form of x down to the type of each coefficient."""
    return tuple({e: (type(v), v) for e, v in p.coeffs.items()}
                 for p in (x.num, x.den))


def _route(num: LaurentPoly, den: LaurentPoly):
    return _structure(Scalar(num, den))


@settings(max_examples=150, deadline=None)
@given(a=_random_scalars, b=_random_scalars)
@example(a=Q ** 3, b=-Q ** -2)
@example(a=-Q, b=Scalar.from_int(2) * Q ** 2)
@example(a=Q ** 2 / 3, b=ZERO)
@example(a=ONE, b=parse_scalar("(q + 1)/(2*q^2 + 3)"))
@example(a=parse_scalar("1/(q - 1)"), b=parse_scalar("-1/(q - 1)"))
@example(a=parse_scalar("q/(q + 2)"), b=Q ** -1)
def test_operators_match_the_canonical_route(a, b):
    """Every operator result is structurally the one that `Scalar(num,
    den)` gives for its unreduced num/den, whichever fast path it took."""
    assert _structure(a * b) == _route(a.num * b.num, a.den * b.den)
    assert _structure(a + b) == _route(a.num * b.den + b.num * a.den,
                                       a.den * b.den)
    assert _structure(-a) == _route(-a.num, a.den)
    assert (a == b) == (_route(a.num, a.den) == _route(b.num, b.den))
    assert a == Scalar(a.num, a.den)
    for x, y in ((a, b), (b, a)):
        if not x.is_zero():
            assert _structure(x.inverse()) == _route(x.den, x.num)
            assert _structure(y / x) == _route(y.num * x.den, y.den * x.num)


def test_unit_monomial_inverse_takes_no_gcd(monkeypatch):
    import braidalg.scalar
    x = -Q ** 3
    calls = []
    monkeypatch.setattr(braidalg.scalar, "_canonical",
                        lambda *args: calls.append(args))
    inv = x.inverse()
    assert calls == []
    assert _structure(inv) == ({-3: (int, -1)}, {0: (int, 1)})


@pytest.mark.parametrize("exponent", [10 ** 21, 10 ** 17])
def test_a_huge_exponent_span_is_a_value_error(exponent):
    """A span past the index range of a list (10**21), or one whose dense
    list no 64-bit address space holds (10**17), is refused as a ValueError,
    not an OverflowError or MemoryError from the dense coefficient list."""
    x = Q - Q ** exponent
    with pytest.raises(ValueError, match=f"exponent span {exponent - 1} "):
        x.inverse()

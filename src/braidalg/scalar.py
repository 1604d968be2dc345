"""Exact arithmetic in Q(q): Laurent polynomials in the deformation
parameter q with rational coefficients, canonical rational functions built
from them, and the balanced q-integers / q-binomials that appear in quantum
Serre relations.

All values are immutable and all operations are pure, so they are safe to
share between threads.  Equality of scalars is structural equality of
canonical forms: fractions are reduced, the denominator is an ordinary
polynomial in q with coprime integer coefficients and positive leading
coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd


class ScalarParseError(ValueError):
    """Malformed scalar/polynomial expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ScalarZeroDivision(ScalarParseError, ZeroDivisionError):
    """An expression that divides by zero: malformed input, and still a
    ZeroDivisionError for callers that catch arithmetic errors."""


_F0 = Fraction(0)
_F1 = Fraction(1)


class LaurentPoly:
    """A Laurent polynomial in q, stored as a map {exponent: coefficient}.

    Zero coefficients are never stored; the zero polynomial is the empty map.
    Instances are treated as immutable after construction.

    >>> str(LaurentPoly({1: 1, -1: -1}))
    'q - q^-1'
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = v if isinstance(v, Fraction) else Fraction(v)
                if v:
                    c[int(e)] = v
        self.coeffs = c
        self._hash = None

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: _F1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {0: _F1}

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def valuation(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no valuation")
        return min(self.coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self.coeffs)
        for e, v in other.coeffs.items():
            nv = c.get(e, _F0) + v
            if nv:
                c[e] = nv
            else:
                c.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = c
        out._hash = None
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e: -v for e, v in self.coeffs.items()}
        out._hash = None
        return out

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LaurentPoly()
        if len(a) > len(b):
            a, b = b, a
        c: dict = {}
        for ea, va in a.items():
            for eb, vb in b.items():
                e = ea + eb
                nv = c.get(e, _F0) + va * vb
                if nv:
                    c[e] = nv
                else:
                    c.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = c
        out._hash = None
        return out

    def evaluate(self, q0: Fraction) -> Fraction:
        q0 = Fraction(q0)
        if q0 == 0 and self.coeffs and min(self.coeffs) < 0:
            raise ZeroDivisionError("negative power of q at q=0")
        return sum((v * q0 ** e for e, v in self.coeffs.items()), _F0)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.coeffs.items())))
        return self._hash

    def __str__(self) -> str:
        return join_terms((self.coeffs[e], power_str("q", e))
                          for e in sorted(self.coeffs, reverse=True))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.coeffs!r})"


def power_str(var: str, e: int) -> str:
    """The monomial `var^e` as printed in a signed sum: '1', 'var' or 'var^e'."""
    return "1" if e == 0 else var if e == 1 else f"{var}^{e}"


def join_terms(parts) -> str:
    """The one printer of signed sums: (coefficient, monomial) pairs in print
    order, '1' standing for the empty monomial, joined as 'a - b*m + c*m'.
    No parts print as '0'.  `parse_scalar` and `parse_poly` read the text
    back.

    >>> join_terms([(-1, "q^2"), (2, "q"), (-3, "1")])
    '-q^2 + 2*q - 3'
    """
    out = []
    for c, mono in parts:
        cs = str(c)
        # parenthesise a sum multiplying a word; a quotient ends in "/(den)"
        grouped = (mono != "1" and not cs.endswith(")")
                   and any(op in cs for op in (" + ", " - ")))
        negative = cs.startswith("-") and not grouped
        if negative:
            cs = cs[1:]
        if mono == "1":
            body = cs
        elif cs == "1":
            body = mono
        else:
            body = f"({cs})*{mono}" if grouped else f"{cs}*{mono}"
        if not out:
            out.append(("-" if negative else "") + body)
        else:
            out.append(("- " if negative else "+ ") + body)
    return " ".join(out) if out else "0"


def _poly_divmod(a: dict, b: dict):
    """Long division of ordinary polynomials given as exponent->Fraction maps."""
    r = dict(a)
    q: dict = {}
    db = max(b)
    lb = b[db]
    while r:
        dr = max(r)
        if dr < db:
            break
        c = r[dr] / lb
        e = dr - db
        q[e] = q.get(e, _F0) + c
        for eb, vb in b.items():
            ee = eb + e
            nv = r.get(ee, _F0) - c * vb
            if nv:
                r[ee] = nv
            else:
                r.pop(ee, None)
    return q, r


def _poly_gcd(a: dict, b: dict) -> dict:
    """Monic gcd of ordinary polynomials over Q."""
    a, b = dict(a), dict(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    lead = a[max(a)]
    return {e: v / lead for e, v in a.items()}


def _canonical(num: LaurentPoly, den: LaurentPoly):
    """Reduce num/den: cancel common factors, shift the denominator to an
    ordinary polynomial with coprime integer coefficients and positive
    leading coefficient."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly(), LaurentPoly.one()
    a = num.valuation()
    b = den.valuation()
    n0 = {e - a: v for e, v in num.coeffs.items()}
    d0 = {e - b: v for e, v in den.coeffs.items()}
    if len(d0) > 1 or len(n0) > 1:
        g = _poly_gcd(n0, d0)
        if len(g) > 1 or g.get(0) != 1:
            n0, _ = _poly_divmod(n0, g)
            d0, _ = _poly_divmod(d0, g)
    # Clear rational content of the denominator and fix its leading sign.
    denoms = 1
    for v in d0.values():
        denoms = denoms * v.denominator // _int_gcd(denoms, v.denominator)
    nums = 0
    for v in d0.values():
        nums = _int_gcd(nums, (v * denoms).numerator)
    factor = Fraction(denoms, nums)
    if d0[max(d0)] < 0:
        factor = -factor
    shift = a - b
    num_out = LaurentPoly({e + shift: v * factor for e, v in n0.items()})
    den_out = LaurentPoly({e: v * factor for e, v in d0.items()})
    return num_out, den_out


class Scalar:
    """An element of Q(q) in canonical form: numerator a Laurent polynomial,
    denominator an ordinary polynomial in q with coprime integer coefficients
    and positive leading coefficient.  Structural equality decides equality
    in the field.

    >>> parse_scalar("(q^2-1)/(q+q^-1)") == parse_scalar("(q^3-q)/(q^2+1)")
    True
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one()
        self.num, self.den = _canonical(num, den)
        self._hash = None

    @classmethod
    def _raw(cls, num: LaurentPoly, den: LaurentPoly) -> "Scalar":
        out = cls.__new__(cls)
        out.num, out.den, out._hash = num, den, None
        return out

    @classmethod
    def from_int(cls, k) -> "Scalar":
        return cls._raw(LaurentPoly({0: Fraction(k)}), LaurentPoly.one())

    @classmethod
    def q_power(cls, k: int) -> "Scalar":
        return cls._raw(LaurentPoly({k: _F1}), LaurentPoly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def as_monomial(self):
        """Return (exponent, coefficient) if the scalar is c*q**e, else None."""
        if self.den.is_one() and len(self.num.coeffs) == 1:
            ((e, v),) = self.num.coeffs.items()
            return e, v
        return None

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return Scalar._raw(self.num + other.num, self.den)
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        return _coerce(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar._raw(-self.num, self.den)

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return ZERO
        if self.den.is_one() and other.den.is_one():
            if other.num.is_one():
                return self
            if self.num.is_one():
                return other
            return Scalar._raw(self.num * other.num, self.den)
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "Scalar":
        return _coerce(other) / self

    def inverse(self) -> "Scalar":
        return Scalar(self.den, self.num)

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def evaluate(self, q0) -> Fraction:
        """Exact substitution q -> q0; raises ZeroDivisionError at a pole."""
        q0 = Fraction(q0)
        d = self.den.evaluate(q0)
        if d == 0:
            raise ZeroDivisionError(f"pole at q = {q0}")
        return self.num.evaluate(q0) / d

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        num, den = str(self.num), str(self.den)
        if len(self.num.coeffs) > 1:
            num = f"({num})"
        return f"{num}/({den})"

    def __repr__(self) -> str:
        return f"Scalar({self})"


ZERO = Scalar._raw(LaurentPoly.zero(), LaurentPoly.one())
ONE = Scalar._raw(LaurentPoly.one(), LaurentPoly.one())
Q = Scalar.q_power(1)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar._raw(LaurentPoly({0: Fraction(x)}), LaurentPoly.one())
    return NotImplemented


def q_integer(n: int, base: Scalar = Q) -> Scalar:
    """The balanced q-integer in expanded Laurent form:
    base**(n-1) + base**(n-3) + ... + base**(1-n).

    >>> str(q_integer(2))
    'q + q^-1'
    """
    if n < 0:
        raise ValueError("q-integer requires n >= 0")
    out = ZERO
    for k in range(n):
        out = out + base ** (n - 1 - 2 * k)
    return out


def q_binomial(n: int, r: int, base: Scalar = Q) -> Scalar:
    """The balanced q-binomial [n]!/([r]![n-r]!), denominator-free after
    cancellation."""
    if not 0 <= r <= n:
        raise ValueError("q-binomial requires 0 <= r <= n")
    r = min(r, n - r)
    out = ONE
    for k in range(1, r + 1):
        out = out * q_integer(n - r + k, base) / q_integer(k, base)
    return out


# --- parsing ---------------------------------------------------------------
#
# Grammar (used both for plain scalars and for univariate polynomials in x):
#   expr   := term (('+' | '-') term)*
#   term   := factor (('*' | '/') factor)*
#   factor := '-'* atom ('^' ['-'] INT)?
#   atom   := INT | 'q' | 'x' | '(' expr ')'
#
# Values during parsing are maps {x-degree: Scalar}; a plain scalar is the
# map {0: value}.


class _Parser:
    def __init__(self, text: str, allow_x: bool):
        self.text = text
        self.pos = 0
        self.allow_x = allow_x

    def error(self, message: str):
        raise ScalarParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self) -> dict:
        try:
            value = self.parse_expr()
        except ZeroDivisionError as exc:
            raise ScalarZeroDivision(str(exc), self.pos) from exc
        if self.peek():
            self.error(f"unexpected character {self.peek()!r}")
        return value

    def parse_expr(self) -> dict:
        value = self.parse_term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.take()
                value = _xp_add(value, self.parse_term())
            elif ch == "-":
                self.take()
                value = _xp_add(value, _xp_neg(self.parse_term()))
            else:
                return value

    def parse_term(self) -> dict:
        value = self.parse_factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                value = _xp_mul(value, self.parse_factor())
            elif ch == "/":
                self.take()
                divisor = self.parse_factor()
                if set(divisor) - {0}:
                    self.error("cannot divide by a polynomial in x")
                if not divisor:
                    raise ZeroDivisionError("division by the zero polynomial")
                inv = divisor[0].inverse()
                value = {d: c * inv for d, c in value.items()}
            else:
                return value

    def parse_factor(self) -> dict:
        negate = False
        while self.peek() == "-":
            self.take()
            negate = not negate
        value = self.parse_atom()
        if self.peek() == "^":
            self.take()
            value = _xp_pow(value, self.parse_exponent(), self)
        return _xp_neg(value) if negate else value

    def parse_exponent(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        if not self.peek().isdigit():
            self.error("expected integer exponent after '^'")
        return sign * self.parse_int()

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def parse_atom(self) -> dict:
        ch = self.peek()
        if ch == "(":
            self.take()
            value = self.parse_expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return value
        if ch == "q":
            self.take()
            return {0: Q}
        if ch == "x" and self.allow_x:
            self.take()
            return {1: ONE}
        if ch.isdigit():
            return {0: Scalar.from_int(self.parse_int())}
        self.error("expected a number, 'q', or '('" + (" or 'x'" if self.allow_x else ""))


def _xp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for d, c in b.items():
        nc = out.get(d, ZERO) + c
        if nc.is_zero():
            out.pop(d, None)
        else:
            out[d] = nc
    return out


def _xp_neg(a: dict) -> dict:
    return {d: -c for d, c in a.items()}


def _xp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            nc = out.get(d, ZERO) + ca * cb
            if nc.is_zero():
                out.pop(d, None)
            else:
                out[d] = nc
    return out


def _xp_pow(a: dict, k: int, parser: _Parser) -> dict:
    if set(a) - {0}:
        if k < 0:
            parser.error("negative power of a polynomial in x")
        out = {0: ONE}
        for _ in range(k):
            out = _xp_mul(out, a)
        return out
    if not a:
        if k <= 0:
            raise ZeroDivisionError("zero raised to a non-positive power")
        return {}
    return {0: a[0] ** k}


def parse_scalar(text: str) -> Scalar:
    """Parse an element of Q(q).  Printing a canonical scalar and re-parsing
    it returns the same canonical form."""
    value = _Parser(text, allow_x=False).parse()
    return value.get(0, ZERO)


def parse_poly(text: str) -> list[Scalar]:
    """Parse a univariate polynomial in x over Q(q); returns ascending
    coefficients [c0, c1, ...] with no trailing zero (the zero polynomial is
    [])."""
    value = {d: c for d, c in _Parser(text, allow_x=True).parse().items()
             if not c.is_zero()}
    if not value:
        return []
    top = max(value)
    return [value.get(d, ZERO) for d in range(top + 1)]

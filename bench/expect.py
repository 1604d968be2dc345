"""Expected values for the benchmark's output checks.

Everything here is computed from closed forms or parsed with a parser of
its own, never with braidalg and never from a stored copy of an earlier
run's output.  A check that finds a wrong value raises `CheckFailed`.
"""

from __future__ import annotations

import re
from math import comb


class CheckFailed(AssertionError):
    """An output of the program differs from its expected value."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# --- graded dimensions -------------------------------------------------------


def sym_dims(n: int, top: int) -> list[int]:
    """q-symmetric algebra on n generators: C(n+d-1, d)."""
    return [comb(n + d - 1, d) for d in range(top + 1)]


def ext_dims(n: int, top: int) -> list[int]:
    """q-exterior algebra on n generators: C(n, d)."""
    return [comb(n, d) for d in range(top + 1)]


def cone_dims(top: int) -> list[int]:
    """Quotient of the adjoint sl_2 space by x - q^2: 2d + 1."""
    return [2 * d + 1 for d in range(top + 1)]


def poly2_dims(top: int) -> list[int]:
    """Commutative polynomials in two variables: d + 1."""
    return [d + 1 for d in range(top + 1)]


def frt_dims(n: int, top: int) -> list[int]:
    """The t-bialgebra of sl_n is flat, a polynomial algebra on n^2
    generators in each degree: C(n^2+d-1, d)."""
    return sym_dims(n * n, top)


def pair_count(dims: list[int], top: int) -> int:
    """Monomial pairs (a, b) with deg a + deg b <= top."""
    return sum(dims[i] * dims[j]
               for i in range(top + 1) for j in range(top + 1 - i))


def uq_generator_count(n: int) -> int:
    """E_i, F_i, K_i and K_i^-1 for i < n - 1."""
    return 4 * (n - 1)


def word_count(generators: int, top: int) -> int:
    """Generator words of length at most `top`."""
    return sum(generators ** k for k in range(top + 1))


def frt_relation_count(n: int) -> int:
    """One relation per pair of distinct t_ij: C(n^2, 2)."""
    return comb(n * n, 2)


def adjoint_frt_relation_count() -> int:
    """V (x) V = V_0 + V_2 + V_4 for the three-dimensional V (Clebsch-Gordan),
    so the commutant of the braiding has dimension 1 + 9 + 25 and the
    relation count is 81 - 35 = 46."""
    return 81 - (1 ** 2 + 3 ** 2 + 5 ** 2)


# --- relation lists ----------------------------------------------------------


def sym_relation_lines(n: int) -> list[str]:
    """`xi xj = q*xj xi` for i < j, ordered by leading word."""
    return [f"x{i} x{j} = q*x{j} x{i}"
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def ext_relation_lines(n: int) -> list[str]:
    """`xi xi = 0` and `xi xj = -q^-1*xj xi` for i < j, ordered by leading
    word."""
    lines = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            lines.append(f"x{i} x{i} = 0" if i == j
                         else f"x{i} x{j} = -q^-1*x{j} x{i}")
    return lines


# --- Laurent polynomials with integer coefficients ---------------------------

_TERM = re.compile(r"(\d+)?(?:\*?(q)(?:\^(-?\d+))?)?")


def parse_laurent(text: str) -> dict[int, int]:
    """Parse `-q + q^-1`, `3*q^2 - 1`, `0` into {exponent: coefficient}."""
    out: dict[int, int] = {}
    # a sign starts a term unless it belongs to an exponent
    for term in re.split(r"(?<!\^)(?=[+-])", text.replace(" ", "")):
        if not term:
            continue
        negative = term[0] == "-"
        m = _TERM.fullmatch(term.lstrip("+-"))
        if m is None or not (m.group(1) or m.group(2)):
            raise CheckFailed(f"unreadable term {term!r} in {text!r}")
        coeff = int(m.group(1) or 1)
        exp = int(m.group(3) or 1) if m.group(2) else 0
        out[exp] = out.get(exp, 0) + (-coeff if negative else coeff)
    if not out and text.strip() != "0":
        raise CheckFailed(f"empty polynomial {text!r}")
    return {e: c for e, c in out.items() if c}


def hecke_minimal_poly() -> list[dict[int, int]]:
    """Ascending coefficients of (x - q)(x + q^-1) = x^2 + (q^-1 - q) x - 1."""
    return [{0: -1}, {-1: 1, 1: -1}, {0: 1}]


# --- report helpers ----------------------------------------------------------

_COUNT = re.compile(r"(\d+)")


def numbers_in(text: str) -> list[int]:
    return [int(x) for x in _COUNT.findall(text)]

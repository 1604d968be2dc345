"""Test-local references for `ncalg.hilbert_oracle`,
`ncalg.complete_rewrite`, `linalg.SymMatrix` arithmetic,
`uqg._measuring_residual`, `frt.frt_relations` and `scalar._canonical`.

`hilbert_reference` is the definition: the rank of the degree-2 relations
placed at every position of V**d, eliminated exactly over Q(q).  It costs
n**d columns, so the tests call it at small degrees only.

`modular_hilbert` is the same definition with q sent to a seeded random
residue modulo the prime P = 2**61 - 1 and the rank taken over plain ints.
The specialized rank of a subspace is at most its rank over Q(q), and equal
to it unless q0 is a root of one of finitely many non-zero polynomials
(Schwartz-Zippel), so the specialized dimensions bound the generic ones from
above and agree with them with high probability.  It uses no `Scalar`
arithmetic and no `Echelon`: it reads only the integer coefficients of the
relations.

`completion_reference` is the fixpoint completion loop that
`complete_rewrite` replaced: per degree, it orients each non-zero normal
form of an overlap difference as a rule, one at a time, renormalizes every
right-hand side, and repeats until a pass adds no rule.

The `dense_*` functions are matrix arithmetic on plain lists of rows of
`Scalar` entries: product, sum, scaling, Kronecker product, application to a
sparse vector and the determinant by Laplace expansion.  They share no code
with `SymMatrix`, which stores its matrices by columns; `dense_rows` reads a
`SymMatrix` through its dense view.  `iterated_coproduct` expands the whole
(k-1)-fold coproduct of a symbol, the recipe of the dense reference for
`ActionTable.extended`, which takes one coproduct step per tensor power
instead; coassociativity makes the two agree.

`measuring_residual_reference` is the Sweedler split that
`uqg._measuring_residual` replaced: the action of c on the normal form of ab
minus the sum, over the coproduct terms (l, r, c') of c, of
c' * (l on a) (x) (r on b), built as one vector of V^(x)(|a|+|b|) and reduced
once.  It splits the word at the boundary of a and b, where the library acts
on the whole word ab; coassociativity and the counit law make the two agree.

`frt_relations_reference` is the construction that `frt.frt_relations`
replaced: the t-relations as the columns of tau (B^T (x) 1 - 1 (x) B) tau on
V* (x) V (x) V* (x) V, tau exchanging the two middle factors, built with the
`dense_*` functions instead of the commutator functionals of the braiding.

`canonical_reference` is the reduction that `scalar._canonical` replaced:
Euclid's algorithm over `Fraction` coefficients gives the monic gcd, long
division over Q removes it, and the denominator's rational content and sign
are cleared last.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from braidalg.linalg import Echelon, vec_add_scaled, vec_kron
from braidalg.frt import t_names
from braidalg.ncalg import (CompletionLog, NCPoly, RelationSet, RewriteSystem,
                            vector_to_poly, word_index)
from braidalg.scalar import ONE, ZERO, LaurentPoly

P = 2 ** 61 - 1


def hilbert_reference(relations, max_degree: int) -> list[int]:
    """dim_d = n**d - dim( sum_i V**i (x) R (x) V**(d-2-i) ), exactly."""
    n = relations.alphabet
    rel_vecs = relations.span.basis()
    dims = []
    for d in range(max_degree + 1):
        if d < 2:
            dims.append(n ** d)
            continue
        ech = Echelon()
        for vec in _placed(rel_vecs, n, d):
            ech.insert(vec)
        dims.append(n ** d - ech.rank)
    return dims


def modular_hilbert(relations, max_degree: int, seed: int) -> list[int]:
    """`hilbert_reference` at q = q0 (mod P), q0 drawn from `seed`."""
    q0 = random.Random(seed).randrange(2, P - 1)
    n = relations.alphabet
    rel_vecs = []
    for rel in relations.relations:
        vec = {w[0] * n + w[1]: _residue(c, q0) for w, c in rel.coeffs.items()}
        rel_vecs.append({i: v for i, v in vec.items() if v})
    return [n ** d - _modular_rank(_placed(rel_vecs, n, d)) if d >= 2 else n ** d
            for d in range(max_degree + 1)]


def completion_reference(relations, max_degree: int):
    """(rules, rules added per degree) of the fixpoint completion through
    `max_degree`.  Normal forms come from a `RewriteSystem` rebuilt, with an
    empty memo, after each new rule and once per interreduction pass; the
    reduced rules that the loop ends with do not depend on which equivalent
    normal forms a stale memo hands out within a pass.  Words are ordered
    degree-lexicographically, lower indices ranked higher, by a key of its
    own, not by the library's echelon pivots."""
    def deglex(word):
        return (-len(word), word)

    rules = {}
    for rel in relations.relations:
        lead = min(rel.coeffs, key=deglex)
        rules[lead] = NCPoly({w: -c for w, c in rel.coeffs.items() if w != lead})
    added: dict[int, int] = {}

    def current():
        return RewriteSystem(relations, max_degree, rules, CompletionLog())

    rs = current()
    for degree in range(3, max_degree + 1):
        while True:
            new_rules = []
            for u in sorted(rules, key=deglex):
                for v in sorted(rules, key=deglex):
                    for ell in range(1, min(len(u), len(v))):
                        if (len(u) + len(v) - ell != degree
                                or u[len(u) - ell:] != v[:ell]):
                            continue
                        left = rules[u] * NCPoly.monomial(v[ell:])
                        right = NCPoly.monomial(u[:len(u) - ell]) * rules[v]
                        s = rs.normal_form(left - right)
                        if not s.is_zero():
                            new_rules.append(s)
            if not new_rules:
                break
            for s in new_rules:
                s = rs.normal_form(s)
                if s.is_zero():
                    continue
                lead = min(s.coeffs, key=deglex)
                rules[lead] = (s - NCPoly.monomial(lead, s.coeffs[lead])) \
                    .scale(-s.coeffs[lead].inverse())
                added[degree] = added.get(degree, 0) + 1
                rs = current()
            changed = True
            while changed:
                changed = False
                rs = current()
                for lead in list(rules):
                    nf = rs.normal_form(rules[lead])
                    if nf != rules[lead]:
                        rules[lead] = nf
                        changed = True
            rs = current()
    return rules, added


def _placed(rel_vecs, n: int, d: int):
    """Each relation vector at each position i of V**i (x) R (x) V**(d-2-i),
    over the flattened indices of the words of degree d."""
    for i in range(d - 1):
        right_len = d - 2 - i
        for left_idx in range(n ** i):
            base_left = left_idx * (n ** (d - i))
            for right_idx in range(n ** right_len):
                for rel in rel_vecs:
                    yield {base_left + mid_idx * (n ** right_len) + right_idx: c
                           for mid_idx, c in rel.items()}


def _residue(scalar, q0: int) -> int:
    """The value at q = q0 modulo P of a Q(q) element, from the rational
    coefficients of its numerator and denominator."""
    def at(poly) -> int:
        total = 0
        for e, v in poly.coeffs.items():
            v = Fraction(v)
            total += v.numerator * pow(v.denominator, -1, P) * pow(q0, e, P)
        return total % P

    den = at(scalar.den)
    if not den:
        raise ZeroDivisionError(f"q0 = {q0} is a pole of {scalar}")
    return at(scalar.num) * pow(den, -1, P) % P


def _modular_rank(vectors) -> int:
    """Rank over Z/P of sparse vectors {index: int}, by forward elimination
    on the lowest index."""
    rows: dict[int, dict] = {}
    for vec in vectors:
        vec = dict(vec)
        while vec:
            lead = min(vec)
            row = rows.get(lead)
            if row is None:
                inv = pow(vec[lead], -1, P)
                rows[lead] = {i: v * inv % P for i, v in vec.items()}
                break
            c = vec[lead]
            for i, v in row.items():
                nv = (vec.get(i, 0) - c * v) % P
                if nv:
                    vec[i] = nv
                else:
                    vec.pop(i, None)
    return len(rows)


# --- dense matrix reference ---------------------------------------------------


def dense_rows(m) -> list[list]:
    """The rows of a `SymMatrix`, as lists."""
    return [list(row) for row in m.entries]


def dense_identity(n: int) -> list[list]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def dense_zeros(rows: int, cols: int) -> list[list]:
    return [[ZERO] * cols for _ in range(rows)]


def dense_product(a: list[list], b: list[list]) -> list[list]:
    """a . b, entry by entry: sum_k a[i][k] b[k][j]."""
    out = dense_zeros(len(a), len(b[0]))
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            acc = ZERO
            for k, x in enumerate(row):
                acc = acc + x * b[k][j]
            out[i][j] = acc
    return out


def dense_sum(a: list[list], b: list[list]) -> list[list]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scale(a: list[list], c) -> list[list]:
    return [[x * c for x in row] for row in a]


def dense_kron(a: list[list], b: list[list]) -> list[list]:
    """Entry (i1 * rows(b) + i2, j1 * cols(b) + j2) is a[i1][j1] b[i2][j2]."""
    rb, cb = len(b), len(b[0])
    out = dense_zeros(len(a) * rb, len(a[0]) * cb)
    for i1, arow in enumerate(a):
        for j1, x in enumerate(arow):
            for i2, brow in enumerate(b):
                for j2, y in enumerate(brow):
                    out[i1 * rb + i2][j1 * cb + j2] = x * y
    return out


def dense_kron_all(mats) -> list[list]:
    out = mats[0]
    for m in mats[1:]:
        out = dense_kron(out, m)
    return out


def dense_apply(a: list[list], vec: dict) -> dict:
    """a . vec for a sparse vector {column: Scalar}; the non-zero entries."""
    out = {}
    for i, row in enumerate(a):
        acc = ZERO
        for j, v in vec.items():
            acc = acc + row[j] * v
        if not acc.is_zero():
            out[i] = acc
    return out


def iterated_coproduct(coalgebra, symbol, k: int) -> list:
    """Terms of the (k-1)-fold coproduct of `symbol` as (k-tuple of words,
    coefficient), k >= 1, each step splitting the first word by
    `delta_word`."""
    terms = [(((symbol,),), ONE)]
    while len(terms[0][0]) < k:
        expanded: dict = {}
        for words, c in terms:
            for left, right, c2 in coalgebra.delta_word(words[0]):
                key = (left, right) + words[1:]
                expanded[key] = expanded.get(key, ZERO) + c * c2
        terms = [(w, c) for w, c in expanded.items() if not c.is_zero()]
    return terms


def measuring_residual_reference(actions, rs, symbol, a, b) -> NCPoly:
    """NF(sigma(c)(NF(ab)) - sum c' sigma(l)(a) (x) sigma(r)(b)) over the
    coproduct terms (l, r, c') of c = `symbol`, for normal words a, b."""
    n, k = actions.dim, len(a) + len(b)
    product = rs.normal_form(NCPoly.monomial(a + b))
    vec = actions.act((symbol,), {word_index(w, n): c for w, c
                                  in product.coeffs.items()}, k)
    unit_a, unit_b = {word_index(a, n): ONE}, {word_index(b, n): ONE}
    for l, r, c in actions.coalgebra.delta[symbol]:
        vec_add_scaled(vec, vec_kron(actions.act(l, unit_a, len(a)),
                                     actions.act(r, unit_b, len(b)),
                                     n ** len(b)), -c)
    return rs.normal_form(vector_to_poly(vec, n, k))


def frt_relations_reference(space) -> RelationSet:
    """The span of the columns of tau (B^T (x) 1 - 1 (x) B) tau, B the
    braiding, as degree-2 relations in the t-letters."""
    n = space.dim
    b = dense_rows(space.braiding)
    ident = dense_identity(n * n)
    k = dense_sum(dense_kron([list(col) for col in zip(*b)], ident),
                  dense_scale(dense_kron(ident, b), -ONE))

    def tau(p: int) -> int:
        a, rest = divmod(p, n ** 3)
        c, rest = divmod(rest, n * n)
        d, e = divmod(rest, n)
        return ((a * n + d) * n + c) * n + e

    # entry (i, p) of tau K tau is K[tau(i)][tau(p)]
    columns = [{i: k[tau(i)][tau(p)] for i in range(n ** 4)
                if not k[tau(i)][tau(p)].is_zero()} for p in range(n ** 4)]
    return RelationSet.spanned_by(n * n, columns, names=t_names(n))


def dense_det(a: list[list]):
    """The determinant, by Laplace expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    out = ZERO
    for j, x in enumerate(a[0]):
        if x.is_zero():
            continue
        minor = dense_det([row[:j] + row[j + 1:] for row in a[1:]])
        out = out + x * minor if j % 2 == 0 else out - x * minor
    return out


# --- Q(q) canonical form reference --------------------------------------------


def canonical_reference(num: LaurentPoly, den: LaurentPoly):
    """(numerator, denominator) of num/den in canonical form: no common
    factor, the denominator an ordinary polynomial with coprime integer
    coefficients and a positive leading coefficient."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly(), LaurentPoly.one()
    a, b = num.valuation(), den.valuation()
    n0 = {e - a: Fraction(v) for e, v in num.coeffs.items()}
    d0 = {e - b: Fraction(v) for e, v in den.coeffs.items()}
    g = _euclid_gcd(n0, d0)
    n0, _ = _long_division(n0, g)
    d0, _ = _long_division(d0, g)
    denoms = 1
    for v in d0.values():
        denoms = denoms * v.denominator // math.gcd(denoms, v.denominator)
    nums = 0
    for v in d0.values():
        nums = math.gcd(nums, (v * denoms).numerator)
    factor = Fraction(denoms, nums)
    if d0[max(d0)] < 0:
        factor = -factor
    return (LaurentPoly({e + a - b: v * factor for e, v in n0.items()}),
            LaurentPoly({e: v * factor for e, v in d0.items()}))


def _long_division(a: dict, b: dict):
    """(quotient, remainder) of polynomials over Q, as exponent->Fraction
    maps."""
    r = dict(a)
    quotient: dict = {}
    db = max(b)
    while r and max(r) >= db:
        dr = max(r)
        c = r[dr] / b[db]
        quotient[dr - db] = quotient.get(dr - db, 0) + c
        for eb, vb in b.items():
            nv = r.get(eb + dr - db, 0) - c * vb
            if nv:
                r[eb + dr - db] = nv
            else:
                r.pop(eb + dr - db, None)
    return quotient, r


def _euclid_gcd(a: dict, b: dict) -> dict:
    """The monic gcd of polynomials over Q, by Euclid's algorithm."""
    while b:
        a, b = b, _long_division(a, b)[1]
    lead = a[max(a)]
    return {e: v / lead for e, v in a.items()}

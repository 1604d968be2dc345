"""The quadratic bialgebra on the matrix-coefficient generators t_ij: its
relations B (T (x) T) = (T (x) T) B, one per entry of the commutator with
the braiding B, the coideal property of the relation space, graded
dimensions of the quotient, and the finite-degree dual pairing with
generator actions that realizes the duality with braiding-preserving
transformations: a generator word annihilates the relations exactly when
its action on V (x) V commutes with B.

The infinite-dimensional duals are never materialized; every statement is
truncated at a caller-supplied degree bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .linalg import (BraidedSpace, SymMatrix, commutator_rows, vec_add_scaled,
                     vec_kron)
from .ncalg import RelationSet, complete_rewrite, hilbert, word_index
from .report import Report
from .scalar import ONE, ZERO, Scalar
from .uqg import GeneratorCoalgebra, Representation


def t_names(n: int) -> list[str]:
    return [f"t{a + 1}{b + 1}" if n < 10 else f"t[{a + 1},{b + 1}]"
            for a in range(n) for b in range(n)]


@dataclass
class FRTPresentation:
    """Generators t_ij (alphabet flattened as a*n + b), the echelonized
    basis of the commutator functionals of the braiding as degree-2
    relations, and the matrix coalgebra of the t_ij,
    `GeneratorCoalgebra.matrix(n)`."""

    n: int
    relations: RelationSet
    rank: int
    convention: str

    @property
    def alphabet(self) -> int:
        return self.n * self.n

    @cached_property
    def coalgebra(self) -> GeneratorCoalgebra:
        return GeneratorCoalgebra.matrix(self.n)


def frt_relations(space: BraidedSpace) -> FRTPresentation:
    """Echelonize the degree-2 relations B (T (x) T) = (T (x) T) B in the
    t-letters: the commutator functionals X -> (XB - BX)[i][j] of the
    braiding B (`commutator_rows`), the entry (row, col) of X read as the
    t-word that `_entry_index` maps to it.  Of the two matrices of the
    space, B is the one that every braiding-preserving generator action
    commutes with, as the dual pairing needs; the choice is recorded on
    the presentation."""
    n = space.dim
    n2 = n * n
    entries = (_entry_index(divmod(w, n2), n) for w in range(n2 * n2))
    word_at = {col * n2 + row: w for w, (row, col) in enumerate(entries)}
    relation_set = RelationSet.spanned_by(
        n2, ({word_at[k]: c for k, c in row.items()}
             for row in commutator_rows(space.braiding)), names=t_names(n))
    return FRTPresentation(
        n=n, relations=relation_set, rank=len(relation_set),
        convention="relations built from the braiding (exchange matrix "
                   "composed with the flip); dual pairing uses "
                   "<u, t_ij> = matrix entry (i, j)")


def frt_coideal_check(pres: FRTPresentation) -> Report:
    """delta(r) lies in rel (x) T2 + T2 (x) rel for every relation r, via
    the reduced tensor (pi (x) pi) delta(r) = 0; also eps(r) = 0."""
    report = Report(f"coideal property of {len(pres.relations)} relations")
    n2 = pres.alphabet
    # pi of each degree-2 t-word, by its flattened index
    pi = [pres.relations.span.reduce({i: ONE}) for i in range(n2 * n2)]
    for idx, rel in enumerate(pres.relations.relations):
        eps = ZERO
        for w, c in rel.coeffs.items():
            eps = eps + pres.coalgebra.counit_word(w) * c
        report.add(f"eps(relation {idx + 1}) = 0", eps.is_zero())
        accumulated: dict = {}
        for w, c in rel.coeffs.items():
            for left, right, c2 in pres.coalgebra.delta_word(w):
                vec_add_scaled(accumulated,
                               vec_kron(pi[word_index(left, n2)],
                                        pi[word_index(right, n2)], n2 * n2),
                               c * c2)
        report.add(f"delta(relation {idx + 1}) in rel(x)T + T(x)rel",
                   not accumulated)
    return report


def frt_hilbert(pres: FRTPresentation, max_degree: int) -> list[int]:
    """Graded dimensions of the quotient by the t-relations."""
    rs = complete_rewrite(pres.relations, max(max_degree, 2))
    return hilbert(rs, max_degree)


class PairingTable:
    """Lazily populated pairing <generator word, t-word>, built for one
    check and dropped with it.

    The memo `_columns` is that check's cache of `ActionTable.act`: it keeps
    the single columns act(u, {col: ONE}, k) of the generator words u the
    check pairs, keyed by (u, k, col), each one symbol applied to the
    memoized column of the rest of u.  Only the columns a pairing reads are
    ever built.  It lives only as long as the check: a memo held by the
    representation would grow with every check run against it.
    """

    def __init__(self, rep: Representation, n: int):
        self.rep = rep
        self.n = n
        self._columns: dict = {}

    def column(self, u: tuple, k: int, col: int) -> dict:
        """Column `col` of the action of the word u on V^(x)k."""
        key = (u, k, col)
        vec = self._columns.get(key)
        if vec is None:
            vec = (self.rep.actions.act(u[:1], self.column(u[1:], k, col), k)
                   if u else {col: ONE})
            self._columns[key] = vec
        return vec

    def pair(self, u_word, t_word) -> Scalar:
        """<u, t_{i1 j1} ... t_{ik jk}>: entry (i-vector, j-vector) of the
        action of u on V^(x)k."""
        row, col = _entry_index(t_word, self.n)
        return self.column(tuple(u_word), len(t_word), col).get(row, ZERO)


def _entry_index(t_word, n: int) -> tuple[int, int]:
    """(i-vector, j-vector) of t_{i1 j1} ... t_{ik jk}, each flattened to an
    index of V^(x)k: the entry of an action that the t-word pairs with."""
    row = col = 0
    for letter in t_word:
        if not 0 <= letter < n * n:
            raise ValueError(f"unknown t-generator index {letter}")
        a, b = divmod(letter, n)
        row = row * n + a
        col = col * n + b
    return row, col


def _draw_below(getrandbits, m: int) -> int:
    """A uniform draw from range(m), m >= 1: `getrandbits(k)` with
    k = (m - 1).bit_length() until it is below m.  A power of two takes one
    call, and m = 1 takes `getrandbits(0)`, which is 0 and spends no state."""
    k = (m - 1).bit_length()
    r = getrandbits(k)
    while r >= m:
        r = getrandbits(k)
    return r


def pairing(rep: Representation, u_word, t_word) -> Scalar:
    """<u, t_{i1 j1} ... t_{ik jk}> = the (i-vector, j-vector) entry of the
    action of the word u on the k-th tensor power."""
    n = rep.dim
    return PairingTable(rep, n).pair(tuple(u_word), tuple(t_word))


def _word_operators(rep: Representation, max_degree: int):
    """Yield (u, X_u), X_u the action of u on V (x) V, for every generator
    word u with |u| <= max_degree: shorter words first, then in
    `itertools.product` order.  Only prefix[i] = prefix[i - 1] . X_{u_i}
    for the current word u is kept; the next word reuses the prefix it
    shares with u."""
    gens = rep.presentation.generators
    ident = SymMatrix.identity(rep.dim ** 2)
    for length in range(max_degree + 1):
        prefix, previous = [ident], ()
        for u in product(gens, repeat=length):
            keep = 0
            while keep < len(previous) - 1 and u[keep] == previous[keep]:
                keep += 1
            del prefix[keep + 1:]
            for g in u[keep:]:
                prefix.append(prefix[-1] * rep.actions.extended(g, 2))
            previous = u
            yield u, prefix[-1]


def _nonzero_pairings(word_operators, positions):
    """Yield (u, relation index, <u, r>) for each non-zero pairing of a word
    operator X_u on V (x) V with a relation r, given by `positions` as its
    ((row, col), coefficient) terms: <u, r> = sum c * X_u[row, col]."""
    for u, op in word_operators:
        for idx, terms in enumerate(positions):
            value = ZERO
            for (row, col), c in terms:
                entry = op.columns[col].get(row)
                if entry is not None:
                    value = value + entry * c
            if not value.is_zero():
                yield u, idx, value


def refuse_duality(rep: Representation, n: int, max_degree: int = 3,
                   samples: int = 200):
    """Refuse a duality check that would cover nothing (a degree bound or
    sample count below 1) or pairs a representation of another dimension."""
    if max_degree < 1:
        raise ValueError(f"duality check needs max_degree >= 1, got {max_degree}")
    if samples < 1:
        raise ValueError(f"duality check needs samples >= 1, got {samples}")
    if rep.dim != n:
        raise ValueError("representation dimension must equal n")


def check_duality(rep: Representation, space: BraidedSpace,
                  max_degree: int = 3, samples: int = 200,
                  seed: int = 0, *,
                  pres: FRTPresentation | None = None) -> Report:
    """Annihilation <u, r> = 0 for every generator word u up to the degree
    bound and every relation, plus product/coproduct compatibility of the
    pairing on seeded samples.  The multiplication-order orientation that
    holds is recorded in the report notes.

    The relations of `frt_relations` are the commutator functionals
    X -> (XB - BX)[i][j] of the braiding B, so an operator X on V (x) V
    annihilates them exactly when it commutes with B; as X_u is the product
    of the X_g and the commutant is an algebra holding 1, every word does
    exactly when every generator action on V (x) V does.  Only if one
    does not are all words enumerated, to count the failures, with the
    operators of `_word_operators`, paired by `_nonzero_pairings`.  After
    `refuse_duality`, an empty relation set is refused.  `pres`, when
    given, must be `frt_relations(space)`, built by the caller.

    The samples are drawn from `Random(seed).getrandbits` by `_draw_below`,
    a word's length before its letters.  A t-word of length k pairs with
    the entry (row, col) of an action on V^(x)k that its letters' digits
    spell, so a sampled t-word is drawn as that entry (k, row, col), with
    row and col uniform below n^k: the same as a uniform t-word of length
    k.  The sampled sums read entries straight from the columns of one
    `PairingTable`, that of ab from those of a and b: `<uv, a>` as a walk
    over one column of X_v (`multiplicative`), with no expansion of the
    coproduct of a, and `<u, ab>` over the coproduct of u, expanded once
    per distinct u of the check."""
    n = space.dim
    refuse_duality(rep, n, max_degree, samples)
    table = PairingTable(rep, n)
    if pres is None:
        pres = frt_relations(space)
    if not pres.relations.relations:
        raise ValueError("empty relation set: the annihilation check would "
                         "pass without checking anything")
    gens = list(rep.presentation.generators)
    report = Report(f"finite-degree duality for {rep.name}")
    report.notes.append(pres.convention)

    bad = 0
    witness = ""
    relations = pres.relations.relations
    braiding = space.braiding
    if not all(braiding * x == x * braiding
               for x in (rep.actions.extended(g, 2) for g in gens)):
        # recount over every word, in the order of increasing length, so the
        # failure count and the first witness are those of the full check
        positions = [[(_entry_index(w, n), c)
                      for w, c in rel.coeffs.items()] for rel in relations]
        for u, idx, value in _nonzero_pairings(
                _word_operators(rep, max_degree), positions):
            bad += 1
            if not witness:
                uname = " ".join(str(g) for g in u) if u else "1"
                witness = f"<{uname}, relation {idx + 1}> = {value}"
    word_count = sum(len(gens) ** length for length in range(max_degree + 1))
    report.add(
        f"annihilation <u, r> = 0 for {word_count} words x "
        f"{len(relations)} relations", bad == 0,
        "" if bad == 0 else f"{bad} non-zero pairings; first: {witness}")

    getrandbits = random.Random(seed).getrandbits
    n_gens = len(gens)

    def random_u(max_len):
        return tuple([gens[_draw_below(getrandbits, n_gens)]
                      for _ in range(_draw_below(getrandbits, max_len + 1))])

    def random_entry(max_len):
        k = _draw_below(getrandbits, max_len + 1)
        size = n ** k
        return (k, _draw_below(getrandbits, size),
                _draw_below(getrandbits, size))

    triples = [(random_u(max_degree - 1), random_u(max_degree - 1),
                random_entry(max_degree)) for _ in range(samples)]

    def multiplicative(opposite: bool) -> bool:
        """<uv, a> = sum <u, a1><v, a2> on every triple, or with u and v
        exchanged on the right when `opposite`.  For a of length k with
        entry (I, J), delta(t_(I,J)) = sum_K t_(I,K) (x) t_(K,J) with unit
        coefficients, so the right side is sum_K X_x[I, K] X_y[K, J]: a walk
        over the non-zero entries K of column J of X_y, the column that
        the lhs X_uv[I, J] builds in the plain order, reading entry I of
        column K of X_x for each."""
        for u, v, (k, row, col) in triples:
            x, y = (v, u) if opposite else (u, v)
            rhs = ZERO
            for mid, second in table.column(y, k, col).items():
                if (first := table.column(x, k, mid).get(row)) is not None:
                    rhs += first * second
            if table.column(u + v, k, col).get(row, ZERO) != rhs:
                return False
        return True

    product_plain = multiplicative(False)
    report.add(f"<uv, a> = sum <u, a1><v, a2> on {samples} samples",
               product_plain)

    coproduct_ok = True
    coalgebra = rep.presentation.coalgebra
    coproducts: dict = {}
    for _ in range(samples):
        u = random_u(max_degree)
        ka, row_a, col_a = random_entry(max_degree)
        kb, row_b, col_b = random_entry(max_degree - ka)
        # the entry of ab: a's indices are the leading digits of ab's
        shift = n ** kb
        lhs = table.column(u, ka + kb, col_a * shift + col_b).get(
            row_a * shift + row_b, ZERO)
        if (terms := coproducts.get(u)) is None:
            terms = coproducts[u] = coalgebra.delta_word(u)
        rhs = ZERO
        for left, right, c in terms:
            first = table.column(left, ka, col_a).get(row_a)
            if first is not None:
                second = table.column(right, kb, col_b).get(row_b, ZERO)
                rhs = rhs + first * second * c
        if lhs != rhs:
            coproduct_ok = False
    report.add(f"<u, ab> = sum <u1, a><u2, b> on {samples} samples",
               coproduct_ok)

    # act composes the actions of words in the plain order, so the
    # opposite order is evaluated only when the plain one fails
    if product_plain:
        orientation = "direct (plain multiplication order)"
    elif multiplicative(True):
        orientation = "opposite multiplication order"
    else:
        orientation = "neither orientation holds"
    report.notes.append(f"multiplicativity orientation: {orientation}")
    return report

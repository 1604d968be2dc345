"""The quadratic bialgebra on the matrix-coefficient generators t_ij:
relation generation from the twist-conjugated pair of operators on
V* (x) V (x) V* (x) V, the coideal property of the relation space, graded
dimensions of the quotient, and the finite-degree dual pairing with
generator actions that realizes the duality with braiding-preserving
transformations.

The infinite-dimensional duals are never materialized; every statement is
truncated at a caller-supplied degree bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .linalg import BraidedSpace, SparseOperator, vec_add_scaled
from .ncalg import (NCPoly, RelationSet, complete_rewrite, hilbert,
                    word_index)
from .report import Report
from .scalar import ONE, ZERO, Scalar
from .uqg import Representation


def t_names(n: int) -> list[str]:
    return [f"t{a + 1}{b + 1}" if n < 10 else f"t[{a + 1},{b + 1}]"
            for a in range(n) for b in range(n)]


@dataclass
class FRTPresentation:
    """Generators t_ij (alphabet flattened as a*n + b), the echelonized
    basis of im(alpha - beta) as degree-2 relations, and the matrix
    coproduct/counit rules."""

    n: int
    relations: RelationSet
    rank: int
    convention: str

    @property
    def alphabet(self) -> int:
        return self.n * self.n

    def letter(self, a: int, b: int) -> int:
        return a * self.n + b

    def coproduct_letter(self, letter: int) -> list:
        """delta(t_ab) = sum_k t_ak (x) t_kb as letter-index pairs."""
        a, b = divmod(letter, self.n)
        return [(self.letter(a, k), self.letter(k, b)) for k in range(self.n)]

    def counit_letter(self, letter: int) -> Scalar:
        a, b = divmod(letter, self.n)
        return ONE if a == b else ZERO

    def counit_word(self, word) -> Scalar:
        out = ONE
        for letter in word:
            out = out * self.counit_letter(letter)
            if out.is_zero():
                return ZERO
        return out

    def coproduct_word(self, word) -> list:
        """delta on a word of t-letters: n**len(word) pairs of words."""
        pairs = [((), ())]
        for letter in word:
            pairs = [(l + (x,), r + (y,))
                     for l, r in pairs
                     for x, y in self.coproduct_letter(letter)]
        return pairs


def _middle_swap(n: int) -> list[int]:
    """The permutation of V1 (x) V2 (x) V3 (x) V4 exchanging factors 2, 3,
    as an index map; it is its own inverse."""
    return [((a * n + c) * n + b) * n + d for a in range(n) for b in range(n)
            for c in range(n) for d in range(n)]


def frt_relations(space: BraidedSpace) -> FRTPresentation:
    """Build alpha = tau (M* (x) 1) tau and beta = tau (1 (x) M) tau on
    V* (x) V (x) V* (x) V and echelonize im(alpha - beta) as degree-2
    relations in the t-letters.

    The operator M fed into the twist-conjugated maps is the braiding
    (exchange matrix composed with the flip): of the two matrices carried by
    the space it is the one whose relations are annihilated by every
    braiding-preserving generator action, which is what the dual pairing
    requires.  The choice is recorded on the presentation.
    """
    n = space.dim
    n2 = n * n
    ident = SparseOperator.identity(n2)
    a = SparseOperator.from_matrix(space.braiding.transpose()).kron(ident)
    b = ident.kron(space.psi)
    # column p of tau K tau is column tau(p) of K with its rows moved by tau
    tau = _middle_swap(n)
    columns = []
    for j in tau:
        col = dict(a.columns[j])
        vec_add_scaled(col, b.columns[j], -ONE)
        columns.append({tau[i]: v for i, v in col.items()})
    relation_set = RelationSet.spanned_by(n2, columns, names=t_names(n))
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

    def reduced(word) -> dict:
        return pres.relations.span.reduce({word_index(word, n2): ONE})

    for idx, rel in enumerate(pres.relations.relations):
        eps = ZERO
        for w, c in rel.coeffs.items():
            eps = eps + pres.counit_word(w) * c
        report.add(f"eps(relation {idx + 1}) = 0", eps.is_zero())
        accumulated: dict = {}
        for w, c in rel.coeffs.items():
            for left, right in pres.coproduct_word(w):
                lred = reduced(left)
                if not lred:
                    continue
                rred = reduced(right)
                if not rred:
                    continue
                for li, lc in lred.items():
                    for ri, rc in rred.items():
                        key = (li, ri)
                        nv = accumulated.get(key, ZERO) + c * lc * rc
                        if nv.is_zero():
                            accumulated.pop(key, None)
                        else:
                            accumulated[key] = nv
        report.add(f"delta(relation {idx + 1}) in rel(x)T + T(x)rel",
                   not accumulated)
    return report


def frt_hilbert(pres: FRTPresentation, max_degree: int) -> list[int]:
    """Graded dimensions of the quotient by the t-relations."""
    rs = complete_rewrite(pres.relations, max(max_degree, 2))
    return hilbert(rs, max_degree)


class PairingTable:
    """Lazily populated pairing <generator word, t-word>.

    The memo `_actions` keeps the action of each generator word on each
    tensor power it was asked for, keyed by (word, k); the action of u is
    the first symbol's extended action applied to the columns of the
    memoized action of the rest of u.
    """

    def __init__(self, rep: Representation, n: int):
        if rep.dim != n:
            raise ValueError("representation dimension must equal n")
        self.rep = rep
        self.n = n
        self._actions: dict = {}

    def action(self, u_word, k: int) -> SparseOperator:
        u = tuple(u_word)
        op = self._actions.get((u, k))
        if op is None:
            if u:
                op = self.rep.actions.extended(u[0], k).compose(
                    self.action(u[1:], k))
            else:
                op = SparseOperator.identity(self.rep.dim ** k)
            self._actions[(u, k)] = op
        return op

    def pair(self, u_word, t_word) -> Scalar:
        k = len(t_word)
        if k == 0:
            return self.action(u_word, 0).columns[0].get(0, ZERO)
        rows = []
        cols = []
        for letter in t_word:
            if not 0 <= letter < self.n * self.n:
                raise ValueError(f"unknown t-generator index {letter}")
            a, b = divmod(letter, self.n)
            rows.append(a)
            cols.append(b)
        x = self.action(u_word, k)
        return x.columns[word_index(tuple(cols), self.n)].get(
            word_index(tuple(rows), self.n), ZERO)

    def pair_poly(self, u_word, p: NCPoly) -> Scalar:
        out = ZERO
        for w, c in p.coeffs.items():
            out = out + self.pair(u_word, w) * c
        return out


def pairing(rep: Representation, u_word, t_word) -> Scalar:
    """<u, t_{i1 j1} ... t_{ik jk}> = the (i-vector, j-vector) entry of the
    action of the word u on the k-th tensor power."""
    n = rep.dim
    return PairingTable(rep, n).pair(tuple(u_word), tuple(t_word))


def check_duality(rep: Representation, space: BraidedSpace,
                  max_degree: int = 3, samples: int = 200,
                  seed: int = 0) -> Report:
    """Annihilation <u, r> = 0 for every generator word u up to the degree
    bound and every relation, plus product/coproduct compatibility of the
    pairing on seeded samples.  The multiplication-order orientation that
    holds is recorded in the report notes.  A degree bound or sample count
    below 1 is refused: the sampled items would then check nothing."""
    if max_degree < 1:
        raise ValueError(f"duality check needs max_degree >= 1, got {max_degree}")
    if samples < 1:
        raise ValueError(f"duality check needs samples >= 1, got {samples}")
    pres = frt_relations(space)
    table = PairingTable(rep, space.dim)
    gens = list(rep.presentation.generators)
    report = Report(f"finite-degree duality for {rep.name}")
    report.notes.append(pres.convention)

    rel_entries = []
    for rel in pres.relations.relations:
        entries = []
        for w, c in rel.coeffs.items():
            rows = tuple(letter // pres.n for letter in w)
            cols = tuple(letter % pres.n for letter in w)
            entries.append((len(w), word_index(rows, pres.n),
                            word_index(cols, pres.n), c))
        rel_entries.append(entries)

    words = [()]
    frontier = [()]
    for _ in range(max_degree):
        frontier = [w + (g,) for w in frontier for g in gens]
        words.extend(frontier)

    bad = 0
    witness = ""
    for u in words:
        for idx, entries in enumerate(rel_entries):
            value = ZERO
            for k, row, col, c in entries:
                x = table.action(u, k)
                value = value + x.columns[col].get(row, ZERO) * c
            if not value.is_zero():
                bad += 1
                if not witness:
                    uname = " ".join(str(g) for g in u) if u else "1"
                    witness = f"<{uname}, relation {idx + 1}> = {value}"
    report.add(
        f"annihilation <u, r> = 0 for {len(words)} words x "
        f"{len(rel_entries)} relations", bad == 0,
        "" if bad == 0 else f"{bad} non-zero pairings; first: {witness}")

    rng = random.Random(seed)
    t_letters = list(range(pres.alphabet))

    def random_u(max_len):
        return tuple(rng.choice(gens) for _ in range(rng.randint(0, max_len)))

    def random_t(max_len, min_len=0):
        return tuple(rng.choice(t_letters)
                     for _ in range(rng.randint(min_len, max_len)))

    product_plain = product_op = True
    for _ in range(samples):
        u = random_u(max_degree - 1)
        v = random_u(max_degree - 1)
        a = random_t(max_degree)
        lhs = table.pair(u + v, a)
        rhs_plain = ZERO
        rhs_op = ZERO
        for left, right in pres.coproduct_word(a):
            rhs_plain = rhs_plain + table.pair(u, left) * table.pair(v, right)
            rhs_op = rhs_op + table.pair(v, left) * table.pair(u, right)
        if lhs != rhs_plain:
            product_plain = False
        if lhs != rhs_op:
            product_op = False
    report.add(f"<uv, a> = sum <u, a1><v, a2> on {samples} samples",
               product_plain)

    coproduct_ok = True
    for _ in range(samples):
        u = random_u(max_degree)
        asplit = rng.randint(0, max_degree)
        a = random_t(asplit, asplit)
        b = random_t(max_degree - asplit, 0)
        lhs = table.pair(u, a + b)
        rhs = ZERO
        for left, right, c in rep.coalgebra().delta_word(u):
            rhs = rhs + table.pair(left, a) * table.pair(right, b) * c
        if lhs != rhs:
            coproduct_ok = False
    report.add(f"<u, ab> = sum <u1, a><u2, b> on {samples} samples",
               coproduct_ok)

    if product_plain:
        orientation = "direct (plain multiplication order)"
    elif product_op:
        orientation = "opposite multiplication order"
    else:
        orientation = "neither orientation holds"
    report.notes.append(f"multiplicativity orientation: {orientation}")
    return report

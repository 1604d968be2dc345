"""Quantized enveloping algebra presentations from Cartan data, verification
of matrix representations against the defining relations, coproduct-driven
extension of generator actions to tensor powers and quotient algebras, and
the braiding-compatibility / ideal-preservation / measuring-identity checks
that make those extensions legitimate.

The same machinery drives a classical mode in which a coalgebra with one
group-like element and primitive generators encodes Lie-algebra actions by
derivations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd

from .linalg import (BraidedSpace, Echelon, SparseOperator, SymMatrix,
                     combine, extend_braiding, invert)
from .ncalg import (DegreeBoundError, NCPoly, RelationSet, RewriteSystem,
                    vector_to_poly, word_index, word_str)
from .report import Report
from .scalar import ONE, ZERO, Scalar, q_binomial


@dataclass(frozen=True)
class Gen:
    """A presentation generator: E_i, F_i, K_i or K_i^{-1} (kind 'Ki')."""

    kind: str
    index: int

    def __str__(self) -> str:
        if self.kind == "Ki":
            return f"K{self.index + 1}^-1"
        return f"{self.kind}{self.index + 1}"

    @classmethod
    def parse(cls, name: str) -> "Gen":
        name = name.strip()
        if name.endswith("^-1") and name.startswith("K"):
            return cls("Ki", int(name[1:-3]) - 1)
        kind = name[0]
        if kind not in ("E", "F", "K"):
            raise ValueError(f"unknown generator {name!r}")
        return cls(kind, int(name[1:]) - 1)


GenWord = tuple  # tuple[Gen, ...]
GenPoly = dict  # {GenWord: Scalar}


@dataclass(frozen=True)
class CartanData:
    """A symmetrizable Cartan matrix with its symmetrizers d_i."""

    matrix: tuple
    d: tuple

    def __post_init__(self):
        a = self.matrix
        n = len(a)
        if any(len(row) != n for row in a):
            raise ValueError("Cartan matrix must be square")
        for i in range(n):
            if a[i][i] != 2:
                raise ValueError("Cartan matrix must have 2 on the diagonal")
            for j in range(n):
                if i != j:
                    if a[i][j] > 0:
                        raise ValueError("off-diagonal Cartan entries must be <= 0")
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise ValueError("zero pattern must be symmetric")
        if len(self.d) != n or any(di <= 0 for di in self.d):
            raise ValueError("symmetrizers must be positive")
        for i in range(n):
            for j in range(n):
                if self.d[i] * a[i][j] != self.d[j] * a[j][i]:
                    raise ValueError("d_i a_ij is not symmetric")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    @classmethod
    def sl(cls, n: int) -> "CartanData":
        """Type A_{n-1} data for sl_n."""
        if n < 2:
            raise ValueError("sl(n) needs n >= 2")
        rank = n - 1
        a = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
              for j in range(rank)] for i in range(rank)]
        return cls(tuple(map(tuple, a)), (1,) * rank)

    @classmethod
    def from_matrix(cls, matrix, d=None) -> "CartanData":
        matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        if d is not None:
            return cls(matrix, tuple(int(x) for x in d))
        return cls(matrix, _symmetrizers(matrix))


def _symmetrizers(a) -> tuple:
    """Minimal positive integers with (d_i a_ij) symmetric, computed per
    connected component of the Dynkin diagram."""
    n = len(a)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        component = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i != j and a[i][j] != 0:
                    # d_j a_ji = d_i a_ij
                    ratio = Fraction(a[i][j], a[j][i])
                    value = d[i] * ratio
                    if d[j] is None:
                        d[j] = value
                        queue.append(j)
                        component.append(j)
                    elif d[j] != value:
                        raise ValueError("Cartan matrix is not symmetrizable")
        denominator = 1
        for i in component:
            denominator = denominator * d[i].denominator // \
                gcd(denominator, d[i].denominator)
        values = [int(d[i] * denominator) for i in component]
        g = gcd(*values)
        for i, v in zip(component, values):
            d[i] = v // g
    return tuple(d)


class GeneratorCoalgebra:
    """The finite coalgebra spanned by the unit and the generator symbols.

    `delta[s]` lists the terms of the comultiplication of symbol s as
    (left word, right word, coefficient); the unit is the empty word and is
    implicitly group-like.  The classical mode uses primitive generators.
    Coassociativity and the counit laws are verified symbolically at
    construction.
    """

    def __init__(self, symbols, delta, counit):
        self.symbols = tuple(symbols)
        self.delta = delta
        self.counit = counit
        for report in (self.check_coassociativity(), self.check_counit()):
            if not report.passed:
                bad = ", ".join(i.name for i in report.failures())
                raise ValueError(f"invalid coalgebra tables: {bad}")

    @classmethod
    def classical(cls, symbols) -> "GeneratorCoalgebra":
        symbols = tuple(symbols)
        delta = {s: [((s,), (), ONE), ((), (s,), ONE)] for s in symbols}
        counit = {s: ZERO for s in symbols}
        return cls(symbols, delta, counit)

    def delta_word(self, word) -> list:
        terms = [((), (), ONE)]
        for s in word:
            expanded = []
            for l1, r1, c1 in terms:
                for l2, r2, c2 in self.delta[s]:
                    expanded.append((l1 + l2, r1 + r2, c1 * c2))
            terms = expanded
        return _collect_pairs(terms)

    def counit_word(self, word) -> Scalar:
        out = ONE
        for s in word:
            out = out * self.counit[s]
        return out

    def iterated_terms(self, symbol, k: int) -> list:
        """Terms of the (k-1)-fold comultiplication as (k-tuple of words,
        coefficient); requires k >= 1."""
        terms = [(((symbol,),), ONE)]
        while len(terms[0][0]) < k:
            expanded = {}
            for words, c in terms:
                for l, r, c2 in self.delta_word(words[0]):
                    _acc(expanded, (l, r) + words[1:], c * c2)
            terms = list(expanded.items())
        return terms

    def check_coassociativity(self) -> Report:
        report = Report("coassociativity")
        for s in self.symbols:
            lhs: dict = {}
            rhs: dict = {}
            for l, r, c in self.delta[s]:
                for l2, r2, c2 in self.delta_word(l):
                    _acc(lhs, (l2, r2, r), c * c2)
                for l2, r2, c2 in self.delta_word(r):
                    _acc(rhs, (l, l2, r2), c * c2)
            report.add(f"(delta x 1)delta = (1 x delta)delta on {s}", lhs == rhs)
        return report

    def check_counit(self) -> Report:
        report = Report("counit law")
        for s in self.symbols:
            left: dict = {}
            right: dict = {}
            for l, r, c in self.delta[s]:
                _acc(left, r, c * self.counit_word(l))
                _acc(right, l, c * self.counit_word(r))
            expect = {(s,): ONE}
            report.add(f"(eps x 1)delta = id on {s}", left == expect)
            report.add(f"(1 x eps)delta = id on {s}", right == expect)
        return report


def _acc(target: dict, key, value: Scalar):
    nv = target.get(key, ZERO) + value
    if nv.is_zero():
        target.pop(key, None)
    else:
        target[key] = nv


def _collect_pairs(terms) -> list:
    out: dict = {}
    for l, r, c in terms:
        _acc(out, (l, r), c)
    return [(l, r, c) for (l, r), c in out.items()]


@dataclass
class UqPresentation:
    """Generators, defining relations and Hopf tables instantiated from
    Cartan data."""

    cartan: CartanData
    generators: list
    relations: list  # [(label, GenPoly)]
    delta: dict
    counit: dict
    antipode: dict  # {Gen: GenPoly}
    q_i: list

    @property
    def rank(self) -> int:
        return self.cartan.rank

    def coalgebra(self) -> GeneratorCoalgebra:
        cached = getattr(self, "_coalgebra", None)
        if cached is None:
            cached = GeneratorCoalgebra(self.generators, self.delta,
                                        self.counit)
            self._coalgebra = cached
        return cached


def presentation_from_cartan(cartan: CartanData) -> UqPresentation:
    """Instantiate the full presentation: K/E/F commutation, the EF bracket,
    quantum Serre relations with balanced q-binomials at base q_i, and the
    Hopf structure tables."""
    n = cartan.rank
    a = cartan.matrix
    E = [Gen("E", i) for i in range(n)]
    F = [Gen("F", i) for i in range(n)]
    K = [Gen("K", i) for i in range(n)]
    Ki = [Gen("Ki", i) for i in range(n)]
    q_i = [Scalar.q_power(cartan.d[i]) for i in range(n)]
    generators = E + F + K + Ki

    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            relations.append((f"K{i + 1} K{j + 1} commute",
                              {(K[i], K[j]): ONE, (K[j], K[i]): -ONE}))
    for i in range(n):
        relations.append((f"K{i + 1} K{i + 1}^-1 = 1",
                          {(K[i], Ki[i]): ONE, (): -ONE}))
        relations.append((f"K{i + 1}^-1 K{i + 1} = 1",
                          {(Ki[i], K[i]): ONE, (): -ONE}))
    for i in range(n):
        for j in range(n):
            relations.append((
                f"K{i + 1} E{j + 1} K{i + 1}^-1 = q{i + 1}^a[{i + 1},{j + 1}] E{j + 1}",
                {(K[i], E[j], Ki[i]): ONE, (E[j],): -(q_i[i] ** a[i][j])}))
            relations.append((
                f"K{i + 1} F{j + 1} K{i + 1}^-1 = q{i + 1}^-a[{i + 1},{j + 1}] F{j + 1}",
                {(K[i], F[j], Ki[i]): ONE, (F[j],): -(q_i[i] ** (-a[i][j]))}))
    for i in range(n):
        for j in range(n):
            poly: GenPoly = {(E[i], F[j]): ONE, (F[j], E[i]): -ONE}
            if i == j:
                c = (q_i[i] - q_i[i].inverse()).inverse()
                poly.update({(K[i],): -c, (Ki[i],): c})
            relations.append((f"E{i + 1} F{j + 1} bracket", poly))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = 1 - a[i][j]
            for gens in (E, F):
                poly = {}
                for r in range(m + 1):
                    coeff = q_binomial(m, r, q_i[i])
                    if r % 2:
                        coeff = -coeff
                    word = (gens[i],) * (m - r) + (gens[j],) + (gens[i],) * r
                    poly[word] = coeff
                kind = "E" if gens is E else "F"
                relations.append((f"Serre {kind}[{i + 1},{j + 1}]", poly))

    delta = {}
    counit = {}
    antipode = {}
    for i in range(n):
        delta[E[i]] = [((E[i],), (K[i],), ONE), ((), (E[i],), ONE)]
        delta[F[i]] = [((F[i],), (), ONE), ((Ki[i],), (F[i],), ONE)]
        delta[K[i]] = [((K[i],), (K[i],), ONE)]
        delta[Ki[i]] = [((Ki[i],), (Ki[i],), ONE)]
        counit[E[i]] = ZERO
        counit[F[i]] = ZERO
        counit[K[i]] = ONE
        counit[Ki[i]] = ONE
        antipode[E[i]] = {(E[i], Ki[i]): -ONE}
        antipode[F[i]] = {(K[i], F[i]): -ONE}
        antipode[K[i]] = {(Ki[i],): ONE}
        antipode[Ki[i]] = {(K[i],): ONE}

    return UqPresentation(cartan, generators, relations, delta, counit,
                          antipode, q_i)


class ActionTable:
    """The actions of coalgebra symbols on V and, through the iterated
    coproduct, on every tensor power V^(x)k, as sparse operators.

    Products of symbol matrices on V are built once per word, and the
    extended action of a symbol once per (symbol, k), from the Kronecker
    products of the word operators in its iterated coproduct."""

    def __init__(self, coalgebra: GeneratorCoalgebra, matrices: dict,
                 dim: int):
        self.coalgebra = coalgebra
        self.matrices = matrices
        self.dim = dim
        self._words: dict = {}
        self._extended: dict = {}

    def word(self, word) -> SparseOperator:
        """The product of the matrices of `word` on V (the identity for the
        empty word)."""
        op = self._words.get(word)
        if op is None:
            if len(word) > 1:
                op = self.word(word[:-1]).compose(self.word(word[-1:]))
            elif word:
                op = SparseOperator.from_matrix(self.matrices[word[0]])
            else:
                op = SparseOperator.identity(self.dim)
            self._words[word] = op
        return op

    def extended(self, symbol, k: int) -> SparseOperator:
        """The action of `symbol` on V^(x)k through the (k-1)-fold coproduct;
        k = 0 gives the 1x1 operator of the counit."""
        key = (symbol, k)
        op = self._extended.get(key)
        if op is None:
            if k == 0:
                eps = self.coalgebra.counit[symbol]
                op = SparseOperator(1, [{} if eps.is_zero() else {0: eps}])
            elif k == 1:
                op = self.word((symbol,))
            else:
                size = self.dim ** k
                op = combine(size, size, (
                    (reduce(SparseOperator.kron, map(self.word, words)), c)
                    for words, c in self.coalgebra.iterated_terms(symbol, k)))
            self._extended[key] = op
        return op

    def act(self, uword, vec: dict, k: int) -> dict:
        """Apply a word of symbols to a vector of V^(x)k, last symbol
        first."""
        for s in reversed(uword):
            vec = self.extended(s, k).apply(vec)
        return vec


class Representation:
    """An assignment of generator symbols to matrices of equal size.  The
    K_i images must be invertible; whether the assignment annihilates the
    defining relations is the subject of check_representation."""

    def __init__(self, presentation: UqPresentation, assign: dict,
                 name: str = "representation"):
        self.presentation = presentation
        self.name = name
        assign = dict(assign)
        dims = {m.rows for m in assign.values()} | {m.cols for m in assign.values()}
        if len(dims) != 1:
            raise ValueError("all generator matrices must be square of equal size")
        self.dim = dims.pop()
        for i in range(presentation.rank):
            k = Gen("K", i)
            ki = Gen("Ki", i)
            if k not in assign:
                raise ValueError(f"missing matrix for {k}")
            if ki not in assign:
                inv = invert(assign[k])
                if inv is None:
                    raise ValueError(f"{k} matrix is not invertible")
                assign[ki] = inv
            elif assign[k] * assign[ki] != SymMatrix.identity(self.dim):
                raise ValueError(f"{ki} matrix is not inverse to {k}")
        for g in presentation.generators:
            if g not in assign:
                raise ValueError(f"missing matrix for {g}")
        self.assign = assign
        self.actions = ActionTable(presentation.coalgebra(), assign, self.dim)

    def matrix(self, gen: Gen) -> SymMatrix:
        return self.assign[gen]

    def genpoly_matrix(self, poly: GenPoly) -> SymMatrix:
        return combine(self.dim, self.dim, (
            (self.actions.word(w), c) for w, c in poly.items())).to_matrix()

    def coalgebra(self) -> GeneratorCoalgebra:
        return self.presentation.coalgebra()


def check_representation(rep: Representation) -> Report:
    """Evaluate every defining relation on the assignment; failures carry
    the non-zero residual matrix."""
    report = Report(f"defining relations in {rep.name} (dim {rep.dim})")
    for label, poly in rep.presentation.relations:
        residual = rep.genpoly_matrix(poly)
        ok = residual.is_zero()
        report.add(label, ok, "" if ok else f"residual:\n{residual}")
    return report


def generator_independence(rep: Representation) -> Report:
    """Linear independence of the identity together with the generator
    actions on V + V(x)V: the finite certificate necessary (but not
    sufficient) for faithfulness on the generating coalgebra.

    The degree-2 block matters: on V alone the unit and the K_i images can
    be dependent (for the vector representation K + K^-1 is a multiple of
    the identity), while the extended actions separate them."""
    d = rep.dim
    ech = Echelon()
    independent = True
    for g in [None] + list(rep.presentation.generators):
        if g is None:
            ops = (SparseOperator.identity(d), SparseOperator.identity(d * d))
        else:
            ops = (rep.actions.extended(g, 1), rep.actions.extended(g, 2))
        vec = {}
        offset = 0
        for op in ops:
            for j, col in enumerate(op.columns):
                for i, v in col.items():
                    vec[offset + i * op.rows + j] = v
            offset += op.rows * op.rows
        if not ech.insert(vec):
            independent = False
    report = Report("generator linear independence")
    report.add("unit and generator actions on degrees 1..2 independent",
               independent)
    report.notes.append(
        "necessary for faithfulness on the generating coalgebra; "
        "not sufficient on its own")
    return report


def coproduct_action(rep: Representation, gen: Gen, k: int) -> SymMatrix:
    """The action of a generator on the k-th tensor power, obtained from the
    (k-1)-fold coproduct; k = 0 yields the 1x1 matrix of the counit."""
    if gen not in rep.assign:
        raise ValueError(f"unknown generator {gen}")
    if k < 0:
        raise ValueError("tensor power must be non-negative")
    return rep.actions.extended(gen, k).to_matrix()


def word_action(rep: Representation, word, k: int) -> SymMatrix:
    """Action of a word of generators on the k-th tensor power (identity
    for the empty word)."""
    size = rep.dim ** k
    return SparseOperator(size, (rep.actions.act(tuple(word), {j: ONE}, k)
                                 for j in range(size))).to_matrix()


def check_preserves_R(rep: Representation, space: BraidedSpace) -> Report:
    """Per generator: the braiding commutes with the degree-2 coproduct
    action; additionally the degree-3 extensions (2,1) and (1,2) commute
    with the degree-3 action."""
    if rep.dim != space.dim:
        raise ValueError("representation and braided space dimensions differ")
    report = Report(f"braiding preserved by {rep.name}")
    for g in rep.presentation.generators:
        x = rep.actions.extended(g, 2)
        lhs, rhs = space.psi.compose(x), x.compose(space.psi)
        ok = lhs == rhs
        report.add(f"{g} commutes with braiding on degree 2", ok,
                   "" if ok else
                   f"residual:\n{lhs.to_matrix() - rhs.to_matrix()}")
    psi21 = extend_braiding(space, 2, 1).sparse
    psi12 = extend_braiding(space, 1, 2).sparse
    for g in rep.presentation.generators:
        x3 = rep.actions.extended(g, 3)
        ok = (psi21.compose(x3) == x3.compose(psi21)
              and psi12.compose(x3) == x3.compose(psi12))
        report.add(f"{g} commutes with degree-3 extensions", ok)
    return report


def act_on_quotient(rep: Representation, rs: RewriteSystem, gen: Gen,
                    word) -> NCPoly:
    """Apply a generator to a monomial of the quotient algebra and reduce to
    normal form."""
    word = tuple(word)
    k = len(word)
    if k > rs.degree_bound:
        raise DegreeBoundError(
            f"degree {k} exceeds completion bound {rs.degree_bound}")
    if rep.dim != rs.alphabet:
        raise ValueError("representation and relation alphabet sizes differ")
    if gen not in rep.assign:
        raise ValueError(f"unknown generator {gen}")
    vec = rep.actions.act((gen,), {word_index(word, rs.alphabet): ONE}, k)
    return rs.normal_form(vector_to_poly(vec, rs.alphabet, k))


def check_ideal_preserved(rep: Representation, rels: RelationSet) -> Report:
    """Membership of each generator image of each relation in the relation
    span, by reduction against its echelon basis.  An empty relation set is
    refused: it would pass without checking anything; so is a representation
    whose dimension differs from the relation alphabet."""
    if not rels.relations:
        raise ValueError("empty relation set: the check would pass without "
                         "checking anything")
    if rep.dim != rels.alphabet:
        raise ValueError("representation and relation alphabet sizes differ")
    report = Report(f"ideal preserved by {rep.name}")
    for g in rep.presentation.generators:
        x = rep.actions.extended(g, 2)
        for idx, vec in enumerate(rels.span.basis()):
            ok = rels.span.contains(x.apply(vec))
            report.add(f"{g} maps relation {idx + 1} into the span", ok)
    return report


# --- measuring checks --------------------------------------------------------


class _MeasuringContext:
    """Shared engine for the measuring identity
    sigma(c)(a a') = sum sigma(c_(1))(a) sigma(c_(2))(a'), evaluated inside
    a quotient with all sides normal-formed."""

    def __init__(self, actions: ActionTable, rs: RewriteSystem):
        if actions.dim != rs.alphabet:
            raise ValueError("matrix size must match the quotient alphabet")
        self.actions = actions
        self.coalg = actions.coalgebra
        self.rs = rs
        self.dim = actions.dim

    def act_word(self, uword, target: NCPoly) -> NCPoly:
        """Action of a word of coalgebra symbols on a quotient element: each
        homogeneous part of the target is one vector of V^(x)k."""
        grouped: dict = {}
        for w, c in target.coeffs.items():
            grouped.setdefault(len(w), {})[word_index(w, self.dim)] = c
        out = NCPoly()
        for k, vec in grouped.items():
            out = out + vector_to_poly(self.actions.act(uword, vec, k),
                                       self.dim, k)
        return out

    def measuring_residual(self, symbol, a, b):
        """Normal-formed difference LHS - RHS for monomials a, b; zero means
        the identity holds on this triple.

        The left side acts on the normal form of the product, i.e. on the
        quotient element itself; this is what makes the check sensitive to
        actions that fail to preserve the ideal."""
        product = self.rs.normal_form(NCPoly.monomial(tuple(a) + tuple(b)))
        lhs = self.rs.normal_form(self.act_word((symbol,), product))
        rhs = NCPoly()
        for l, r, c in self.coalg.delta[symbol]:
            left = self.act_word(l, NCPoly.monomial(a))
            right = self.act_word(r, NCPoly.monomial(b))
            rhs = rhs + (left * right).scale(c)
        rhs = self.rs.normal_form(rhs)
        return lhs - rhs


def _monomial_pairs(rs: RewriteSystem, max_degree: int) -> list:
    words = []
    for d in range(max_degree + 1):
        words.extend(rs.irreducible_words(d))
    return [(a, b) for a in words for b in words
            if len(a) + len(b) <= max_degree]


def _measure(report: Report, actions: ActionTable, rs: RewriteSystem,
             pairs: list, symbols, verb: str, show_residual: bool) -> Report:
    """Check the measuring identity for every (symbol, pair), one report
    item per symbol.  An empty pair list is refused: it would pass without
    checking anything."""
    if not pairs:
        raise ValueError("no monomial pairs to check; raise the degree bound "
                         "or the sample count")
    ctx = _MeasuringContext(actions, rs)
    for s in symbols:
        bad = 0
        witness = ""
        for a, b in pairs:
            residual = ctx.measuring_residual(s, a, b)
            if not residual.is_zero():
                bad += 1
                if not witness:
                    witness = (f"a={word_str(a, rs.names)} "
                               f"b={word_str(b, rs.names)}")
                    if show_residual:
                        witness += (" residual="
                                    + residual.render(rs.names, rs.order))
        report.add(f"{s} {verb} ({len(pairs)} pairs)", bad == 0,
                   "" if bad == 0 else f"{bad} counterexamples; first: {witness}")
    return report


def check_measuring(rep: Representation, rs: RewriteSystem,
                    sample_count: int = 500, max_degree: int = 4,
                    seed: int = 0) -> Report:
    """Sample the measuring identity over monomial pairs in the quotient:
    exhaustive when at most `sample_count` pairs exist, otherwise a seeded
    random sample of that size.  Raises ValueError when no pair is left or
    the sample count is negative."""
    if sample_count < 0:
        raise ValueError(
            f"measuring check needs sample_count >= 0, got {sample_count}")
    pairs = _monomial_pairs(rs, max_degree)
    exhaustive = len(pairs) <= sample_count
    if not exhaustive:
        pairs = random.Random(seed).sample(pairs, sample_count)
    report = Report(f"measuring identity for {rep.name}")
    report.notes.append(
        f"{'exhaustive over' if exhaustive else 'seeded sample of'} "
        f"{len(pairs)} monomial pairs, total degree <= {max_degree}")
    return _measure(report, rep.actions, rs, pairs,
                    rep.presentation.generators, "measures", True)


def check_derivation_measuring(lie_actions: list, rs: RewriteSystem,
                               max_degree: int = 4) -> Report:
    """Classical mode: the Leibniz rule sigma(X)(ab) = sigma(X)(a)b +
    a sigma(X)(b) for each listed matrix, exhaustively over monomial pairs.
    This is the measuring identity for primitive coalgebra generators."""
    dims = {m.rows for m in lie_actions}
    if len(dims) != 1:
        raise ValueError("action matrices must share one dimension")
    symbols = [f"X{i + 1}" for i in range(len(lie_actions))]
    actions = ActionTable(GeneratorCoalgebra.classical(symbols),
                          dict(zip(symbols, lie_actions)), dims.pop())
    pairs = _monomial_pairs(rs, max_degree)
    report = Report("derivation (Leibniz) measuring")
    report.notes.append(
        f"exhaustive over {len(pairs)} monomial pairs, total degree <= {max_degree}")
    return _measure(report, actions, rs, pairs, symbols,
                    "acts by derivations", False)


def check_antipode(rep: Representation) -> Report:
    """m(S x 1)delta(g) = eps(g) 1 evaluated in the representation."""
    pres = rep.presentation
    report = Report(f"antipode identity in {rep.name}")
    for g in pres.generators:
        acc = NCPoly()
        for l, r, c in pres.delta[g]:
            s_l = NCPoly.monomial(())
            for sym in reversed(l):
                s_l = s_l * NCPoly(pres.antipode[sym])
            acc = acc + (s_l * NCPoly.monomial(r)).scale(c)
        expected = SymMatrix.identity(rep.dim) * pres.counit[g]
        report.add(f"m(S x 1)delta({g}) = eps({g})1",
                   rep.genpoly_matrix(acc.coeffs) == expected)
    return report

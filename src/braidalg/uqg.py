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
from functools import cached_property
from math import lcm

from .linalg import (BraidedSpace, Echelon, SymMatrix, combine,
                     extend_braiding, invert, vec_add_scaled, vec_kron)
from .ncalg import (DegreeBoundError, NCPoly, RelationSet, RewriteSystem,
                    Word, index_word, vector_to_poly, word_index, word_str)
from .report import Report
from .scalar import ONE, ZERO, Scalar, q_binomial


@dataclass(frozen=True)
class Gen:
    """A presentation generator: E_i, F_i, K_i or K_i^{-1} (kind 'Ki'), its
    hash computed once, and copies and pickles rebuilt by `__init__`."""

    kind: str
    index: int

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.kind, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Gen, (self.kind, self.index)

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
    """A symmetrizable Cartan matrix with its symmetrizers d_i, derived
    from the matrix when not given.  Both are stored as tuples of ints."""

    matrix: tuple
    d: tuple | None = None

    def __post_init__(self):
        a = tuple(map(tuple, self.matrix))
        if any(type(x) is not int for row in a for x in row):
            raise TypeError("Cartan matrix entries must be integers")
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
        # the derivation divides only by entries the checks keep non-zero
        d = _symmetrizers(a) if self.d is None else tuple(self.d)
        if any(type(x) is not int for x in d):
            raise TypeError("symmetrizers must be integers")
        if len(d) != n:
            raise ValueError(
                f"need {n} symmetrizers, one per row, got {len(d)}")
        if any(di <= 0 for di in d):
            raise ValueError("symmetrizers must be positive")
        for i in range(n):
            for j in range(n):
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise ValueError("d_i a_ij is not symmetric")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "d", d)

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
        return cls(a, (1,) * rank)


def _symmetrizers(a) -> tuple:
    """Minimal positive integers with (d_i a_ij) symmetric, computed per
    connected component of the Dynkin diagram."""
    n = len(a)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        component = [start]
        for i in component:  # the list grows while it is walked
            for j in range(n):
                if i != j and a[i][j] != 0:
                    # d_j a_ji = d_i a_ij
                    value = d[i] * Fraction(a[i][j], a[j][i])
                    if d[j] is None:
                        d[j] = value
                        component.append(j)
                    elif d[j] != value:
                        raise ValueError("Cartan matrix is not symmetrizable")
        # coprime: each prime power of the lcm is the whole denominator of
        # some d_j, so that d_j comes out without the prime
        denominator = lcm(*(d[i].denominator for i in component))
        for i in component:
            d[i] = int(d[i] * denominator)
    return tuple(d)


class GeneratorCoalgebra:
    """The finite coalgebra spanned by the unit and the generator symbols.

    `delta[s]` lists the terms of the comultiplication of symbol s as
    (left word, right word, coefficient); the unit is the empty word and is
    implicitly group-like.  Both sides of the dual pairing are instances:
    the U_q generators, the primitive generators of the classical mode and
    the matrix coefficients t_ab of the FRT bialgebra.  Coassociativity and
    the counit laws are verified symbolically at construction.
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

    @classmethod
    def matrix(cls, n: int) -> "GeneratorCoalgebra":
        """The t_ab as letters a*n + b, with delta(t_ab) = sum_k t_ak (x) t_kb
        and eps(t_ab) = delta_ab."""
        letters = range(n * n)
        delta = {s: [((s - s % n + k,), (k * n + s % n,), ONE)
                     for k in range(n)] for s in letters}
        counit = {s: ONE if s // n == s % n else ZERO for s in letters}
        return cls(letters, delta, counit)

    def delta_word(self, word) -> list:
        """One term (left, right, coefficient) per choice of a term of each
        symbol; terms with equal words are not collected."""
        terms = [((), (), ONE)]
        for s in word:
            expanded = []
            for l1, r1, c1 in terms:
                for l2, r2, c2 in self.delta[s]:
                    expanded.append((l1 + l2, r1 + r2,
                                     c2 if c1 is ONE else c1 * c2))
            terms = expanded
        return terms

    def counit_word(self, word) -> Scalar:
        out = ONE
        for s in word:
            out = out * self.counit[s]
        return out

    def check_coassociativity(self) -> Report:
        report = Report("coassociativity")
        for s in self.symbols:
            lhs: dict = {}
            rhs: dict = {}
            for l, r, c in self.delta[s]:
                for l2, r2, c2 in self.delta_word(l):
                    vec_add_scaled(lhs, {(l2, r2, r): c2}, c)
                for l2, r2, c2 in self.delta_word(r):
                    vec_add_scaled(rhs, {(l, l2, r2): c2}, c)
            report.add(f"(delta x 1)delta = (1 x delta)delta on {s}", lhs == rhs)
        return report

    def check_counit(self) -> Report:
        report = Report("counit law")
        for s in self.symbols:
            left: dict = {}
            right: dict = {}
            for l, r, c in self.delta[s]:
                # a zero counit adds nothing, and vectors hold no zero entry
                if not (e := self.counit_word(l)).is_zero():
                    vec_add_scaled(left, {r: e}, c)
                if not (e := self.counit_word(r)).is_zero():
                    vec_add_scaled(right, {l: e}, c)
            expect = {(s,): ONE}
            report.add(f"(eps x 1)delta = id on {s}", left == expect)
            report.add(f"(1 x eps)delta = id on {s}", right == expect)
        return report


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

    @cached_property
    def coalgebra(self) -> GeneratorCoalgebra:
        return GeneratorCoalgebra(self.generators, self.delta, self.counit)


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
    """The actions of coalgebra symbols on V and, through the coproduct, on
    every tensor power V^(x)k, as matrices.

    `act` is the one way a word of symbols reaches V^(x)k; `operator` is its
    column-by-column matrix.  The extended action of a symbol is built once
    per (symbol, k) by one coproduct step, V^(x)k = V (x) V^(x)(k-1), one
    column at a time: column (a, b), the basis vector e_a (x) e_b, goes to
    the sum of c * (l e_a) (x) (r e_b) over the terms (l, r, c) of its
    coproduct, r e_b a column of the memoized (k-1)-st power.  No whole
    Kronecker product is formed.  Unknown symbols and negative tensor
    powers are refused with ValueError when an extended action is first
    built."""

    def __init__(self, coalgebra: GeneratorCoalgebra, matrices: dict,
                 dim: int):
        self.coalgebra = coalgebra
        self.matrices = matrices
        self.dim = dim
        self._extended: dict = {}

    def extended(self, symbol, k: int) -> SymMatrix:
        """The action of `symbol` on V^(x)k through the (k-1)-fold coproduct;
        k = 0 gives the 1x1 operator of the counit."""
        key = (symbol, k)
        op = self._extended.get(key)
        if op is None:
            if symbol not in self.matrices:
                raise ValueError(f"unknown generator {symbol}")
            if k < 0:
                raise ValueError(f"tensor power must be non-negative, got {k}")
            if k == 0:
                eps = self.coalgebra.counit[symbol]
                op = SymMatrix.from_columns(1, [{} if eps.is_zero()
                                                else {0: eps}])
            elif k == 1:
                op = self.matrices[symbol]
            else:
                op = self._coproduct_step(symbol, k)
            self._extended[key] = op
        return op

    def _coproduct_step(self, symbol, k: int) -> SymMatrix:
        """The action of `symbol` on V^(x)k, k >= 2, column by column from
        the operators of its coproduct terms on V and on V^(x)(k-1)."""
        m = self.dim ** (k - 1)
        terms = [(self.operator(l, 1).columns, self.operator(r, k - 1).columns,
                  c) for l, r, c in self.coalgebra.delta[symbol]]
        columns = []
        for left in range(self.dim):
            for right in range(m):
                col: dict = {}
                for lcols, rcols, c in terms:
                    part = vec_kron(lcols[left], rcols[right], m)
                    if col or c is not ONE:
                        vec_add_scaled(col, part, c)
                    else:
                        col = part  # a fresh dict: no copy needed
                columns.append(col)
        return SymMatrix.from_columns(self.dim * m, columns)

    def act(self, uword, vec: dict, k: int) -> dict:
        """Apply a word of symbols to a vector of V^(x)k, last symbol
        first."""
        for s in reversed(uword):
            vec = self.extended(s, k).apply(vec)
        return vec

    def operator(self, uword, k: int) -> SymMatrix:
        """The action of a word of symbols on V^(x)k (the identity for the
        empty word): the rest of the word applied by `act` to each column of
        the last symbol's extended action, whose dicts it may share."""
        if k < 0:
            raise ValueError(f"tensor power must be non-negative, got {k}")
        if not uword:
            return SymMatrix.identity(self.dim ** k)
        last = self.extended(uword[-1], k)
        return SymMatrix.from_columns(last.rows, (self.act(uword[:-1], col, k)
                                                  for col in last.columns))


class Representation:
    """An assignment of generator symbols to matrices of equal size.  The
    K_i images must be invertible; whether the assignment annihilates the
    defining relations is the subject of check_representation."""

    def __init__(self, presentation: UqPresentation, assign: dict,
                 name: str = "representation"):
        self.presentation = presentation
        self.name = name
        assign = dict(assign)
        unknown = [str(g) for g in assign if g not in presentation.generators]
        if unknown:
            raise ValueError("matrices for symbols not in the presentation: "
                             + ", ".join(unknown))
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
        self.actions = ActionTable(presentation.coalgebra, assign, self.dim)

    def matrix(self, gen: Gen) -> SymMatrix:
        return self.assign[gen]

    def genpoly_matrix(self, poly: GenPoly) -> SymMatrix:
        return combine(self.dim, self.dim, (
            (self.actions.operator(w, 1), c) for w, c in poly.items()))


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
    ech = Echelon()
    independent = True
    offset = rep.dim ** 2
    for u in [()] + [(g,) for g in rep.presentation.generators]:
        vec = rep.actions.operator(u, 1).vec()
        vec.update((offset + i, v)
                   for i, v in rep.actions.operator(u, 2).vec().items())
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
    return rep.actions.extended(gen, k)


def word_action(rep: Representation, word, k: int) -> SymMatrix:
    """Action of a word of generators on the k-th tensor power (identity
    for the empty word)."""
    return rep.actions.operator(tuple(word), k)


def check_preserves_R(rep: Representation, space: BraidedSpace) -> Report:
    """Per generator: the braiding commutes with the degree-2 coproduct
    action; additionally the degree-3 extensions (2,1) and (1,2) commute
    with the degree-3 action."""
    if rep.dim != space.dim:
        raise ValueError("representation and braided space dimensions differ")
    report = Report(f"braiding preserved by {rep.name}")
    for g in rep.presentation.generators:
        x = rep.actions.extended(g, 2)
        lhs, rhs = space.braiding * x, x * space.braiding
        ok = lhs == rhs
        report.add(f"{g} commutes with braiding on degree 2", ok,
                   "" if ok else f"residual:\n{lhs - rhs}")
    psi21 = extend_braiding(space, 2, 1)
    psi12 = extend_braiding(space, 1, 2)
    for g in rep.presentation.generators:
        x3 = rep.actions.extended(g, 3)
        ok = psi21 * x3 == x3 * psi21 and psi12 * x3 == x3 * psi12
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
    outside = [letter for letter in word if not 0 <= letter < rs.alphabet]
    if outside:
        raise ValueError(f"letters outside the alphabet: {outside}")
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
    """The measuring residuals of one check, over word indices.

    The residual of a symbol c on normal words a, b is
    NF(sigma(c)(NF(ab) - ab)): zero when the identity holds on this triple.
    The extended actions come from the coproduct, whose coassociativity and
    counit law `GeneratorCoalgebra` verifies, so the sum of
    sigma(c_(1))(a) (x) sigma(c_(2))(b) is sigma(c) on the word ab
    (Sweedler, *Hopf Algebras*, 1969, ch. VII), and the residual is sigma(c)
    on the ideal element NF(ab) - ab: the descent criterion, pair by pair.

    Vectors are sparse over the word indices of one tensor power.  The
    normal forms of words are kept, keyed by (degree, word index), for as
    long as the context lives, which is one check: no memo outlives it."""

    def __init__(self, actions: ActionTable, rs: RewriteSystem):
        self.actions = actions
        self.rs = rs
        self._normal: dict = {}

    def normal_form(self, k: int, idx: int) -> dict:
        """The normal form of the word of index `idx` in degree k."""
        key = (k, idx)
        nf = self._normal.get(key)
        if nf is None:
            n = self.actions.dim
            word = index_word(idx, n, k)
            nf = {word_index(w, n): c for w, c
                  in self.rs.normal_form_word(word).coeffs.items()}
            self._normal[key] = nf
        return nf

    def ideal_vector(self, word: Word) -> dict:
        """NF(w) - w for a product word w: empty exactly when w is
        normal, and then every symbol measures it."""
        idx = word_index(word, self.actions.dim)
        vec = dict(self.normal_form(len(word), idx))
        vec_add_scaled(vec, {idx: ONE}, -ONE)
        return vec

    def measuring_residual(self, symbol, ideal: dict, k: int) -> dict:
        """NF(sigma(symbol)(ideal)) for an ideal vector of degree k: the
        normal forms of the acted words, summed."""
        out: dict = {}
        for idx, c in self.actions.act((symbol,), ideal, k).items():
            vec_add_scaled(out, self.normal_form(k, idx), c)
        return out


def _monomial_pairs(rs: RewriteSystem, max_degree: int) -> list:
    words = [w for level in rs.irreducible_words(max_degree) for w in level]
    return [(a, b) for a in words for b in words
            if len(a) + len(b) <= max_degree]


def _measure(report: Report, actions: ActionTable, rs: RewriteSystem,
             pairs: list, symbols, verb: str, show_residual: bool) -> Report:
    """Check the measuring identity for every (symbol, pair), one report
    item per symbol.  The ideal vector of each distinct product word ab is
    built once and shared by every symbol; a normal product word passes
    for all of them at once.  A residual becomes a polynomial only when it
    is shown as the first witness.  An empty pair list is refused: it would
    pass without checking anything."""
    if not pairs:
        raise ValueError("no monomial pairs to check; raise the degree bound "
                         "or the sample count")
    if actions.dim != rs.alphabet:
        raise ValueError("matrix size must match the quotient alphabet")
    context = _MeasuringContext(actions, rs)
    words = [a + b for a, b in pairs]
    ideals = {w: vec for w in dict.fromkeys(words)
              if (vec := context.ideal_vector(w))}
    for s in symbols:
        residuals = {w: context.measuring_residual(s, vec, len(w))
                     for w, vec in ideals.items()}
        failing = [(a, b, w) for (a, b), w in zip(pairs, words)
                   if residuals.get(w)]
        detail = ""
        if failing:
            a, b, w = failing[0]
            detail = (f"{len(failing)} counterexamples; first: "
                      f"a={word_str(a, rs.names)} b={word_str(b, rs.names)}")
            if show_residual:
                residual = vector_to_poly(residuals[w], rs.alphabet, len(w))
                detail += " residual=" + residual.render(rs.names)
        report.add(f"{s} {verb} ({len(pairs)} pairs)", not failing, detail)
    return report


def check_measuring(rep: Representation, rs: RewriteSystem,
                    sample_count: int = 500, max_degree: int = 4,
                    seed: int = 0) -> Report:
    """Sample the measuring identity over monomial pairs in the quotient:
    exhaustive when at most `sample_count` pairs exist, otherwise a seeded
    random sample of that size.  Raises ValueError when no pair is left or
    the sample count is negative, and DegreeBoundError when `max_degree`
    exceeds the completion bound of `rs`."""
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
    This is the measuring identity for primitive coalgebra generators.
    Matrices that are not square of one size are refused with ValueError."""
    dims = {m.rows for m in lie_actions} | {m.cols for m in lie_actions}
    if len(dims) != 1:
        raise ValueError("action matrices must be square of one dimension")
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

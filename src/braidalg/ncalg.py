"""Noncommutative polynomials in ordered generators, quadratic relation
sets, bounded-degree overlap completion of rewrite systems, normal forms and
graded dimensions of quotients of tensor algebras.

Words are tuples of 0-based generator indices.  The monomial order is
degree-lexicographic with a declared variable precedence (default: lower
index = higher precedence, so relations orient as x_i x_j -> c x_j x_i for
i < j).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .linalg import Echelon, SparseOperator, combine
from .scalar import ONE, ZERO, Scalar, join_terms

Word = tuple


class DegreeBoundError(ValueError):
    """A normal form was requested beyond the completion degree bound."""


class WordOrder:
    """Degree-lexicographic order on words with a variable precedence.

    `precedence[r]` is the variable with rank r (rank 0 highest).  The sort
    key is ordered so that smaller keys mean greater words.
    """

    def __init__(self, alphabet: int, precedence=None):
        if precedence is None:
            precedence = tuple(range(alphabet))
        precedence = tuple(precedence)
        if sorted(precedence) != list(range(alphabet)):
            raise ValueError("precedence must be a permutation of the alphabet")
        self.alphabet = alphabet
        self.precedence = precedence
        self._rank = [0] * alphabet
        for r, v in enumerate(precedence):
            self._rank[v] = r

    def key(self, word: Word):
        return (-len(word), tuple(self._rank[i] for i in word))

    def greater(self, a: Word, b: Word) -> bool:
        return self.key(a) < self.key(b)

    def leading(self, coeffs: dict) -> Word:
        return min(coeffs, key=self.key)

    def sorted_words(self, words) -> list:
        """Words in decreasing order."""
        return sorted(words, key=self.key)


class NCPoly:
    """A noncommutative polynomial: a map word -> Scalar with no zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for w, v in coeffs.items():
                if not v.is_zero():
                    c[tuple(w)] = v
        self.coeffs = c

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    @classmethod
    def monomial(cls, word, coeff: Scalar = ONE) -> "NCPoly":
        return cls({tuple(word): coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(len(w) for w in self.coeffs)

    def is_homogeneous(self, d: int | None = None) -> bool:
        lengths = {len(w) for w in self.coeffs}
        if d is not None:
            return lengths <= {d}
        return len(lengths) <= 1

    def __add__(self, other: "NCPoly") -> "NCPoly":
        c = dict(self.coeffs)
        for w, v in other.coeffs.items():
            nv = c.get(w, ZERO) + v
            if nv.is_zero():
                c.pop(w, None)
            else:
                c[w] = nv
        out = NCPoly.__new__(NCPoly)
        out.coeffs = c
        return out

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + other.scale(-ONE)

    def __neg__(self) -> "NCPoly":
        return self.scale(-ONE)

    def scale(self, c: Scalar) -> "NCPoly":
        if c.is_zero():
            return NCPoly()
        out = NCPoly.__new__(NCPoly)
        out.coeffs = {w: v * c for w, v in self.coeffs.items()}
        return out

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        c: dict = {}
        for wa, va in self.coeffs.items():
            for wb, vb in other.coeffs.items():
                w = wa + wb
                nv = c.get(w, ZERO) + va * vb
                if nv.is_zero():
                    c.pop(w, None)
                else:
                    c[w] = nv
        out = NCPoly.__new__(NCPoly)
        out.coeffs = c
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def render(self, names, order: WordOrder | None = None) -> str:
        words = (order.sorted_words(self.coeffs) if order
                 else sorted(self.coeffs, key=lambda w: (len(w), w)))
        return join_terms((self.coeffs[w], word_str(w, names)) for w in words)

    def __repr__(self) -> str:
        return f"NCPoly({self.coeffs!r})"


def word_str(word, names) -> str:
    """A monomial as its generator names, '1' for the empty word."""
    return " ".join(names[i] for i in word) if word else "1"


def default_names(alphabet: int) -> list[str]:
    return [f"x{i + 1}" for i in range(alphabet)]


class RelationSet:
    """The homogeneous degree-2 relations spanning a subspace R of V (x) V,
    kept as the reduced echelon basis of R.

    `span` is the `linalg.Echelon` of R over the flattened word indices
    w[0] * alphabet + w[1]; its lowest-index pivot is the leading word.
    `relations` reads that basis as polynomials: each relation is monic in
    its leading word, leading words are distinct, and no relation's leading
    word occurs in another relation.  The basis depends only on R, not on
    the order or the choice of the relations given.
    """

    def __init__(self, alphabet: int, relations, names=None):
        self.alphabet = alphabet
        self.order = WordOrder(alphabet)
        self.names = list(names) if names else default_names(alphabet)
        self.span = Echelon()
        for rel in relations:
            if not rel.is_homogeneous(2):
                raise ValueError("relations must be homogeneous of degree 2")
            self.span.insert({w[0] * alphabet + w[1]: c
                              for w, c in rel.coeffs.items()})

    @classmethod
    def spanned_by(cls, alphabet: int, vectors, names=None) -> "RelationSet":
        """The relation set spanned by sparse vectors over the flattened
        degree-2 word indices."""
        out = cls(alphabet, (), names)
        for vec in vectors:
            out.span.insert(vec)
        return out

    @cached_property
    def relations(self) -> list[NCPoly]:
        return [vector_to_poly(vec, self.alphabet, 2)
                for vec in self.span.basis()]

    def __len__(self) -> int:
        return self.span.rank

    def render(self) -> list[str]:
        """Paper-style equations `lead = -(rest)`, ordered by leading word."""
        lines = []
        for rel in self.relations:
            lead = self.order.leading(rel.coeffs)
            rest = NCPoly({w: -c for w, c in rel.coeffs.items() if w != lead})
            lines.append(f"{word_str(lead, self.names)} = "
                         f"{rest.render(self.names, self.order)}")
        return lines


def relations_from_image(space, f: list[Scalar]) -> RelationSet:
    """The relations spanning f(braiding)(V (x) V), in x_1..x_n.  `f` is
    given by ascending coefficients."""
    psi = space.psi
    power = SparseOperator.identity(psi.rows)
    terms = []
    for k, c in enumerate(f):
        if k:
            power = psi.compose(power)
        terms.append((power, c))
    image = combine(psi.rows, psi.rows, terms)
    return RelationSet.spanned_by(space.dim, image.columns)


@dataclass
class CompletionLog:
    """What bounded completion did, per degree."""

    degree_bound: int
    rules_added: dict[int, int] = field(default_factory=dict)


class RewriteSystem:
    """Oriented rules leading-word -> lower polynomial, overlap-completed
    through a degree bound.  Normal forms are certified only up to that
    bound.

    Construction is sequential; once built, normal_form and the word
    enumerators are pure (the internal normal-form memo only ever stores
    deterministic values, so concurrent use is safe)."""

    def __init__(self, relations: RelationSet, degree_bound: int,
                 rules: dict, log: CompletionLog):
        self.relations = relations
        self.alphabet = relations.alphabet
        self.order = relations.order
        self.names = relations.names
        self.degree_bound = degree_bound
        self.rules = rules
        self.log = log
        self._nf_cache: dict[Word, NCPoly] = {}
        self._lengths = sorted({len(w) for w in rules}) if rules else []

    def certified(self, degree: int) -> bool:
        return degree <= self.degree_bound

    def reducible_at(self, word: Word, pos: int) -> Word | None:
        for ell in self._lengths:
            if pos + ell <= len(word) and word[pos:pos + ell] in self.rules:
                return word[pos:pos + ell]
        return None

    def normal_form_word(self, word: Word) -> NCPoly:
        word = tuple(word)
        if len(word) > self.degree_bound:
            raise DegreeBoundError(
                f"degree {len(word)} exceeds completion bound {self.degree_bound}")
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        result = None
        for pos in range(len(word)):
            lhs = self.reducible_at(word, pos)
            if lhs is None:
                continue
            prefix, suffix = word[:pos], word[pos + len(lhs):]
            acc = NCPoly()
            for w, c in self.rules[lhs].coeffs.items():
                acc = acc + self.normal_form_word(prefix + w + suffix).scale(c)
            result = acc
            break
        if result is None:
            result = NCPoly.monomial(word)
        self._nf_cache[word] = result
        return result

    def normal_form(self, p: NCPoly) -> NCPoly:
        out = NCPoly()
        for w, c in p.coeffs.items():
            out = out + self.normal_form_word(w).scale(c)
        return out

    def irreducible_words(self, degree: int) -> list[Word]:
        """All irreducible words of the given degree, lexicographically by
        index sequence."""
        out: list[Word] = []

        def extend(word: Word):
            if len(word) == degree:
                out.append(word)
                return
            for letter in range(self.alphabet):
                cand = word + (letter,)
                tail_ok = all(
                    cand[-ell:] not in self.rules
                    for ell in self._lengths if ell <= len(cand))
                if tail_ok:
                    extend(cand)

        extend(())
        return out


def complete_rewrite(relations: RelationSet, max_degree: int) -> RewriteSystem:
    """Resolve all overlap ambiguities among the oriented relations through
    `max_degree`; unresolved overlaps become new rules of the overlap's
    degree.  Deterministic under the declared order."""
    if max_degree < 2:
        raise ValueError("completion degree bound must be at least 2")
    order = relations.order
    rules: dict[Word, NCPoly] = {}
    for rel in relations.relations:
        lead = order.leading(rel.coeffs)
        rhs = NCPoly({w: -c for w, c in rel.coeffs.items() if w != lead})
        rules[lead] = rhs
    log = CompletionLog(degree_bound=max_degree)
    rs = RewriteSystem(relations, max_degree, rules, log)

    def renormalize_rhs():
        changed = True
        while changed:
            changed = False
            for lead in list(rules):
                rs._nf_cache.clear()
                nf = rs.normal_form(rules[lead])
                if nf.coeffs != rules[lead].coeffs:
                    rules[lead] = nf
                    changed = True
        rs._nf_cache.clear()

    for degree in range(3, max_degree + 1):
        while True:
            new_rules = []
            for u in order.sorted_words(rules):
                for v in order.sorted_words(rules):
                    for ell in range(1, min(len(u), len(v))):
                        if len(u) + len(v) - ell != degree:
                            continue
                        if u[len(u) - ell:] != v[:ell]:
                            continue
                        prefix = u[:len(u) - ell]
                        suffix = v[ell:]
                        left = rules[u] * NCPoly.monomial(suffix)
                        right = NCPoly.monomial(prefix) * rules[v]
                        s = rs.normal_form(left - right)
                        if not s.is_zero():
                            new_rules.append(s)
            if not new_rules:
                break
            for s in new_rules:
                s = rs.normal_form(s)
                if s.is_zero():
                    continue
                lead = order.leading(s.coeffs)
                rhs = (s - NCPoly.monomial(lead, s.coeffs[lead])) \
                    .scale(-s.coeffs[lead].inverse())
                rules[lead] = rhs
                log.rules_added[degree] = log.rules_added.get(degree, 0) + 1
                rs._lengths = sorted({len(w) for w in rules})
                rs._nf_cache.clear()
            renormalize_rhs()
    rs._lengths = sorted({len(w) for w in rules}) if rules else []
    rs._nf_cache.clear()
    return rs


def hilbert(rs: RewriteSystem, max_degree: int) -> list[int]:
    """Graded dimensions of the quotient for degrees 0..max_degree.  Degrees
    beyond the completion bound fall back to the linear-algebra quotient
    oracle, which is exact regardless of confluence."""
    certified = min(max_degree, rs.degree_bound)
    dims = [len(rs.irreducible_words(d)) for d in range(certified + 1)]
    if max_degree > certified:
        dims += hilbert_oracle(rs.relations, max_degree)[certified + 1:]
    return dims


def hilbert_oracle(relations: RelationSet, max_degree: int) -> list[int]:
    """Graded dimensions computed by rank over the full degree-d component:
    dim_d = n**d - dim( sum_i V**i (x) rel (x) V**(d-2-i) )."""
    n = relations.alphabet
    rel_vecs = relations.span.basis()
    dims = []
    for d in range(max_degree + 1):
        if d < 2:
            dims.append(n ** d)
            continue
        ech = Echelon()
        for i in range(d - 1):
            right_len = d - 2 - i
            for left_idx in range(n ** i):
                base_left = left_idx * (n ** (d - i))
                for right_idx in range(n ** right_len):
                    for rel in rel_vecs:
                        vec = {}
                        for mid_idx, c in rel.items():
                            full = base_left + mid_idx * (n ** right_len) + right_idx
                            vec[full] = c
                        ech.insert(vec)
        dims.append(n ** d - ech.rank)
    return dims


def word_index(word: Word, alphabet: int) -> int:
    idx = 0
    for letter in word:
        idx = idx * alphabet + letter
    return idx


def index_word(idx: int, alphabet: int, length: int) -> Word:
    out = []
    for _ in range(length):
        idx, r = divmod(idx, alphabet)
        out.append(r)
    return tuple(reversed(out))


def vector_to_poly(vec: dict, alphabet: int, length: int) -> NCPoly:
    return NCPoly({index_word(idx, alphabet, length): c
                   for idx, c in vec.items()})

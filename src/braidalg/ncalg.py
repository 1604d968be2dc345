"""Noncommutative polynomials in ordered generators, quadratic relation
sets, bounded-degree overlap completion of rewrite systems, normal forms and
graded dimensions of quotients of tensor algebras.

Words are tuples of 0-based generator indices.  One rule picks leading
words: relations and rewrite rules are rows of an `Echelon` over words, and
a row's pivot, its lowest word, is its leading word.  All of them are
homogeneous, so this is degree-lexicographic order with lower indices ranked
higher, and relations orient as x_i x_j -> c x_j x_i for i < j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .linalg import Echelon, eval_poly_at_matrix, vec_add_scaled
from .scalar import ONE, Scalar, join_terms

Word = tuple


class DegreeBoundError(ValueError):
    """A normal form was requested beyond the completion degree bound."""


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
    def monomial(cls, word, coeff: Scalar = ONE) -> "NCPoly":
        return cls({tuple(word): coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_homogeneous(self, d: int) -> bool:
        return all(len(w) == d for w in self.coeffs)

    @classmethod
    def _of(cls, coeffs: dict) -> "NCPoly":
        """The polynomial of a dict that holds no zero coefficient."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    def __add__(self, other: "NCPoly") -> "NCPoly":
        c = dict(self.coeffs)
        vec_add_scaled(c, other.coeffs, ONE)
        return NCPoly._of(c)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly._of({w: -v for w, v in self.coeffs.items()})

    def scale(self, c: Scalar) -> "NCPoly":
        if c.is_zero():
            return NCPoly()
        return NCPoly._of({w: v * c for w, v in self.coeffs.items()})

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        c: dict = {}
        for wa, va in self.coeffs.items():
            vec_add_scaled(c, {wa + wb: vb for wb, vb in other.coeffs.items()},
                           va)
        return NCPoly._of(c)

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def render(self, names) -> str:
        """The terms in decreasing degree-lexicographic order."""
        words = sorted(self.coeffs, key=lambda w: (-len(w), w))
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
    w[0] * alphabet + w[1].  `relations` reads that basis as polynomials: a
    row's pivot, its lowest word, is its leading word, so each relation is
    monic in its leading word, leading words are distinct, and no relation's
    leading word occurs in another relation.  The basis depends only on R,
    not on the order or the choice of the relations given.

    `names` print the generators (default x1..xn).  They must be distinct,
    non-empty and free of whitespace, so that a printed word splits back
    into its letters; otherwise `ValueError` is raised, as it is for a
    letter outside the alphabet.
    """

    def __init__(self, alphabet: int, relations, names=None):
        self.alphabet = alphabet
        self.names = list(names) if names else default_names(alphabet)
        if (len(self.names) != alphabet or len(set(self.names)) != alphabet
                or any(not name or any(ch.isspace() for ch in name)
                       for name in self.names)):
            raise ValueError(
                f"relation names must be {alphabet} distinct non-empty "
                f"strings without whitespace, got {self.names!r}")
        self.span = Echelon()
        for rel in relations:
            if not rel.is_homogeneous(2):
                raise ValueError("relations must be homogeneous of degree 2")
            outside = sorted({letter for w in rel.coeffs for letter in w
                              if not 0 <= letter < alphabet})
            if outside:
                raise ValueError(f"letters outside the alphabet: {outside}")
            self.span.insert({w[0] * alphabet + w[1]: c
                              for w, c in rel.coeffs.items()})

    @classmethod
    def spanned_by(cls, alphabet: int, vectors, names=None) -> "RelationSet":
        """The relation set spanned by sparse vectors over the flattened
        degree-2 word indices 0..alphabet**2 - 1; any other index raises
        `ValueError`, naming the first such vector in the given order.

        The vectors are inserted cheapest first: in a stable order by how
        many of their coefficients are not a single term c*q**k, so the
        rows that seed the echelon cost few canonicalisations.  The basis
        cannot change: every pivot row's lowest index is its pivot and no
        row holds another row's pivot, so `Echelon` always ends at the
        unique reduced echelon form of the span, whatever the order."""
        out = cls(alphabet, (), names)
        size = alphabet * alphabet
        vectors = list(vectors)
        for vec in vectors:
            outside = [i for i in vec if not 0 <= i < size]
            if outside:
                raise ValueError(f"relation vector indices outside "
                                 f"0..{size - 1}: {outside}")
        for vec in sorted(vectors, key=_non_monomial_count):
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
            lead, rest = _oriented(rel.coeffs)
            lines.append(f"{word_str(lead, self.names)} = "
                         f"{rest.render(self.names)}")
        return lines


def _oriented(coeffs: dict) -> tuple[Word, NCPoly]:
    """An echelon row monic in its lowest word, as (lead, -(the rest))."""
    lead = min(coeffs)
    return lead, NCPoly._of({w: -c for w, c in coeffs.items() if w != lead})


def _non_monomial_count(vec: dict) -> int:
    return sum(c.as_monomial() is None for c in vec.values())


def relations_from_image(space, f: list[Scalar]) -> RelationSet:
    """The relations spanning f(braiding)(V (x) V), in x_1..x_n.  `f` is
    given by ascending coefficients."""
    return RelationSet.spanned_by(
        space.dim, eval_poly_at_matrix(f, space.braiding).columns)


@dataclass
class CompletionLog:
    """What bounded completion did, per degree."""

    rules_added: dict[int, int] = field(default_factory=dict)


class RewriteSystem:
    """Oriented rules leading-word -> lower polynomial, overlap-completed
    through a degree bound.  Normal forms are certified only up to that
    bound.

    Construction is sequential; once built, normal_form and the word
    enumerators leave the rules unchanged and memoize normal forms."""

    def __init__(self, relations: RelationSet, degree_bound: int,
                 rules: dict, log: CompletionLog):
        self.relations = relations
        self.alphabet = relations.alphabet
        self.names = relations.names
        self.degree_bound = degree_bound
        self.rules = rules
        self.log = log
        self._nf_cache: dict[Word, NCPoly] = {}
        self._lengths = sorted({len(w) for w in rules})

    def certified(self, degree: int) -> bool:
        return degree <= self.degree_bound

    def normal_form_word(self, word: Word) -> NCPoly:
        word = tuple(word)
        if len(word) > self.degree_bound:
            raise DegreeBoundError(
                f"degree {len(word)} exceeds completion bound {self.degree_bound}")
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        # rewrite the leftmost factor that is a leading word; a window that
        # runs past the end is skipped, as its shorter slice was tried first
        n = len(word)
        for pos, ell in product(range(n), self._lengths):
            if pos + ell <= n and (lhs := word[pos:pos + ell]) in self.rules:
                acc: dict = {}
                for w, c in self.rules[lhs].coeffs.items():
                    vec_add_scaled(acc, self.normal_form_word(
                        word[:pos] + w + word[pos + ell:]).coeffs, c)
                result = NCPoly._of(acc)
                break
        else:
            result = NCPoly.monomial(word)
        self._nf_cache[word] = result
        return result

    def normal_form(self, p: NCPoly) -> NCPoly:
        out: dict = {}
        for w, c in p.coeffs.items():
            vec_add_scaled(out, self.normal_form_word(w).coeffs, c)
        return NCPoly._of(out)

    def irreducible_words(self, max_degree: int) -> list[list[Word]]:
        """The irreducible words of degrees 0..max_degree, each degree in
        lexicographic order; `DegreeBoundError` past the completion bound,
        where they need not be a basis.  Degree d extends degree d - 1 by the
        letters ending no leading word, once per (longest lead - 1)-suffix."""
        if max_degree > self.degree_bound:
            raise DegreeBoundError(f"degree {max_degree} exceeds completion "
                                   f"bound {self.degree_bound}")
        keep = max(self._lengths, default=1) - 1
        allowed: dict[Word, list[int]] = {}
        levels: list[list[Word]] = [[()]]
        for _ in range(max_degree):
            words = []
            for word in levels[-1]:
                tail = word[max(len(word) - keep, 0):]
                if tail not in allowed:
                    allowed[tail] = [a for a in range(self.alphabet) if not any(
                        (tail + (a,))[-ell:] in self.rules
                        for ell in self._lengths)]
                words.extend(word + (a,) for a in allowed[tail])
            levels.append(words)
        return levels[:max_degree + 1]


def complete_rewrite(relations: RelationSet, max_degree: int) -> RewriteSystem:
    """The reduced rewrite system of the quotient through `max_degree`:
    each relation oriented as leading word -> minus the rest, plus the rules
    that resolve every overlap ambiguity up to that degree.  Deterministic.

    All rules are homogeneous, so the overlaps of degree d involve only rules
    of lower degree, and a rule of degree d makes no overlap of degree d.
    Each degree d is therefore one elimination: the normal forms, under the
    rules of lower degree, of all overlap differences of degree d go into
    one `Echelon` over words, whose lowest word is the leading word.  Each
    pivot row is a rule lead -> -(rest of the row); fully reduced, the rows
    are the unique reduced rules of degree d (Bergman, The diamond lemma for
    ring theory, 1978).

    The relation y x = x y + x^2 orients as x x -> y x - x y, and its
    overlap x x x is not resolved by it, so completion adds one rule per
    degree:

    >>> rel = NCPoly({(1, 0): ONE, (0, 1): -ONE, (0, 0): -ONE})
    >>> rs = complete_rewrite(RelationSet(2, [rel], names=["x", "y"]), 4)
    >>> rs.log.rules_added
    {3: 1, 4: 1}
    >>> [word_str(w, rs.names) for w in rs.rules]
    ['x x', 'x y x', 'x y y x']
    """
    if max_degree < 2:
        raise ValueError("completion degree bound must be at least 2")
    rules = dict(_oriented(rel.coeffs) for rel in relations.relations)
    rs = RewriteSystem(relations, max_degree, rules, CompletionLog())
    for degree in range(3, max_degree + 1):
        # leads by (proper prefix, letters after it): a lead v sharing the
        # prefix u[-ell:] overlaps u in a word of degree len(u) + |v[ell:]|
        starts: dict[tuple, list[Word]] = {}
        for v in rules:
            for ell in range(1, len(v)):
                starts.setdefault((v[:ell], len(v) - ell), []).append(v)
        ech = Echelon()
        for u, rhs_u in rules.items():
            for ell in range(1, len(u)):
                for v in starts.get((u[-ell:], degree - len(u)), ()):
                    diff = (rhs_u * NCPoly.monomial(v[ell:])
                            - NCPoly.monomial(u[:-ell]) * rules[v])
                    ech.insert(rs.normal_form(diff).coeffs)
        if ech.rank:
            rules.update(map(_oriented, ech.basis()))
            rs.log.rules_added[degree] = ech.rank
            rs._lengths = sorted({len(w) for w in rules})
            rs._nf_cache.clear()
    return rs


def hilbert(rs: RewriteSystem, max_degree: int) -> list[int]:
    """Graded dimensions of the quotient for degrees 0..max_degree: the
    irreducible words of one enumeration through the completion bound, then
    the linear-algebra quotient oracle, exact regardless of confluence."""
    certified = min(max_degree, rs.degree_bound)
    dims = [len(words) for words in rs.irreducible_words(certified)]
    if max_degree > certified:
        dims += hilbert_oracle(rs.relations, max_degree)[certified + 1:]
    return dims


class _UnitPivotEchelon(Echelon):
    """Pivots on the lowest index whose coefficient is +-q**k, if any, so
    that rows stay in Z[q, q^-1] more often; for rank-only use."""

    def choose_pivot(self, res: dict) -> int:
        units = [i for i, v in res.items()
                 if (m := v.as_monomial()) is not None and m[1] in (1, -1)]
        return min(units or res)


def hilbert_oracle(relations: RelationSet, max_degree: int) -> list[int]:
    """Graded dimensions of T(V)/I for degrees 0..max_degree by rank alone
    (Polishchuk-Positselski, Quadratic Algebras, ch. 1).  As I_d = I_{d-1}
    (x) V + V**(d-2) (x) R and I_{d-2} (x) R lies in I_{d-1} (x) V, A_d is
    A_{d-1} (x) V modulo the sum c_ab pi_{d-1}(s a) (x) b for each standard
    word s of degree d-2 and relation sum c_ab x_a x_b; its non-pivot words
    t b are the standard words of degree d.  No word order, completion or
    rewriting enters, so the result checks `hilbert` independently."""
    n = relations.alphabet
    rels = [[(*divmod(i, n), c) for i, c in vec.items()]
            for vec in relations.span.basis()]
    standard = [[0], list(range(n))]    # word indices of bases of A_0, A_1
    prev = _UnitPivotEchelon()          # degree 1: V, no relations
    for _ in range(2, max_degree + 1):
        ech = _UnitPivotEchelon()
        for s in standard[-2]:
            # pi[a] is pi_{d-1}(s a), its words shifted to make room for b
            pi = [{t * n: v for t, v in prev.reduce({s * n + a: ONE}).items()}
                  for a in range(n)]
            for rel in rels:
                vec: dict = {}
                for a, b, c in rel:
                    shifted = {t + b: v for t, v in pi[a].items()}
                    vec_add_scaled(vec, shifted, c)
                ech.insert(vec)
        words = (t * n + b for t in standard[-1] for b in range(n))
        standard.append([w for w in words if w not in ech.pivot_rows])
        prev = ech
    return [len(words) for words in standard[:max_degree + 1]]


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

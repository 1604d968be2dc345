"""`complete_rewrite` against the fixpoint completion it replaced
(`oracles.completion_reference`) and against the diamond lemma (Bergman
1978): the rules are the same, they are reduced, and the graded dimensions
they give equal the rank oracle and the rank modulo a prime.  The irreducible
words are checked against a brute-force filter of all words."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from braidalg import builtin_sl
from braidalg.builtin import (adjoint_sl2, classical_space,
                              sp4_symmetric_relations)
from braidalg.frt import frt_relations
from braidalg.ncalg import (NCPoly, RelationSet, complete_rewrite, hilbert,
                            hilbert_oracle, relations_from_image)
from braidalg.scalar import ONE, parse_poly, parse_scalar

from oracles import completion_reference, modular_hilbert

_POOL = [parse_scalar(s) for s in
         ("1", "-1", "q", "-q^-2", "q^3", "2", "-3*q", "q + 1", "q - q^-1",
          "1/(q + 1)", "(q^2 - 1)/(2*q)")]


def _subwords(word) -> set:
    return {word[i:j] for i in range(len(word))
            for j in range(i + 1, len(word) + 1)}


def _check_completion(relations: RelationSet, bound: int):
    rs = complete_rewrite(relations, bound)
    rules, added = completion_reference(relations, bound)
    assert rs.rules == rules
    assert rs.log.rules_added == added
    leads = set(rs.rules)
    for lead, rhs in rs.rules.items():
        assert all(not _subwords(w) & leads for w in rhs.coeffs), lead
        assert not (_subwords(lead) - {lead}) & leads, lead
    dims = hilbert(rs, bound)
    assert dims == hilbert_oracle(relations, bound)
    assert dims == modular_hilbert(relations, bound, seed=bound)


@st.composite
def _relation_sets(draw):
    """(relations, completion bound): two letters through degree 5, three
    letters through degree 4."""
    n = draw(st.integers(2, 3))
    bound = draw(st.integers(3, 5 if n == 2 else 4))
    words = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    rels = draw(st.lists(st.dictionaries(words, st.sampled_from(_POOL),
                                         min_size=1, max_size=3),
                         min_size=1, max_size=3))
    return RelationSet(n, [NCPoly(rel) for rel in rels]), bound


@settings(max_examples=40, deadline=None)
@given(case=_relation_sets())
def test_completion_of_random_quadratic_relations(case):
    _check_completion(*case)


def _rules(alphabet: int, rules: dict) -> RelationSet:
    """The relations lhs - rhs of rules {lhs: [(coefficient, word), ...]},
    words in 0-based letters, coefficients as text."""
    return RelationSet(alphabet, [
        NCPoly({lhs: ONE} | {w: -parse_scalar(c) for c, w in rhs})
        for lhs, rhs in rules.items()])


_BUILTIN = {
    "sl:3 x + q^-1": lambda: relations_from_image(builtin_sl(3)[1],
                                                  parse_poly("x + q^-1")),
    "sl:2 frt": lambda: frt_relations(builtin_sl(2)[1]).relations,
    "adjoint x - q^2": lambda: relations_from_image(adjoint_sl2()[1],
                                                    parse_poly("x - q^2")),
    "sp4": sp4_symmetric_relations,
    "plane x - 1": lambda: relations_from_image(classical_space(2),
                                                parse_poly("x - 1")),
    # y x = x y + x^2: one new rule per degree
    "non-confluent": lambda: RelationSet(
        2, [NCPoly({(1, 0): ONE, (0, 1): -ONE, (0, 0): -ONE})]),
    # rational coefficients whose gcds swelled under Euclid over Q
    "three-letter rational": lambda: _rules(3, {
        (0, 0): [("1/2*q^-2", (1, 0)), ("-1/2*q - 1/2", (1, 2))],
        (0, 1): [("1/3 - 1/3*q^-2", (2, 0)), ("1/3*q - 2/3*q^-1", (2, 1))],
        (1, 1): [("-1/(q + 1)", (1, 2))]}),
}


@pytest.mark.parametrize("case, bound", [
    ("sl:3 x + q^-1", 5), ("sl:2 frt", 4), ("adjoint x - q^2", 5),
    ("sp4", 6), ("plane x - 1", 6), ("non-confluent", 6),
    ("three-letter rational", 4)])
def test_completion_of_builtin_relations(case, bound):
    _check_completion(_BUILTIN[case](), bound)


def _check_irreducible_words(rs, max_degree: int):
    """Each degree of `irreducible_words` is the lexicographic list of all
    words with no leading word as a factor."""
    levels = rs.irreducible_words(max_degree)
    assert len(levels) == max_degree + 1
    leads = set(rs.rules)
    for d, words in enumerate(levels):
        assert words == [w for w in product(range(rs.alphabet), repeat=d)
                         if not _subwords(w) & leads], d


@settings(max_examples=40, deadline=None)
@given(case=_relation_sets())
def test_irreducible_words_of_random_quadratic_relations(case):
    relations, bound = case
    _check_irreducible_words(complete_rewrite(relations, bound), bound)


@pytest.mark.parametrize("relations, bound", [
    (_BUILTIN["non-confluent"](), 6),   # leads of lengths 2 through 6
    (_BUILTIN["three-letter rational"](), 4),
    (RelationSet(2, []), 5),
    (RelationSet(3, []), 3)], ids=["non-confluent", "three-letter rational",
                                   "free 2", "free 3"])
def test_irreducible_words_of_completed_systems(relations, bound):
    _check_irreducible_words(complete_rewrite(relations, bound), bound)

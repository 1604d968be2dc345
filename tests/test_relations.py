"""A relation set is the reduced echelon basis of its span: it does not
depend on the order or the choice of the relations that span it."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from braidalg.builtin import adjoint_sl2, builtin_sl, sp4_symmetric_relations
from braidalg.fixtures import relations_from_fixture
from braidalg.frt import frt_relations
from braidalg.ncalg import (NCPoly, RelationSet, complete_rewrite, index_word,
                            relations_from_image, word_str)
from braidalg.scalar import ONE, Q, parse_poly

# x2x1 - x2x2 and x1x2 + x2x1: the second relation's other word is the
# first one's leading word
_A = NCPoly({(1, 0): ONE, (1, 1): -ONE})
_B = NCPoly({(0, 1): ONE, (1, 0): ONE})


def _cases():
    out = []
    for n in (2, 3):
        _, space = builtin_sl(n)
        for poly in ("x - q", "x + q^-1"):
            out.append(relations_from_image(space, parse_poly(poly)))
    out.append(sp4_symmetric_relations())
    out.append(frt_relations(builtin_sl(2)[1]).relations)
    return out


CASES = _cases()


def _assert_reduced(rels: RelationSet):
    """Monic, distinct leading words, and no leading word in another
    relation, read off the polynomial coefficients."""
    leads = [min(rel.coeffs) for rel in rels.relations]
    assert len(set(leads)) == len(leads)
    for lead, rel in zip(leads, rels.relations):
        assert rel.coeffs[lead] == ONE
        for other in rels.relations:
            if other is not rel:
                assert lead not in other.coeffs


def test_order_dependent_pair_gives_one_basis():
    ab = RelationSet(2, [_A, _B])
    ba = RelationSet(2, [_B, _A])
    assert ab.relations == ba.relations
    assert ab.render() == ba.render() == ["x1 x2 = -x2 x2", "x2 x1 = x2 x2"]
    _assert_reduced(ab)


def test_builtin_relation_sets_are_reduced():
    for rels in CASES:
        _assert_reduced(rels)


def test_spanned_by_matches_polynomial_input():
    for rels in CASES:
        again = RelationSet.spanned_by(rels.alphabet, rels.span.basis(),
                                       names=rels.names)
        assert again.relations == rels.relations
        assert again.render() == rels.render()


@settings(max_examples=30, deadline=None)
@given(case=st.integers(0, len(CASES) - 1), seed=st.integers(0, 2 ** 32))
def test_relations_independent_of_order_and_choice(case, seed):
    base = CASES[case]
    rng = random.Random(seed)
    rels = list(base.relations)
    rng.shuffle(rels)
    # an invertible recombination: unitriangular, then non-zero scales
    mixed = []
    for i, rel in enumerate(rels):
        p = rel
        for later in rels[i + 1:]:
            if rng.random() < 0.3:
                p = p + later.scale(Q ** rng.randint(-2, 2) * rng.choice([1, -2]))
        mixed.append(p.scale(Q ** rng.randint(-2, 2) * rng.choice([1, -1, 3])))
    again = RelationSet(base.alphabet, mixed, names=base.names)
    assert again.relations == base.relations
    assert again.render() == base.render()
    _assert_reduced(again)


def _assert_pivots_lead(rels: RelationSet):
    """Each rendered relation and each degree-2 rule of the completion leads
    with the word of an echelon pivot, in pivot order."""
    n = rels.alphabet
    pivots = [index_word(p, n, 2) for p in sorted(rels.span.pivot_rows)]
    assert [line.split(" = ")[0] for line in rels.render()] == \
        [word_str(w, rels.names) for w in pivots]
    assert list(complete_rewrite(rels, 2).rules) == pivots


_SETS = {
    "sp4": sp4_symmetric_relations,
    "frt sl:3": lambda: frt_relations(builtin_sl(3)[1]).relations,
    "frt adjoint": lambda: frt_relations(adjoint_sl2()[1]).relations,
} | {f"sl:{n} {poly}": lambda n=n, poly=poly: relations_from_image(
    builtin_sl(n)[1], parse_poly(poly))
    for n in (2, 3, 4) for poly in ("x - q", "x + q^-1")}


@pytest.mark.parametrize("name", _SETS)
def test_echelon_pivots_are_the_leading_words(name):
    _assert_pivots_lead(_SETS[name]())


_COEFFS = ["1", "-1", "q", "-q^-2", "2", "q - q^-1", "1/(q + 1)"]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 3), data=st.data())
def test_fixture_relations_lead_with_their_pivots_in_either_order(n, data):
    word = st.lists(st.integers(1, n), min_size=2, max_size=2)
    term = st.fixed_dictionaries({"word": word,
                                  "coeff": st.sampled_from(_COEFFS)})
    rels = data.draw(st.lists(st.lists(term, min_size=1, max_size=3),
                              min_size=1, max_size=4))
    renders = []
    for given_rels in (rels, rels[::-1]):
        rel_set = relations_from_fixture(
            {"kind": "relations", "alphabet": n, "relations": given_rels})
        _assert_pivots_lead(rel_set)
        renders.append(rel_set.render())
    assert renders[0] == renders[1]

"""A relation set is the reduced echelon basis of its span: it does not
depend on the order or the choice of the relations that span it."""

import random

from hypothesis import given, settings, strategies as st

from braidalg.builtin import builtin_sl, sp4_symmetric_relations
from braidalg.frt import frt_relations
from braidalg.ncalg import NCPoly, RelationSet, relations_from_image
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
    leads = [rels.order.leading(rel.coeffs) for rel in rels.relations]
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

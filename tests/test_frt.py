import random

import pytest

from braidalg.frt import (FRTPresentation, PairingTable, check_duality,
                          frt_coideal_check, frt_hilbert, frt_relations,
                          pairing, t_names)
from braidalg.linalg import BraidedSpace, SymMatrix
from braidalg.ncalg import NCPoly, RelationSet
from braidalg.scalar import ONE, Q, ZERO, Scalar
from braidalg.uqg import Gen, Representation, check_preserves_R


def test_n1_space_has_no_relations():
    space = BraidedSpace.from_braiding(SymMatrix([[Q]]))
    pres = frt_relations(space)
    assert pres.rank == 0
    assert frt_coideal_check(pres).passed  # vacuous
    assert frt_hilbert(pres, 4) == [1, 1, 1, 1, 1]


def test_sl2_relation_count_and_content(sl2):
    _, space = sl2
    pres = frt_relations(space)
    assert pres.rank == 6
    assert len(pres.relations) == 6
    # the row-commutation relation, hand-derived: t11 t12 - q t12 t11
    by_lead = {pres.relations.order.leading(r.coeffs): r
               for r in pres.relations.relations}
    row_rel = by_lead[(0, 1)]
    assert row_rel.coeffs == {(0, 1): ONE, (1, 0): -Q}
    col_rel = by_lead[(0, 2)]
    assert col_rel.coeffs == {(0, 2): ONE, (2, 0): -Q}
    assert (1, 2) in by_lead  # t12 t21 = t21 t12
    assert by_lead[(1, 2)].coeffs == {(1, 2): ONE, (2, 1): -ONE}


def test_sl2_degree2_dimension(sl2):
    _, space = sl2
    pres = frt_relations(space)
    assert 16 - pres.rank == 10


def test_sl3_relation_count(sl3):
    _, space = sl3
    pres = frt_relations(space)
    # rank of alpha - beta = 81 - dim centralizer of the braiding
    # = 81 - (6^2 + 3^2) = 36, the flat quantum-matrix value
    assert pres.rank == 36
    assert 81 - pres.rank == 45


def test_sl3_hilbert_flat(sl3):
    _, space = sl3
    pres = frt_relations(space)
    # commutative 9-variable counts; only the 36-relation presentation is flat
    assert frt_hilbert(pres, 3) == [1, 9, 45, 165]


def test_rank_invariant_under_rescaling(sl2):
    _, space = sl2
    base_rank = frt_relations(space).rank
    rng = random.Random(2)
    for _ in range(3):
        c = Scalar.q_power(rng.randint(-3, 3)) * rng.choice([1, 2, -1])
        rescaled = BraidedSpace(space.rtt * c)
        assert frt_relations(rescaled).rank == base_rank


def test_coideal_check_passes(sl2):
    _, space = sl2
    pres = frt_relations(space)
    report = frt_coideal_check(pres)
    assert report.passed
    assert len(report.items) == 12  # counit + coproduct membership per relation


def test_coideal_mutation_fails(sl2):
    _, space = sl2
    pres = frt_relations(space)
    # a generic degree-2 element replacing one relation
    mutated_poly = NCPoly({(0, 3): ONE, (2, 2): Q, (1, 0): ONE})
    mutated = RelationSet(4, pres.relations.relations[:-1] + [mutated_poly],
                          names=t_names(2))
    bad_pres = FRTPresentation(2, mutated, len(mutated), pres.convention)
    assert not frt_coideal_check(bad_pres).passed


def test_counit_annihilates_relations(sl2):
    _, space = sl2
    pres = frt_relations(space)
    for rel in pres.relations.relations:
        total = ZERO
        for w, c in rel.coeffs.items():
            total = total + pres.counit_word(w) * c
        assert total.is_zero()


def test_coproduct_counit_law_on_letters(sl2):
    _, space = sl2
    pres = frt_relations(space)
    for letter in range(4):
        left = [r for l, r in pres.coproduct_letter(letter)
                if not pres.counit_letter(l).is_zero()]
        right = [l for l, r in pres.coproduct_letter(letter)
                 if not pres.counit_letter(r).is_zero()]
        assert left == [letter]
        assert right == [letter]


def test_frt_hilbert_flat(sl2):
    _, space = sl2
    pres = frt_relations(space)
    assert frt_hilbert(pres, 3) == [1, 4, 10, 20]


def test_pairing_values(sl2):
    rep, space = sl2
    K, E, F = Gen("K", 0), Gen("E", 0), Gen("F", 0)
    # diagonal entries of K are q^-1, q; E sits at the (2,1) slot
    assert pairing(rep, (K,), (0,)) == Q ** -1
    assert pairing(rep, (K,), (3,)) == Q
    assert pairing(rep, (K,), (1,)).is_zero()
    assert pairing(rep, (E,), (2,)) == ONE
    assert all(pairing(rep, (E,), (l,)).is_zero() for l in (0, 1, 3))
    assert pairing(rep, (F,), (1,)) == ONE
    # empty word pairs as the counit row
    for letter, expect in ((0, ONE), (1, ZERO), (2, ZERO), (3, ONE)):
        assert pairing(rep, (), (letter,)) == expect


def test_pairing_table_is_bilinear_cache(sl2):
    rep, space = sl2
    table = PairingTable(rep, 2)
    p = NCPoly({(0, 1): ONE, (1, 0): -Q})
    value = table.pair_poly((Gen("E", 0),), p)
    direct = pairing(rep, (Gen("E", 0),), (0, 1)) - \
        Q * pairing(rep, (Gen("E", 0),), (1, 0))
    assert value == direct


def test_duality_sl2(sl2):
    rep, space = sl2
    report = check_duality(rep, space, max_degree=3)
    assert report.passed
    assert any("direct" in note for note in report.notes)


def test_duality_mutation_fails(sl2):
    rep, space = sl2
    assign = dict(rep.assign)
    entries = [list(row) for row in assign[Gen("E", 0)].entries]
    entries[0][0] = ONE
    assign[Gen("E", 0)] = SymMatrix(entries)
    mutated = Representation(rep.presentation, assign, name="mutated")
    report = check_duality(mutated, space, max_degree=2)
    assert not report.passed
    annihilation = [i for i in report.items if "annihilation" in i.name]
    assert annihilation and not annihilation[0].passed


def test_annihilation_iff_preserves(sl2):
    # both directions, on the builtin and on a mutated representation
    rep, space = sl2
    assert check_preserves_R(rep, space).passed
    assert check_duality(rep, space, max_degree=3).passed
    assign = dict(rep.assign)
    entries = [list(row) for row in assign[Gen("F", 0)].entries]
    entries[1][1] = Q
    assign[Gen("F", 0)] = SymMatrix(entries)
    mutated = Representation(rep.presentation, assign, name="mutated-F")
    assert not check_preserves_R(mutated, space).passed
    report = check_duality(mutated, space, max_degree=2)
    annihilation = [i for i in report.items if "annihilation" in i.name]
    assert not annihilation[0].passed


def test_duality_sl3(sl3):
    rep, space = sl3
    report = check_duality(rep, space, max_degree=2, samples=40)
    assert report.passed


def test_pairing_rejects_unknown_letter(sl2):
    rep, _ = sl2
    with pytest.raises(ValueError):
        pairing(rep, (Gen("E", 0),), (7,))


def test_group_like_multiplicativity(sl2):
    # <K, ab> = <K, a><K, b> exactly, as the coproduct of K is K (x) K
    rep, space = sl2
    table = PairingTable(rep, 2)
    K = Gen("K", 0)
    pres = frt_relations(space)
    rng = random.Random(4)
    for _ in range(30):
        a = tuple(rng.randrange(4) for _ in range(rng.randint(0, 2)))
        b = tuple(rng.randrange(4) for _ in range(rng.randint(0, 2)))
        lhs = table.pair((K,), a + b)
        rhs = table.pair((K,), a) * table.pair((K,), b)
        assert lhs == rhs


def test_duality_refuses_degree_and_sample_bounds_below_one(sl2):
    rep, space = sl2
    for degree in (0, -1):
        with pytest.raises(ValueError, match="max_degree >= 1"):
            check_duality(rep, space, max_degree=degree)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples >= 1"):
            check_duality(rep, space, max_degree=2, samples=samples)
    report = check_duality(rep, space, max_degree=1, samples=1)
    assert report.passed and "1 samples" in report.items[1].name

import pytest

from braidalg.builtin import classical_space, sl2_lie_actions
from braidalg.linalg import BraidedSpace, SymMatrix, kron
from braidalg.ncalg import complete_rewrite, relations_from_image
from braidalg.scalar import ONE, Q, parse_poly, q_integer
from braidalg.uqg import (CartanData, Gen, GeneratorCoalgebra, Representation,
                          UqPresentation, act_on_quotient, check_antipode,
                          check_derivation_measuring, check_ideal_preserved,
                          check_measuring, check_preserves_R,
                          check_representation, coproduct_action,
                          generator_independence, presentation_from_cartan,
                          word_action)


def test_cartan_validation():
    with pytest.raises(ValueError):
        CartanData(((2, -1), (0, 2)), (1, 1))     # asymmetric zero pattern
    with pytest.raises(ValueError):
        CartanData(((1,),), (1,))                 # bad diagonal
    with pytest.raises(ValueError):
        CartanData(((2, 1), (1, 2)), (1, 1))      # positive off-diagonal
    with pytest.raises(ValueError):
        CartanData(((2, -1), (-2, 2)), (1, 1))    # wrong symmetrizers


def test_symmetrizers_computed():
    assert CartanData.sl(4).d == (1, 1, 1)
    c2 = CartanData.from_matrix([[2, -1], [-2, 2]])
    assert c2.d == (2, 1)
    a1a1 = CartanData.from_matrix([[2, 0], [0, 2]])
    assert a1a1.d == (1, 1)


def test_presentation_a1_relations():
    pres = presentation_from_cartan(CartanData.sl(2))
    labels = [label for label, _ in pres.relations]
    assert labels == [
        "K1 K1^-1 = 1", "K1^-1 K1 = 1",
        "K1 E1 K1^-1 = q1^a[1,1] E1", "K1 F1 K1^-1 = q1^-a[1,1] F1",
        "E1 F1 bracket",
    ]
    bracket = dict(pres.relations)["E1 F1 bracket"]
    E, F, K, Ki = (Gen(k, 0) for k in ("E", "F", "K", "Ki"))
    c = (Q - Q ** -1).inverse()
    assert bracket == {(E, F): ONE, (F, E): -ONE, (K,): -c, (Ki,): c}


def test_presentation_a2_serre_coefficients():
    pres = presentation_from_cartan(CartanData.sl(3))
    serre = dict(pres.relations)["Serre E[1,2]"]
    E1, E2 = Gen("E", 0), Gen("E", 1)
    assert serre[(E1, E1, E2)] == ONE
    assert serre[(E1, E2, E1)] == -q_integer(2)
    assert serre[(E2, E1, E1)] == ONE


def test_coproduct_tables():
    pres = presentation_from_cartan(CartanData.sl(3))
    for i in range(2):
        F, Ki = Gen("F", i), Gen("Ki", i)
        assert pres.delta[F] == [((F,), (), ONE), ((Ki,), (F,), ONE)]
        E, K = Gen("E", i), Gen("K", i)
        assert pres.delta[E] == [((E,), (K,), ONE), ((), (E,), ONE)]
        assert pres.counit[E].is_zero() and pres.counit[F].is_zero()
        assert pres.counit[K].is_one()


def test_generator_coalgebra_laws(sl2, sl3):
    for rep, _ in (sl2, sl3):
        coalg = rep.coalgebra()
        assert coalg.check_coassociativity().passed
        assert coalg.check_counit().passed
    classical = GeneratorCoalgebra.classical(["X1", "X2"])
    assert classical.check_coassociativity().passed
    assert classical.check_counit().passed


def test_check_representation_builtin(sl2, sl3):
    for rep, _ in (sl2, sl3):
        assert check_representation(rep).passed


def test_check_representation_perturbed(sl2):
    rep, _ = sl2
    assign = dict(rep.assign)
    entries = [list(row) for row in assign[Gen("E", 0)].entries]
    entries[0][0] = ONE
    assign[Gen("E", 0)] = SymMatrix(entries)
    bad = Representation(rep.presentation, assign, name="perturbed")
    report = check_representation(bad)
    assert not report.passed
    failing = [item.name for item in report.failures()]
    assert "K1 E1 K1^-1 = q1^a[1,1] E1" in failing
    assert any("residual" in item.detail for item in report.failures())


def test_trivial_representation_passes():
    pres = presentation_from_cartan(CartanData.sl(2))
    zero = SymMatrix.zeros(2)
    ident = SymMatrix.identity(2)
    trivial = Representation(pres, {Gen("E", 0): zero, Gen("F", 0): zero,
                                    Gen("K", 0): ident}, name="trivial")
    assert check_representation(trivial).passed


def test_representation_requires_invertible_k():
    pres = presentation_from_cartan(CartanData.sl(2))
    zero = SymMatrix.zeros(2)
    with pytest.raises(ValueError):
        Representation(pres, {Gen("E", 0): zero, Gen("F", 0): zero,
                              Gen("K", 0): zero})


def test_coproduct_action_values(sl2):
    rep, _ = sl2
    E, K = Gen("E", 0), Gen("K", 0)
    # group-like: K acts as K (x) K
    assert coproduct_action(rep, K, 2) == kron(rep.matrix(K), rep.matrix(K))
    assert coproduct_action(rep, K, 3) == \
        kron(kron(rep.matrix(K), rep.matrix(K)), rep.matrix(K))
    # E acts as E (x) K + 1 (x) E
    expected = kron(rep.matrix(E), rep.matrix(K)) + \
        kron(SymMatrix.identity(2), rep.matrix(E))
    assert coproduct_action(rep, E, 2) == expected
    # degree zero: the counit
    assert coproduct_action(rep, E, 0).entries[0][0].is_zero()
    assert coproduct_action(rep, K, 0).entries[0][0].is_one()


def test_coproduct_action_degree_compatibility(sl2):
    # action at j+k splits through the coproduct at the matrix level
    rep, _ = sl2
    coalg = rep.coalgebra()
    for g in rep.presentation.generators:
        for j, k in ((1, 1), (1, 2), (2, 1)):
            total = coproduct_action(rep, g, j + k)
            assembled = SymMatrix.zeros(2 ** (j + k))
            for (left, right), c in _delta_terms(coalg, g):
                assembled = assembled + kron(word_action(rep, left, j),
                                             word_action(rep, right, k)) * c
            assert total == assembled, (g, j, k)


def _delta_terms(coalg, g):
    return [((left, right), c) for left, right, c in coalg.delta[g]]


def test_check_preserves_R(sl2, sl3):
    for rep, space in (sl2, sl3):
        assert check_preserves_R(rep, space).passed


def test_unflipped_exchange_matrix_fails_preservation(sl2):
    # the exchange matrix alone neither satisfies the braid equation nor
    # commutes with the E action; only its composite with the flip does
    rep, space = sl2
    from braidalg.linalg import check_braid
    assert not check_braid(space.rtt).holds
    x = coproduct_action(rep, Gen("E", 0), 2)
    assert space.rtt * x != x * space.rtt
    psi = space.braiding
    assert psi * x == x * psi


def test_identity_braiding_trivially_preserved(sl2):
    rep, _ = sl2
    trivial = BraidedSpace.from_braiding(SymMatrix.identity(4))
    assert check_preserves_R(rep, trivial).passed


def test_act_on_quotient_examples(sl2):
    rep, space = sl2
    rels = relations_from_image(space, parse_poly("x - q"))
    rs = complete_rewrite(rels, 4)
    E, K = Gen("E", 0), Gen("K", 0)
    out = act_on_quotient(rep, rs, E, (0, 0))
    assert out.coeffs == {(1, 0): q_integer(2)}
    assert act_on_quotient(rep, rs, E, ()).is_zero()
    # group-like diagonal action scales monomials
    km = act_on_quotient(rep, rs, K, (1, 0))
    assert km.coeffs == {(1, 0): ONE}  # q * q^-1
    km2 = act_on_quotient(rep, rs, K, (1, 1))
    assert km2.coeffs == {(1, 1): Q ** 2}


def test_check_ideal_preserved(sl2):
    rep, space = sl2
    for poly in ("x - q", "x + q^-1"):
        rels = relations_from_image(space, parse_poly(poly))
        assert check_ideal_preserved(rep, rels).passed
    # the full degree-2 space is preserved by anything
    full = relations_from_image(space, parse_poly("x - q^5"))
    assert len(full) == 4
    assert check_ideal_preserved(rep, full).passed


def test_check_measuring_passes(sl2):
    rep, space = sl2
    rels = relations_from_image(space, parse_poly("x - q"))
    rs = complete_rewrite(rels, 4)
    report = check_measuring(rep, rs, max_degree=4)
    assert report.passed
    assert "exhaustive" in report.notes[0]


def test_check_measuring_seeded_sampling(sl2):
    rep, space = sl2
    rels = relations_from_image(space, parse_poly("x - q"))
    rs = complete_rewrite(rels, 5)
    first = check_measuring(rep, rs, sample_count=20, max_degree=5, seed=3)
    second = check_measuring(rep, rs, sample_count=20, max_degree=5, seed=3)
    assert first.passed and second.passed
    assert [i.name for i in first.items] == [i.name for i in second.items]
    assert "sample" in first.notes[0]


def test_check_measuring_detects_swapped_coproduct(sl2):
    rep, space = sl2
    pres = rep.presentation
    E, K = Gen("E", 0), Gen("K", 0)
    delta = dict(pres.delta)
    delta[E] = [((K,), (E,), ONE), ((E,), (), ONE)]
    mutated_pres = UqPresentation(pres.cartan, pres.generators, pres.relations,
                                  delta, pres.counit, pres.antipode, pres.q_i)
    mutated = Representation(mutated_pres, rep.assign, name="swapped")
    rels = relations_from_image(space, parse_poly("x - q"))
    rs = complete_rewrite(rels, 4)
    report = check_measuring(mutated, rs, max_degree=2)
    assert not report.passed
    assert any("E1" in item.name for item in report.failures())


def test_measuring_group_like_degenerates_to_multiplicativity(sl2):
    # for the group-like K the identity reads s(K)(ab) = s(K)(a) s(K)(b)
    rep, space = sl2
    rels = relations_from_image(space, parse_poly("x - q"))
    rs = complete_rewrite(rels, 4)
    K = Gen("K", 0)
    for a, b in (((0,), (1,)), ((0, 0), (1, 1)), ((1, 0), (0,))):
        lhs = rs.normal_form(act_on_quotient(rep, rs, K, a + b))
        left = act_on_quotient(rep, rs, K, a)
        right = act_on_quotient(rep, rs, K, b)
        assert lhs == rs.normal_form(left * right)


def test_derivation_measuring_classical_sl2():
    space = classical_space(2)
    rels = relations_from_image(space, parse_poly("x - 1"))
    assert rels.render() == ["x1 x2 = x2 x1"]
    rs = complete_rewrite(rels, 5)
    report = check_derivation_measuring(sl2_lie_actions(), rs, max_degree=4)
    assert report.passed


def test_derivation_measuring_zero_and_identity():
    space = classical_space(2)
    rs = complete_rewrite(relations_from_image(space, parse_poly("x - 1")), 4)
    zero = SymMatrix.zeros(2)
    ident = SymMatrix.identity(2)
    report = check_derivation_measuring([zero, ident], rs, max_degree=3)
    assert report.passed


def test_measuring_checks_refuse_empty_pair_lists(sl2):
    rep, space = sl2
    rs = complete_rewrite(relations_from_image(space, parse_poly("x - q")), 2)
    with pytest.raises(ValueError):
        check_measuring(rep, rs, sample_count=0, max_degree=2)
    with pytest.raises(ValueError):
        check_measuring(rep, rs, max_degree=-1)
    plane = complete_rewrite(
        relations_from_image(classical_space(2), parse_poly("x - 1")), 2)
    with pytest.raises(ValueError):
        check_derivation_measuring(sl2_lie_actions(), plane, max_degree=-1)
    # the unit pair alone is a real check: the counit is multiplicative
    report = check_measuring(rep, rs, max_degree=0)
    assert report.passed and "1 monomial pairs" in report.notes[0]


def test_antipode_identity(sl2, sl3):
    for rep, _ in (sl2, sl3):
        assert check_antipode(rep).passed


def test_generator_independence(sl2, sl3):
    for rep, _ in (sl2, sl3):
        report = generator_independence(rep)
        assert report.passed
        assert any("necessary" in note for note in report.notes)


def test_preserves_at_2_implies_3(sl2, sl3, sl4):
    # the degree-3 items never fail when the degree-2 items pass
    for rep, space in (sl2, sl3, sl4):
        report = check_preserves_R(rep, space)
        deg2 = [i for i in report.items if "degree 2" in i.name]
        deg3 = [i for i in report.items if "degree-3" in i.name]
        assert all(i.passed for i in deg2)
        assert all(i.passed for i in deg3)


def test_gen_names_roundtrip():
    for g in (Gen("E", 0), Gen("F", 2), Gen("K", 1), Gen("Ki", 0)):
        assert Gen.parse(str(g)) == g


def test_coproduct_action_rejects_unknown_generator(sl2):
    rep, _ = sl2
    with pytest.raises(ValueError):
        coproduct_action(rep, Gen("E", 5), 2)
    with pytest.raises(ValueError):
        coproduct_action(rep, Gen("E", 0), -1)


def test_invalid_coalgebra_tables_rejected():
    # delta(a) = a (x) a with eps(a) = 0 violates the counit law
    with pytest.raises(ValueError):
        GeneratorCoalgebra(("a",), {"a": [(("a",), ("a",), ONE)]},
                           {"a": Q * 0})


def test_ideal_check_refuses_an_empty_relation_set(sl2):
    rep, space = sl2
    empty = relations_from_image(space, parse_poly("0"))
    assert len(empty) == 0
    with pytest.raises(ValueError, match="empty relation set"):
        check_ideal_preserved(rep, empty)


def test_measuring_refuses_negative_sample_count(sl2):
    rep, space = sl2
    rs = complete_rewrite(relations_from_image(space, parse_poly("x - q")), 3)
    with pytest.raises(ValueError, match="-1"):
        check_measuring(rep, rs, sample_count=-1, max_degree=3)


def test_ideal_checks_refuse_a_mismatched_alphabet(sl2, sl3):
    for (rep, _), (_, space) in ((sl2, sl3), (sl3, sl2)):
        rels = relations_from_image(space, parse_poly("x - q"))
        with pytest.raises(ValueError, match="alphabet sizes differ"):
            check_ideal_preserved(rep, rels)
        rs = complete_rewrite(rels, 2)
        with pytest.raises(ValueError, match="alphabet sizes differ"):
            act_on_quotient(rep, rs, Gen("E", 0), (0, 0))

import copy
import dataclasses
import itertools
import pickle
import random

import pytest

from braidalg.builtin import adjoint_sl2, classical_space, sl2_lie_actions
from braidalg.frt import pairing
from braidalg.linalg import BraidedSpace, SymMatrix, kron
from braidalg.ncalg import (DegreeBoundError, NCPoly, RelationSet,
                            complete_rewrite, relations_from_image,
                            vector_to_poly, word_str)
from braidalg.scalar import ONE, Q, parse_poly, q_integer
from braidalg.uqg import (ActionTable, CartanData, Gen, GeneratorCoalgebra,
                          Representation, UqPresentation, _MeasuringContext,
                          _monomial_pairs, act_on_quotient, check_antipode,
                          check_derivation_measuring, check_ideal_preserved,
                          check_measuring, check_preserves_R,
                          check_representation, coproduct_action,
                          generator_independence, presentation_from_cartan,
                          word_action)

from oracles import measuring_residual_reference


def test_cartan_validation():
    with pytest.raises(ValueError):
        CartanData(((2, -1), (0, 2)), (1, 1))     # asymmetric zero pattern
    with pytest.raises(ValueError):
        CartanData(((1,),), (1,))                 # bad diagonal
    with pytest.raises(ValueError):
        CartanData(((2, 1), (1, 2)), (1, 1))      # positive off-diagonal
    with pytest.raises(ValueError):
        CartanData(((2, -1), (-2, 2)), (1, 1))    # wrong symmetrizers


def test_invalid_matrix_refused_before_symmetrizers():
    # the symmetrizers would divide by zero or index past a short row
    for matrix, message in (([[2, -1], [0, 2]], "zero pattern"),
                            ([[2], [-1, 2]], "must be square")):
        with pytest.raises(ValueError, match=message):
            CartanData(matrix)


def test_symmetrizers_computed():
    assert CartanData.sl(4).d == (1, 1, 1)
    c2 = CartanData([[2, -1], [-2, 2]])
    assert c2.d == (2, 1)
    a1a1 = CartanData([[2, 0], [0, 2]])
    assert a1a1.d == (1, 1)


@pytest.mark.parametrize("d", [[1], [1, 1, 1]])
def test_symmetrizer_count_must_match_the_rank(d):
    with pytest.raises(ValueError, match="need 2 symmetrizers, one per row"):
        CartanData([[2, -1], [-1, 2]], d)


@pytest.mark.parametrize("matrix, d", [([[2, -1.5], [-1, 2]], None),
                                       ([[2.9, -1], [-1, 2]], None),
                                       ([[2, -1], [-1, 2]], [1.0, 1])])
def test_cartan_data_refuses_non_integers(matrix, d):
    with pytest.raises(TypeError):
        CartanData(matrix, d)


def _smallest_symmetrizers(a):
    """The d in {1..6}^n with d_i a_ij = d_j a_ji of least sum.  The
    solutions on each connected component of the Dynkin diagram are the
    multiples of one primitive vector, so this is that vector on every
    component."""
    n = len(a)
    return min((d for d in itertools.product(range(1, 7), repeat=n)
                if all(d[i] * a[i][j] == d[j] * a[j][i]
                       for i in range(n) for j in range(n))), key=sum)


@pytest.mark.parametrize("matrix", [
    [[2, -2], [-1, 2]],
    [[2, -1], [-2, 2]],
    [[2, -1], [-3, 2]],
    [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    [[2, 0, 0], [0, 2, -2], [0, -1, 2]],
    [[2, 0], [0, 2]],
], ids=["B2", "C2", "G2", "B3", "C3", "F4", "A1xB2", "A1xA1"])
def test_derived_symmetrizers_match_brute_force(matrix):
    assert CartanData(matrix).d == _smallest_symmetrizers(matrix)


def test_non_symmetrizable_cycle_refused():
    with pytest.raises(ValueError, match="not symmetrizable"):
        CartanData([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])


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
        coalg = rep.presentation.coalgebra
        assert coalg.check_coassociativity().passed
        assert coalg.check_counit().passed
    classical = GeneratorCoalgebra.classical(["X1", "X2"])
    assert classical.check_coassociativity().passed
    assert classical.check_counit().passed


def test_coalgebra_checks_add_no_zero_entry(monkeypatch):
    """Vectors hold no zero entry, so the law checks at construction never
    hand `vec_add_scaled` one, not even for a counit that is zero."""
    import braidalg.uqg
    add = braidalg.uqg.vec_add_scaled
    given = []

    def spy(target, src, c):
        given.extend(src.values())
        return add(target, src, c)

    monkeypatch.setattr(braidalg.uqg, "vec_add_scaled", spy)
    presentation_from_cartan(CartanData.sl(3)).coalgebra
    GeneratorCoalgebra.classical(["X1", "X2"])
    GeneratorCoalgebra.matrix(3)
    assert given
    assert [v for v in given if v.is_zero()] == []


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


def test_check_representation_residual_matches_dense_products(sl2):
    # oracle: each relation evaluated as a sum of products of the dense
    # generator matrices, independent of the sparse word operators
    rep, _ = sl2
    assign = dict(rep.assign)
    entries = [list(row) for row in assign[Gen("E", 0)].entries]
    entries[0][0] = ONE
    assign[Gen("E", 0)] = SymMatrix(entries)
    bad = Representation(rep.presentation, assign, name="perturbed")
    report = check_representation(bad)
    items = {item.name: item for item in report.items}
    for label, poly in bad.presentation.relations:
        expected = SymMatrix.zeros(2)
        for word, c in poly.items():
            product = SymMatrix.identity(2)
            for g in word:
                product = product * bad.matrix(g)
            expected = expected + product * c
        item = items[label]
        assert item.passed == expected.is_zero(), label
        if not item.passed:
            assert item.detail == f"residual:\n{expected}", label
    assert not report.passed


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
    coalg = rep.presentation.coalgebra
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


def test_measuring_reports_pin_their_residuals(sl2):
    # E1 with its (1, 1) entry set to 1 breaks the measuring identity on the
    # q-symmetric quotient; the Leibniz rule fails on the exterior one
    rep, space = sl2
    assign = dict(rep.assign)
    entries = [list(row) for row in assign[Gen("E", 0)].entries]
    entries[0][0] = ONE
    assign[Gen("E", 0)] = SymMatrix(entries)
    bad = Representation(rep.presentation, assign, name="perturbed")
    rs = complete_rewrite(relations_from_image(space, parse_poly("x - q")), 3)
    report = check_measuring(bad, rs, max_degree=3)
    assert [(i.name, i.passed, i.detail) for i in report.items] == [
        ("E1 measures (35 pairs)", False, "5 counterexamples; first: "
                                          "a=x1 b=x2 residual=(-q^2 + q)*x2 x1"),
        ("F1 measures (35 pairs)", True, ""),
        ("K1 measures (35 pairs)", True, ""),
        ("K1^-1 measures (35 pairs)", True, "")]
    ext = complete_rewrite(relations_from_image(space, parse_poly("x + q^-1")), 4)
    report = check_derivation_measuring(sl2_lie_actions(), ext, max_degree=4)
    assert [(i.name, i.passed, i.detail) for i in report.items] == [
        ("X1 acts by derivations (16 pairs)", False,
         "1 counterexamples; first: a=x2 b=x2"),
        ("X2 acts by derivations (16 pairs)", False,
         "1 counterexamples; first: a=x1 b=x1"),
        ("X3 acts by derivations (16 pairs)", True, "")]


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
    # the unit pair alone passes by the counit law, which GeneratorCoalgebra
    # verifies when it is built
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


def test_gen_cached_hash_keeps_the_dataclass_behaviour(sl2):
    rep, _ = sl2
    fresh = Gen("E", 0)
    builtin = next(g for g in rep.presentation.generators if str(g) == "E1")
    same = (Gen.parse("E1"), builtin, copy.deepcopy(fresh),
            dataclasses.replace(Gen("F", 0), kind="E"),
            pickle.loads(pickle.dumps(fresh)))
    for g in same:
        assert g == fresh and hash(g) == hash(fresh) == hash(("E", 0))
        assert {fresh: 1}[g] == 1
    # string hashes differ between processes, so a pickle carries no hash
    assert b"_hash" not in pickle.dumps(fresh)
    moved = dataclasses.replace(fresh, index=1)
    assert moved == Gen("E", 1) and hash(moved) == hash(("E", 1))
    assert moved != fresh
    for field, value in (("kind", "F"), ("index", 1), ("_hash", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fresh, field, value)
    assert hash(fresh) == hash(("E", 0))
    assert repr(fresh) == "Gen(kind='E', index=0)"
    assert repr(Gen.parse("K2^-1")) == "Gen(kind='Ki', index=1)"
    assert [f.name for f in dataclasses.fields(Gen)] == ["kind", "index"]


def test_coproduct_action_rejects_unknown_generator(sl2):
    rep, _ = sl2
    with pytest.raises(ValueError):
        coproduct_action(rep, Gen("E", 5), 2)
    with pytest.raises(ValueError):
        coproduct_action(rep, Gen("E", 0), -1)


def test_action_inputs_are_refused_with_value_error(sl2):
    rep, space = sl2
    e1, unknown = Gen("E", 0), Gen("E", 5)
    for word in ((e1,), ()):
        with pytest.raises(ValueError, match="got -1"):
            word_action(rep, word, -1)
    with pytest.raises(ValueError, match="unknown generator E6"):
        word_action(rep, (e1, unknown), 2)
    with pytest.raises(ValueError, match="unknown generator E6"):
        pairing(rep, (unknown,), (0,))
    rs = complete_rewrite(relations_from_image(space, parse_poly("x - q")), 3)
    for word in ((0, 2), (-1,)):
        with pytest.raises(ValueError, match="outside the alphabet"):
            act_on_quotient(rep, rs, e1, word)
    with pytest.raises(ValueError, match="unknown generator E6"):
        act_on_quotient(rep, rs, unknown, (0,))


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


def test_measuring_checks_refuse_degrees_beyond_the_completion_bound(sl2):
    """Normal forms are certified only through the completion bound, so a
    measuring degree above it is refused before any pair is enumerated; with
    seed 0 the sample used to dodge every uncertified normal form and pass."""
    rep, space = sl2
    rs = complete_rewrite(relations_from_image(space, parse_poly("x - q")), 3)
    with pytest.raises(DegreeBoundError, match="exceeds completion bound 3"):
        check_measuring(rep, rs, sample_count=2, max_degree=4, seed=0)
    with pytest.raises(DegreeBoundError):
        check_derivation_measuring(sl2_lie_actions(), rs, max_degree=4)
    assert check_measuring(rep, rs, sample_count=2, max_degree=3,
                           seed=0).passed


def test_measuring_checks_refuse_a_mismatched_alphabet(sl2, sl3):
    rs = complete_rewrite(relations_from_image(sl2[1], parse_poly("x - q")), 3)
    with pytest.raises(ValueError, match="must match the quotient alphabet"):
        check_measuring(sl3[0], rs, max_degree=2)
    with pytest.raises(ValueError, match="must match the quotient alphabet"):
        check_derivation_measuring([SymMatrix.identity(3)], rs, max_degree=2)


def test_antipode_identity_detects_sign_flip(sl2):
    rep, _ = sl2
    pres = rep.presentation
    E, Ki = Gen("E", 0), Gen("Ki", 0)
    antipode = dict(pres.antipode)
    antipode[E] = {(E, Ki): ONE}
    flipped = UqPresentation(pres.cartan, pres.generators, pres.relations,
                             pres.delta, pres.counit, antipode, pres.q_i)
    report = check_antipode(Representation(flipped, rep.assign))
    assert [item.name for item in report.failures()] == \
        ["m(S x 1)delta(E1) = eps(E1)1"]


def test_generator_independence_fails_on_trivial_representation():
    pres = presentation_from_cartan(CartanData.sl(2))
    zero = SymMatrix.zeros(2)
    trivial = Representation(pres, {Gen("E", 0): zero, Gen("F", 0): zero,
                                    Gen("K", 0): SymMatrix.identity(2)})
    assert not generator_independence(trivial).passed


def _perturbed(rep, rng, kinds="EFK") -> Representation:
    """rep with one entry of one matrix of the listed kinds changed to a
    different non-zero value; K^-1 is recomputed.  Changing a diagonal entry
    of the diagonal K, or an off-diagonal one, keeps it invertible."""
    gens = [g for g in rep.presentation.generators if g.kind in kinds]
    gen = rng.choice(gens)
    entries = [list(row) for row in rep.assign[gen].entries]
    r, c = rng.randrange(rep.dim), rng.randrange(rep.dim)
    entries[r][c] = rng.choice([v for v in (ONE, -ONE, Q, Q ** -1 * 2)
                                if v != entries[r][c]])
    assign = {g: m for g, m in rep.assign.items() if g.kind != "Ki"}
    assign[gen] = SymMatrix(entries)
    return Representation(rep.presentation, assign, name=f"perturbed {gen}")


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_measuring_holds_exactly_when_the_ideal_is_preserved(name, request):
    """The descent condition: the generators measure the quotient through
    degree 2 exactly when their coproduct actions map the relations into
    the relation span.  Seeded single-entry perturbations land on both
    sides."""
    rep, space = request.getfixturevalue(name)
    rng = random.Random(name)
    outcomes = []
    for poly in ("x - q", "x + q^-1"):
        rels = relations_from_image(space, parse_poly(poly))
        rs = complete_rewrite(rels, 2)
        for _ in range(10):
            bad = _perturbed(rep, rng)
            measures = check_measuring(bad, rs, max_degree=2).passed
            preserved = check_ideal_preserved(bad, rels).passed
            assert measures == preserved, (poly, bad.name)
            outcomes.append(measures)
    assert set(outcomes) == {True, False}


def _recount(report, actions, rs, pairs, symbols, show_residual) -> list:
    """Compare every (symbol, pair) residual with the Sweedler-split
    reference, coefficients and rendering, and check each report item
    against a recount of its counterexamples and first witness.  Returns
    whether each residual is zero."""
    assert len(report.items) == len(symbols)
    zeros = []
    context = _MeasuringContext(actions, rs)
    for s, item in zip(symbols, report.items):
        bad, witness = 0, ""
        for a, b in pairs:
            k = len(a) + len(b)
            residual = vector_to_poly(context.measuring_residual(
                s, context.ideal_vector(a + b), k), rs.alphabet, k)
            expect = measuring_residual_reference(actions, rs, s, a, b)
            assert residual == expect, (s, a, b)
            assert residual.render(rs.names) == expect.render(rs.names), \
                (s, a, b)
            zeros.append(expect.is_zero())
            if expect.is_zero():
                continue
            bad += 1
            if not witness:
                witness = (f"a={word_str(a, rs.names)} "
                           f"b={word_str(b, rs.names)}")
                if show_residual:
                    witness += " residual=" + expect.render(rs.names)
        detail = f"{bad} counterexamples; first: {witness}" if bad else ""
        assert (item.passed, item.detail) == (bad == 0, detail)
    return zeros


def _measuring_cases(sl2, sl3):
    """(representation, rewrite system, degree) of exhaustive measuring
    checks: the bench's sl:3 and adjoint inputs, which pass, and seeded
    perturbations of E and F in sl:2 and sl:3, most of which fail."""
    rep3, space3 = sl3
    for poly in ("x - q", "x + q^-1"):
        rs = complete_rewrite(
            relations_from_image(space3, parse_poly(poly)), 4)
        yield rep3, rs, 4
    adj, adj_space = adjoint_sl2()
    cone = complete_rewrite(
        relations_from_image(adj_space, parse_poly("x - q^2")), 3)
    yield adj, cone, 3
    for name, (rep, space) in (("sl2", sl2), ("sl3", sl3)):
        rng = random.Random(f"residual {name}")
        for poly in ("x - q", "x + q^-1"):
            rs = complete_rewrite(
                relations_from_image(space, parse_poly(poly)), 3)
            for _ in range(3):
                yield _perturbed(rep, rng, kinds="EF"), rs, 3


def test_measuring_residual_agrees_with_the_sweedler_split(sl2, sl3):
    """NF(sigma(c)(NF(ab) - ab)) equals the term-by-term Sweedler split on
    the bench's inputs and on seeded perturbations of E and F, and each
    report counts its counterexamples pair by pair."""
    zeros = []
    for rep, rs, degree in _measuring_cases(sl2, sl3):
        report = check_measuring(rep, rs, max_degree=degree)
        assert "exhaustive" in report.notes[0]
        zeros += _recount(report, rep.actions, rs,
                          _monomial_pairs(rs, degree),
                          rep.presentation.generators, True)
    # x1 x1 = x2 x1 completes with the lead x1 x2 x1, which splits into
    # normal words as x1 | x2 x1 and x1 x2 | x1: a count of failing product
    # words would read 4 where 5 pairs fail
    plane = relations_from_image(classical_space(2), parse_poly("x - 1"))
    cubic = RelationSet(2, [NCPoly({(0, 0): ONE, (1, 0): -ONE})])
    symbols = ["X1", "X2", "X3"]
    actions = ActionTable(GeneratorCoalgebra.classical(symbols),
                          dict(zip(symbols, sl2_lie_actions())), 2)
    for rels, degree in ((plane, 5), (cubic, 3)):
        rs = complete_rewrite(rels, degree)
        report = check_derivation_measuring(sl2_lie_actions(), rs,
                                            max_degree=degree)
        zeros += _recount(report, actions, rs, _monomial_pairs(rs, degree),
                          symbols, False)
    assert (0, 1, 0) in rs.rules and not report.passed
    assert set(zeros) == {True, False}


def test_measuring_works_on_word_indices_one_ideal_vector_per_word(
        sl3, monkeypatch):
    """A passing check renders no residual: it makes no polynomial of one,
    and the ideal vector NF(ab) - ab of each product word is built once,
    however many symbols the check covers."""
    import braidalg.uqg as uqg

    def refuse(*args):
        raise AssertionError("a residual was made a polynomial")
    monkeypatch.setattr(uqg, "vector_to_poly", refuse)
    built = []
    ideal_vector = uqg._MeasuringContext.ideal_vector

    def spy(self, word):
        built.append(word)
        return ideal_vector(self, word)
    monkeypatch.setattr(uqg._MeasuringContext, "ideal_vector", spy)
    rep, space = sl3
    rs = complete_rewrite(relations_from_image(space, parse_poly("x - q")), 4)
    report = check_measuring(rep, rs, max_degree=4)
    assert report.passed and "exhaustive" in report.notes[0]
    assert len(report.items) == 8
    words = {a + b for a, b in _monomial_pairs(rs, 4)}
    assert len(built) == len(words) and set(built) == words


def test_any_assignment_measures_the_tensor_algebra(sl2):
    """P(V) measures T(V) for any assignment of matrices: the perturbed sl:2
    of criterion 7 measures the free algebra, by the Sweedler split too,
    though it breaks the defining relations and the x - q quotient."""
    rep, space = sl2
    assign = dict(rep.assign)
    entries = [list(row) for row in assign[Gen("E", 0)].entries]
    entries[0][0] = ONE
    assign[Gen("E", 0)] = SymMatrix(entries)
    bad = Representation(rep.presentation, assign, name="perturbed")
    free = complete_rewrite(RelationSet(2, []), 3)
    report = check_measuring(bad, free, max_degree=3)
    assert report.passed and "exhaustive over 49" in report.notes[0]
    assert all(
        measuring_residual_reference(bad.actions, free, g, a, b).is_zero()
        for g in bad.presentation.generators
        for a, b in _monomial_pairs(free, 3))
    assert not check_representation(bad).passed
    sym = complete_rewrite(relations_from_image(space, parse_poly("x - q")), 3)
    assert not check_measuring(bad, sym, max_degree=3).passed


def test_derivation_measuring_refuses_non_square_matrices():
    plane = complete_rewrite(
        relations_from_image(classical_space(2), parse_poly("x - 1")), 2)
    wide = SymMatrix.zeros(2, 3)
    for actions in ([wide], [SymMatrix.identity(2), wide]):
        with pytest.raises(ValueError, match="square"):
            check_derivation_measuring(actions, plane, max_degree=2)

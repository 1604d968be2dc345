import pytest

from braidalg.builtin import (adjoint_sl2, builtin_sl, classical_space,
                              sl2_lie_actions, sl_rtt_matrix,
                              sp4_symmetric_relations, resolve_builtin)
from braidalg.linalg import SymMatrix, check_braid, flip_matrix, minimal_poly
from braidalg.linalg import nullspace
from braidalg.ncalg import complete_rewrite, hilbert, relations_from_image
from braidalg.scalar import ONE, Q, parse_poly, parse_scalar, q_integer
from braidalg.uqg import (Gen, check_ideal_preserved, check_measuring,
                          check_preserves_R, check_representation)


def test_vector_representation_matrices(sl2):
    rep, _ = sl2
    K = rep.matrix(Gen("K", 0))
    assert K == SymMatrix.from_diagonal([Q ** -1, Q])
    assert rep.matrix(Gen("E", 0)) == SymMatrix.unit(2, 1, 0)
    assert rep.matrix(Gen("F", 0)) == SymMatrix.unit(2, 0, 1)


def test_vector_representation_matrices_sl3(sl3):
    rep, _ = sl3
    K2 = rep.matrix(Gen("K", 1))
    assert K2 == SymMatrix.from_diagonal([ONE, Q ** -1, Q])
    assert rep.matrix(Gen("E", 1)) == SymMatrix.unit(3, 2, 1)


def test_builtin_rejects_small_n():
    with pytest.raises(ValueError):
        builtin_sl(1)
    with pytest.raises(ValueError):
        resolve_builtin("sp:4")


def test_braid_and_hecke_for_all_builtins(sl2, sl3, sl4):
    for rep, space in (sl2, sl3, sl4):
        n = space.dim
        assert check_braid(space.braiding).holds
        hecke = (space.braiding - SymMatrix.identity(n * n) * Q) * \
            (space.braiding + SymMatrix.identity(n * n) * Q ** -1)
        assert hecke.is_zero()
        assert minimal_poly(space.braiding) == [-ONE, Q ** -1 - Q, ONE]


def test_braiding_is_rtt_composed_with_flip(sl3):
    _, space = sl3
    assert space.braiding == space.rtt * flip_matrix(3)


def test_classical_space_is_flip():
    space = classical_space(3)
    assert space.braiding == flip_matrix(3)
    assert space.rtt == SymMatrix.identity(9)


def test_sl2_lie_actions_bracket():
    e, f, h = sl2_lie_actions()
    assert e * f - f * e == h
    assert h * e - e * h == e * 2
    assert h * f - f * h == f * (-2)


def test_sp4_fixture_shape():
    rels = sp4_symmetric_relations()
    assert rels.alphabet == 4
    assert len(rels) == 6


def test_adjoint_representation_chain():
    rep, space = adjoint_sl2()
    assert rep.dim == 3
    assert check_representation(rep).passed
    assert check_braid(space.braiding).holds
    assert check_preserves_R(rep, space).passed
    # three distinct eigenvalues: minimal polynomial has degree 3
    assert len(minimal_poly(space.braiding)) == 4


def test_adjoint_quantum_lie_algebra_relations():
    """The quotient by f(braiding) with f = x + q^-2 reproduces the
    three-generator quantum Lie algebra presentation: after reversing the
    basis order (x1 <-> x3) and rescaling the middle generator by [2], the
    six relations read
        x1^2 = x3^2 = 0,  x1 x2 = -q^2 x2 x1,  x2 x3 = -q^2 x3 x2,
        x1 x3 = -x3 x1,   x2^2 = (q^2-1)/(q+q^-1) x1 x3.
    """
    rep, space = adjoint_sl2()
    rels = relations_from_image(space, parse_poly("x + q^-2"))
    assert len(rels) == 6
    by_lead = {min(r.coeffs): r.coeffs for r in rels.relations}
    assert by_lead[(0, 0)] == {(0, 0): ONE}
    assert by_lead[(2, 2)] == {(2, 2): ONE}
    assert by_lead[(0, 2)] == {(0, 2): ONE, (2, 0): ONE}
    # derived basis is weight-increasing, so the paper's x1 is our x3:
    # our x2 x3 = -q^-2 x3 x2 is the printed x1 x2 = -q^2 x2 x1
    assert by_lead[(1, 2)] == {(1, 2): ONE, (2, 1): Q ** -2}
    assert by_lead[(0, 1)] == {(0, 1): ONE, (1, 0): Q ** -2}
    # middle-square relation: x2^2 = c x3 x1 with the scale of x2 free;
    # normalizing x2 by [2] gives the printed (q^2-1)/(q+q^-1)
    sq = by_lead[(1, 1)]
    coeff = -sq[(2, 0)]
    printed = parse_scalar("(q^2 - 1)/(q + q^-1)")
    assert coeff == printed * (q_integer(2) ** 2)
    # the quotient is a flat 3-generator exterior-like algebra
    rs = complete_rewrite(rels, 4)
    assert hilbert(rs, 4) == [1, 3, 3, 1, 0]


def test_adjoint_measuring_and_ideal():
    rep, space = adjoint_sl2()
    rels = relations_from_image(space, parse_poly("x + q^-2"))
    assert check_ideal_preserved(rep, rels).passed
    rs = complete_rewrite(rels, 4)
    assert check_measuring(rep, rs, max_degree=3).passed


def test_rtt_matrix_off_diagonal_count():
    rtt = sl_rtt_matrix(3)
    qm = parse_scalar("q - q^-1")
    hits = sum(1 for row in rtt.entries for e in row if e == qm)
    assert hits == 3  # one per pair i < j


def test_adjoint_braiding_eigenspace_at_minus_q_inverse_squared():
    _, space = adjoint_sl2()
    shifted = space.braiding + SymMatrix.identity(9) * Q ** -2
    rows = [{j: v for j, v in enumerate(row) if not v.is_zero()}
            for row in shifted.entries]
    assert len(nullspace(rows, 9)) == 3

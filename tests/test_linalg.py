import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidalg.linalg import (BraidedSpace, BraidEquationError, SymMatrix,
                             check_braid, eval_poly_at_matrix,
                             extend_braiding, flip_matrix, image_subspace,
                             invert, kron, minimal_poly, solve_commutant)
from braidalg.linalg import Echelon, linear_solve, vec_add_scaled
from braidalg.linalg import SparseOperator
from braidalg.scalar import (LaurentPoly, ONE, Q, ZERO, Scalar, parse_poly,
                             parse_scalar)
from braidalg.builtin import sl_rtt_matrix
from braidalg.builtin import adjoint_sl2, builtin_sl, classical_space
from braidalg.uqg import coproduct_action


def test_kron_identity():
    i2 = SymMatrix.identity(2)
    assert kron(i2, i2) == SymMatrix.identity(4)


def test_kron_unit_index_convention():
    # e_12 (x) e_21 has its single 1 at row (0,1) -> 1, column (1,0) -> 2
    a = SymMatrix.unit(2, 0, 1)
    b = SymMatrix.unit(2, 1, 0)
    k = kron(a, b)
    for i in range(4):
        for j in range(4):
            expect = ONE if (i, j) == (1, 2) else ZERO
            assert k.entries[i][j] == expect


def _random_matrix(rng, n):
    return SymMatrix([[Scalar(LaurentPoly({rng.randint(-1, 1):
                                           Fraction(rng.randint(-2, 2))}))
                       for _ in range(n)] for _ in range(n)])


def test_kron_mixed_product():
    rng = random.Random(3)
    for _ in range(5):
        a, b, c, d = (_random_matrix(rng, 2) for _ in range(4))
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_check_braid_trivial_cases():
    assert check_braid(SymMatrix.identity(4)).holds
    assert check_braid(flip_matrix(2)).holds
    assert check_braid(flip_matrix(3)).holds


def test_check_braid_counterexample():
    # a diagonal but non-braid operator: distinct scales break the equation
    bad = SymMatrix.from_diagonal([Q, ONE, ONE, ONE]) + \
        SymMatrix.unit(4, 1, 2)
    result = check_braid(bad)
    assert not result.holds
    assert result.counterexample is not None
    i, j, k = result.counterexample
    assert all(0 <= x < 2 for x in (i, j, k))


def test_minimal_poly_identity_and_nilpotent():
    assert minimal_poly(SymMatrix.identity(3)) == [-ONE, ONE]
    nil = SymMatrix.unit(2, 0, 1)
    assert minimal_poly(nil) == [ZERO, ZERO, ONE]


def test_minimal_poly_builtin_braidings():
    # (x - q)(x + q^-1) = x^2 + (q^-1 - q) x - 1, by expanding the factors
    expected = [-ONE, Q ** -1 - Q, ONE]
    for n in (2, 3, 4):
        space = BraidedSpace(sl_rtt_matrix(n))
        mp = minimal_poly(space.braiding)
        assert mp == expected
        # neither factor alone annihilates
        for single in (parse_poly("x - q"), parse_poly("x + q^-1")):
            assert not eval_poly_at_matrix(single, space.braiding).is_zero()


def test_braided_space_construction_validates():
    spaces = [BraidedSpace(sl_rtt_matrix(n)) for n in (2, 3)]
    for sp in spaces:
        assert sp.braiding * sp.braiding_inverse == \
            SymMatrix.identity(sp.dim ** 2)
    with pytest.raises(BraidEquationError):
        BraidedSpace.from_braiding(SymMatrix.from_diagonal([Q, ONE, ONE, ONE])
                                   + SymMatrix.unit(4, 1, 2))


def test_image_subspace_examples(sl2):
    _, space = sl2
    zero = SymMatrix.zeros(4)
    assert image_subspace(zero) == []
    im_sym = image_subspace(eval_poly_at_matrix(parse_poly("x - q"),
                                                space.braiding))
    assert len(im_sym) == 1
    assert list(im_sym[0]) == [ZERO, ONE, -Q, ZERO]  # v1v2 - q v2v1
    im_ext = image_subspace(eval_poly_at_matrix(parse_poly("x + q^-1"),
                                                space.braiding))
    assert len(im_ext) == 3


def test_rank_split_is_diagonalizable(sl2, sl3, sl4):
    for rep, space in (sl2, sl3, sl4):
        n = space.dim
        r1 = len(image_subspace(eval_poly_at_matrix(parse_poly("x - q"),
                                                    space.braiding)))
        r2 = len(image_subspace(eval_poly_at_matrix(parse_poly("x + q^-1"),
                                                    space.braiding)))
        assert r1 + r2 == n * n


def test_extend_braiding_anchors(sl2):
    _, space = sl2
    assert extend_braiding(space, 1, 1).operator == space.braiding
    assert extend_braiding(space, 0, 3).operator == SymMatrix.identity(8)
    assert extend_braiding(space, 2, 0).operator == SymMatrix.identity(4)
    i2 = SymMatrix.identity(2)
    psi = space.braiding
    # (2,1) factors as (psi x 1)(1 x psi), adjacent pairs applied in order
    assert extend_braiding(space, 2, 1).operator == \
        kron(psi, i2) * kron(i2, psi)
    assert extend_braiding(space, 1, 2).operator == \
        kron(i2, psi) * kron(psi, i2)


def test_extend_braiding_pair_orders_agree(sl2, sl3):
    for rep, space in (sl2, sl3):
        for m, n in ((2, 1), (1, 2), (2, 2)):
            left = extend_braiding(space, m, n, "left").operator
            right = extend_braiding(space, m, n, "right").operator
            assert left == right


def _kron_id(space, op, left, right):
    mats = []
    if left:
        mats.append(SymMatrix.identity(space.dim ** left))
    mats.append(op)
    if right:
        mats.append(SymMatrix.identity(space.dim ** right))
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def test_braiding_consistency_with_concatenation(sl2, sl3):
    # psi^(a+b, c) = (psi^(a,c) x 1_b)(1_a x psi^(b,c)) and
    # psi^(a, b+c) = (1_b x psi^(a,c))(psi^(a,b) x 1_c), total degree <= 3
    for rep, space in (sl2, sl3):
        triples = [(a, b, c) for a in range(3) for b in range(3)
                   for c in range(3) if 0 < a + b + c <= 3]
        for a, b, c in triples:
            combined = extend_braiding(space, a + b, c).operator
            factored = (_kron_id(space, extend_braiding(space, a, c).operator, 0, b)
                        * _kron_id(space, extend_braiding(space, b, c).operator, a, 0))
            assert combined == factored, (a, b, c)
            combined2 = extend_braiding(space, a, b + c).operator
            factored2 = (_kron_id(space, extend_braiding(space, a, c).operator, b, 0)
                         * _kron_id(space, extend_braiding(space, a, b).operator, 0, c))
            assert combined2 == factored2, (a, b, c)


def test_solve_commutant_identity():
    basis = solve_commutant([SymMatrix.identity(2)])
    assert len(basis) == 4  # the full matrix space


def test_solve_commutant_sl2(sl2):
    rep, space = sl2
    actions = [coproduct_action(rep, g, 2)
               for g in rep.presentation.generators]
    basis = solve_commutant(actions)
    assert len(basis) == 2  # two irreducible summands in V (x) V
    for m in basis:
        for a in actions:
            assert m * a == a * m
    # the braiding lies in that commutant
    flat = []
    for m in basis:
        flat.append({i * 4 + j: v for i, row in enumerate(m.entries)
                     for j, v in enumerate(row) if not v.is_zero()})
    from braidalg.linalg import linear_solve
    target = {i * 4 + j: v for i, row in enumerate(space.braiding.entries)
              for j, v in enumerate(row) if not v.is_zero()}
    assert linear_solve(flat, target, 16) is not None


def test_invert_singular_returns_none():
    assert invert(SymMatrix.unit(2, 0, 1)) is None
    m = SymMatrix([[Q, ONE], [ZERO, Q ** -1]])
    inv = invert(m)
    assert inv is not None and m * inv == SymMatrix.identity(2)


def test_rtt_entries_match_printed_matrix(sl2):
    # q on matching diagonal pairs, off-block (q - q^-1) at the i<j slot
    _, space = sl2
    rtt = space.rtt
    assert rtt.entries[0][0] == Q
    assert rtt.entries[3][3] == Q
    assert rtt.entries[1][1] == ONE
    assert rtt.entries[2][2] == ONE
    assert rtt.entries[1][2] == parse_scalar("q - q^-1")
    assert rtt.entries[2][1] == ZERO


def _crossings(space, positions, total):
    """The dense product of the braidings on adjacent factors (p, p + 1),
    1-based, the first listed position applied last."""
    out = SymMatrix.identity(space.dim ** total)
    for p in positions:
        out = out * _kron_id(space, space.braiding, p - 1, total - p - 1)
    return out


def test_extend_braiding_equals_dense_crossings(sl2):
    _, space = sl2
    # psi^(2,2) = (psi^(1,2) x 1)(1 x psi^(1,2)) with
    # psi^(1,2) = (1 x psi)(psi x 1); psi^(3,1) moves the last strand to
    # the front
    expected = {(2, 2): _crossings(space, (2, 1, 3, 2), 4),
                (3, 1): _crossings(space, (1, 2, 3), 4)}
    for (m, n), dense in expected.items():
        for order in ("left", "right"):
            assert extend_braiding(space, m, n, order).operator == dense, \
                (m, n, order)


def test_extend_braiding_rejects_bad_order_on_empty_blocks(sl2):
    _, space = sl2
    for m, n in ((0, 2), (2, 0), (0, 0)):
        with pytest.raises(ValueError, match="pair_order"):
            extend_braiding(space, m, n, "middle")


_scalars = st.builds(lambda c, e: Scalar(LaurentPoly({e: Fraction(c)})),
                     st.integers(-2, 2), st.integers(-1, 1))
_vectors = st.dictionaries(st.integers(0, 5), _scalars, max_size=4).map(
    lambda v: {i: c for i, c in v.items() if not c.is_zero()})


@settings(max_examples=60, deadline=None)
@given(basis=st.lists(_vectors, max_size=4), vec=_vectors)
def test_echelon_reduce_clears_pivots_within_the_span(basis, vec):
    ech = Echelon()
    for b in basis:
        ech.insert(b)
    reduced = ech.reduce(vec)
    assert not set(reduced) & set(ech.pivot_rows)
    diff = dict(vec)
    vec_add_scaled(diff, reduced, -ONE)
    coeffs = linear_solve(basis, diff, 6)
    assert coeffs is not None
    combo: dict = {}
    for b, c in zip(basis, coeffs):
        vec_add_scaled(combo, b, c)
    assert combo == diff


def test_sparse_braiding_and_extensions_match_dense_views():
    spaces = [builtin_sl(2)[1], builtin_sl(3)[1], adjoint_sl2()[1],
              classical_space(2)]
    for space in spaces:
        assert space.psi.to_matrix() == space.braiding
        assert SparseOperator.from_matrix(space.braiding) == space.psi
        for m in range(3):
            for n in range(3):
                ext = extend_braiding(space, m, n)
                dense = ext.operator
                assert ext.sparse.to_matrix() == dense
                # no stored zeros: the sparse form is the canonical one
                assert SparseOperator.from_matrix(dense) == ext.sparse

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from braidalg.linalg import (BraidedSpace, BraidEquationError, SymMatrix,
                             _int_sqrt, check_braid, commutator_rows,
                             eval_poly_at_matrix,
                             extend_braiding, flip_matrix, image_subspace,
                             invert, kron, minimal_poly, solve_commutant)
from braidalg.linalg import (Echelon, linear_solve, vec_add_scaled,
                             vec_kron)
from braidalg.scalar import (LaurentPoly, ONE, Q, ZERO, Scalar, parse_poly,
                             parse_scalar)
from braidalg.builtin import sl_rtt_matrix
from braidalg.builtin import adjoint_sl2, builtin_sl, classical_space
from braidalg.frt import frt_relations
from braidalg.ncalg import relations_from_image
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
        assert eval_poly_at_matrix(mp, space.braiding).is_zero()


def test_polynomials_of_non_square_matrices_are_refused():
    wide = SymMatrix([[ONE, ZERO, Q], [ZERO, ONE, ZERO]])
    for coeffs in ([Q], [-Q, ONE]):
        with pytest.raises(ValueError, match="non-square"):
            eval_poly_at_matrix(coeffs, wide)
    with pytest.raises(ValueError, match="non-square"):
        minimal_poly(wide)


def test_braided_space_construction_validates():
    spaces = [BraidedSpace(sl_rtt_matrix(n)) for n in (2, 3)]
    for sp in spaces:
        assert sp.braiding * invert(sp.braiding) == \
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
    assert extend_braiding(space, 1, 1) == space.braiding
    assert extend_braiding(space, 0, 3) == SymMatrix.identity(8)
    assert extend_braiding(space, 2, 0) == SymMatrix.identity(4)
    i2 = SymMatrix.identity(2)
    psi = space.braiding
    # (2,1) factors as (psi x 1)(1 x psi), adjacent pairs applied in order
    assert extend_braiding(space, 2, 1) == \
        kron(psi, i2) * kron(i2, psi)
    assert extend_braiding(space, 1, 2) == \
        kron(i2, psi) * kron(psi, i2)


def test_extend_braiding_pair_orders_agree(sl2, sl3):
    # the other recipe walks the right block: strand j of it crosses the m
    # left strands in turn, innermost strand (j = 1) first; the braid
    # equation makes both agree
    for rep, space in (sl2, sl3):
        for m, n in ((2, 1), (1, 2), (2, 2)):
            right = [p for j in range(1, n + 1)
                     for p in range(m + j - 1, j - 1, -1)]
            assert extend_braiding(space, m, n) == \
                _crossings(space, right[::-1], m + n)


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
            combined = extend_braiding(space, a + b, c)
            factored = (_kron_id(space, extend_braiding(space, a, c), 0, b)
                        * _kron_id(space, extend_braiding(space, b, c), a, 0))
            assert combined == factored, (a, b, c)
            combined2 = extend_braiding(space, a, b + c)
            factored2 = (_kron_id(space, extend_braiding(space, a, c), b, 0)
                         * _kron_id(space, extend_braiding(space, a, b), 0, c))
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
    assert linear_solve(flat, [target], 16) != [None]


_commutator_pool = st.sampled_from([ZERO, ONE, -ONE, Q, -Q, Q ** -1])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_commutator_rows_read_the_commutator_entries(data):
    s = data.draw(st.integers(1, 3))
    square = st.lists(st.lists(_commutator_pool, min_size=s, max_size=s),
                      min_size=s, max_size=s).map(SymMatrix)
    a, m = data.draw(square), data.draw(square)
    rows = commutator_rows(a)
    assert len(rows) == s * s
    vec = m.vec()
    commutator = (m * a - a * m).entries
    for i in range(s):
        for j in range(s):
            value = ZERO
            for k, c in rows[i * s + j].items():
                value = value + c * vec.get(k, ZERO)
            assert value == commutator[i][j], (i, j)


def test_int_sqrt_is_exact_beyond_float_precision():
    # a float square root of (2**53 + 1)**2 rounds to 2**53
    big = 2 ** 53 + 1
    assert _int_sqrt(big * big) == big
    for n2 in (2, 3, 8, big * big - 1, big * big + 1):
        with pytest.raises(ValueError, match="not a perfect square"):
            _int_sqrt(n2)


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
        assert extend_braiding(space, m, n) == dense, (m, n)


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
    coeffs, = linear_solve(basis, [diff], 6)
    assert coeffs is not None
    combo: dict = {}
    for i, c in coeffs.items():
        vec_add_scaled(combo, basis[i], c)
    assert combo == diff


def test_sparse_braiding_and_extensions_match_dense_views():
    spaces = [builtin_sl(2)[1], builtin_sl(3)[1], adjoint_sl2()[1],
              classical_space(2)]
    for space in spaces:
        assert SymMatrix(space.braiding.entries) == space.braiding
        for m in range(3):
            for n in range(3):
                ext = extend_braiding(space, m, n)
                # no stored zeros: the sparse form is the canonical one
                assert SymMatrix(ext.entries) == ext
                assert all(not v.is_zero() for col in ext.columns
                           for v in col.values())


def test_vec_stacks_columns():
    # entry (i, j) of a 3x2 matrix sits at index j * 3 + i
    m = SymMatrix([[ONE, Q], [ZERO, -ONE], [Q ** 2, ZERO]])
    assert m.vec() == {0: ONE, 2: Q ** 2, 3: Q, 4: -ONE}


# --- sympy's DomainMatrix over ZZ(q) as an independent oracle ---------------

_q = sympy.Symbol("q")
_K = sympy.ZZ.frac_field(_q)
_pool = st.sampled_from([ZERO, ZERO, ONE, -ONE, Q, Q ** -1, Q - Q ** -1,
                         Scalar.from_int(2), ONE / (Q + ONE)])
_squares = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(_pool, min_size=n, max_size=n), min_size=n, max_size=n)).map(
    SymMatrix)


def _domain_scalar(x: Scalar):
    def laurent(p):
        return sum((sympy.Rational(v.numerator, v.denominator) * _q ** e
                    for e, v in p.coeffs.items()), sympy.Integer(0))
    return _K.from_sympy(laurent(x.num) / laurent(x.den))


def _domain(m: SymMatrix) -> DomainMatrix:
    return DomainMatrix([[_domain_scalar(e) for e in row] for row in m.entries],
                        (m.rows, m.cols), _K)


def _domain_columns(vectors, dim: int) -> DomainMatrix:
    return _domain(SymMatrix.from_columns(dim, vectors))


@settings(max_examples=60, deadline=None)
@given(m=_squares)
def test_invert_agrees_with_sympy(m):
    ref = _domain(m)
    inv = invert(m)
    if ref.rank() < m.rows:
        assert inv is None
    else:
        assert inv is not None and _domain(inv) == ref.inv()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_linear_solve_agrees_with_sympy(data):
    dim = data.draw(st.integers(1, 3))
    vectors = st.lists(_pool, min_size=dim, max_size=dim).map(
        lambda v: {i: c for i, c in enumerate(v) if not c.is_zero()})
    basis = data.draw(st.lists(vectors, min_size=1, max_size=3))
    targets = []
    for _ in range(data.draw(st.integers(1, 2))):
        combo: dict = {}
        for b in basis:
            vec_add_scaled(combo, b, data.draw(_pool))
        targets.append(combo)
    targets += data.draw(st.lists(vectors, max_size=3))
    solutions = linear_solve(basis, targets, dim)
    assert len(solutions) == len(targets)
    ref = _domain_columns(basis, dim)
    for target, coeffs in zip(targets, solutions):
        t = _domain_columns([target], dim)
        assert (coeffs is None) == (ref.hstack(t).rank() > ref.rank())
        if coeffs is not None:
            assert ref.matmul(_domain_columns([coeffs], len(basis))) == t


@settings(max_examples=40, deadline=None)
@given(m=_squares)
def test_minimal_poly_agrees_with_sympy(m):
    mp = minimal_poly(m)
    n = m.rows
    powers = [_domain(SymMatrix.identity(n))]
    for _ in range(n):
        powers.append(powers[-1].matmul(_domain(m)))
    # the degree is the rank of the flattened powers I, M, ..., M^n
    flat = DomainMatrix([[e for row in p.to_list() for e in row]
                         for p in powers], (n + 1, n * n), _K)
    assert len(mp) - 1 == flat.rank()
    assert mp[-1] == ONE
    zero = value = _domain(SymMatrix.zeros(n))
    for c, p in zip(mp, powers):
        value = value + p.mul(_domain_scalar(c))
    assert value == zero


_row_vectors = st.dictionaries(st.integers(0, 5), _pool, max_size=4).map(
    lambda v: {i: c for i, c in v.items() if not c.is_zero()})


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_echelon_rows_do_not_depend_on_the_insert_order(data):
    rows = data.draw(st.lists(_row_vectors, max_size=6))
    shuffled = data.draw(st.permutations(rows))
    ech, again = Echelon(), Echelon()
    for row in rows:
        ech.insert(row)
    for row in shuffled:
        again.insert(row)
    assert again.pivot_rows == ech.pivot_rows


_SPANNED_CASES = {
    # 81 commutator rows of rank 46 over the 81 t-words
    "adjoint sl:2 FRT": lambda: frt_relations(adjoint_sl2()[1]).relations,
    "sl:3 FRT": lambda: frt_relations(builtin_sl(3)[1]).relations,
    "adjoint sl:2 x + q^-1": lambda: relations_from_image(
        adjoint_sl2()[1], parse_poly("x + q^-1")),
}


@pytest.mark.parametrize("name", list(_SPANNED_CASES))
def test_spanned_by_is_the_reduced_echelon_form_of_sympy(name,
                                                         spanned_by_inputs):
    # the vectors handed to spanned_by, reduced by sympy in the given order:
    # the cheapest-first inserts must end at the same pivots and entries
    rels = _SPANNED_CASES[name]()
    (vectors,) = spanned_by_inputs
    size = rels.alphabet ** 2

    def dense(vec):
        return [_domain_scalar(vec[j]) if j in vec else _K.zero
                for j in range(size)]

    ref, pivots = DomainMatrix([dense(v) for v in vectors],
                               (len(vectors), size), _K).rref()
    assert pivots == tuple(sorted(rels.span.pivot_rows))
    assert ref.to_list()[:len(pivots)] == [dense(v) for v in rels.span.basis()]


# --- the sparse-vector kernel against plain dict arithmetic -----------------

@settings(max_examples=100, deadline=None)
@given(target=_vectors, src=_vectors, c=_pool)
@example(target={0: Q, 2: ONE}, src={0: Q, 1: Q}, c=-ONE)
@example(target={1: Q}, src={1: Q, 3: -Q}, c=ZERO)
@example(target={}, src={4: Q ** -1}, c=ONE)
def test_vec_add_scaled_matches_a_dict_reference(target, src, c):
    expected = {}
    for i in set(target) | set(src):
        v = target.get(i, ZERO) + c * src.get(i, ZERO)
        if not v.is_zero():
            expected[i] = v
    got = dict(target)
    vec_add_scaled(got, src, c)
    assert got == expected
    assert not any(v.is_zero() for v in got.values())


@settings(max_examples=100, deadline=None)
@given(a=_vectors, b=_vectors)
@example(a={0: ONE, 3: ONE}, b={0: Q, 5: -Q})
def test_vec_kron_matches_a_dict_reference(a, b):
    expected = {}
    for x in range(6):
        for y in range(6):
            v = a.get(x, ZERO) * b.get(y, ZERO)
            if not v.is_zero():
                expected[x * 6 + y] = v
    assert vec_kron(a, b, 6) == expected


def test_vec_kron_copies_a_unit_entry_without_a_product(monkeypatch):
    calls = []
    monkeypatch.setattr(Scalar, "__mul__",
                        lambda *args: calls.append(args))
    assert vec_kron({0: ONE}, {0: Q, 1: -Q}, 2) == {0: Q, 1: -Q}
    assert calls == []


def test_braided_space_builds_no_inverse(sl3, monkeypatch):
    import braidalg.linalg
    monkeypatch.setattr(braidalg.linalg, "invert", None)
    _, space = sl3
    assert BraidedSpace(space.rtt).braiding == space.braiding

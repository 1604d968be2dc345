"""The action table against dense references built here from the whole
(k-1)-fold coproduct of `oracles.iterated_coproduct` and the row-list
Kronecker products of `oracles.py`, and `SymMatrix` arithmetic against that
row-list reference."""

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (dense_apply, dense_det, dense_identity, dense_kron,
                     dense_kron_all, dense_product, dense_rows, dense_scale,
                     dense_sum, dense_zeros, iterated_coproduct)

from braidalg.builtin import adjoint_sl2, builtin_sl, sl2_lie_actions
from braidalg.linalg import SymMatrix, invert, kron
from braidalg.scalar import ONE, Q, ZERO, parse_scalar
from braidalg.uqg import (ActionTable, GeneratorCoalgebra, coproduct_action,
                          word_action)


def _dense_word(matrices: dict, word, dim: int) -> list[list]:
    out = dense_identity(dim)
    for s in word:
        out = dense_product(out, dense_rows(matrices[s]))
    return out


def _dense_extended(coalg, matrices: dict, symbol, k: int,
                    dim: int) -> list[list]:
    """sum c * (w_1 (x) ... (x) w_k) over the (k-1)-fold coproduct."""
    if k == 0:
        return [[coalg.counit[symbol]]]
    out = dense_zeros(dim ** k, dim ** k)
    for words, c in iterated_coproduct(coalg, symbol, k):
        out = dense_sum(out, dense_scale(dense_kron_all(
            [_dense_word(matrices, w, dim) for w in words]), c))
    return out


def _table(spec):
    """(ActionTable, its symbols) for a builtin, the adjoint sl_2
    representation, the classical sl_2 derivations or a second-order
    operator Z with delta(Z) = Z (x) 1 + 1 (x) Z + q X (x) X, X primitive,
    whose coproduct has a coefficient other than 1."""
    if spec == "second-order":
        symbols = ["X", "Z"]
        delta = {"X": [(("X",), (), ONE), ((), ("X",), ONE)],
                 "Z": [(("Z",), (), ONE), ((), ("Z",), ONE),
                       (("X",), ("X",), Q)]}
        coalg = GeneratorCoalgebra(symbols, delta, {"X": ZERO, "Z": ZERO})
        matrices = {"X": SymMatrix([[ONE, Q], [ZERO, -ONE]]),
                    "Z": SymMatrix([[Q, ZERO], [ONE, -ONE]])}
        return ActionTable(coalg, matrices, 2), symbols
    if spec == "classical":
        symbols = ["X1", "X2", "X3"]
        matrices = dict(zip(symbols, sl2_lie_actions()))
        return (ActionTable(GeneratorCoalgebra.classical(symbols), matrices, 2),
                symbols)
    rep = adjoint_sl2()[0] if spec == "adjoint" else builtin_sl(int(spec[3:]))[0]
    return rep.actions, rep.presentation.generators


@pytest.mark.parametrize("spec, max_k", [("sl:2", 4), ("sl:3", 3),
                                         ("adjoint", 3), ("classical", 3),
                                         ("second-order", 4)])
def test_extended_actions_match_dense_reference(spec, max_k):
    table, symbols = _table(spec)
    for s in symbols:
        for k in range(max_k + 1):
            reference = _dense_extended(table.coalgebra, table.matrices, s, k,
                                        table.dim)
            assert dense_rows(table.extended(s, k)) == reference, (s, k)


def test_act_matches_dense_columns():
    table, symbols = _table("sl:3")
    word = (symbols[0], symbols[2], symbols[5])    # E1 F1 K2
    dense = dense_identity(27)
    for s in word:
        dense = dense_product(dense, _dense_extended(
            table.coalgebra, table.matrices, s, 3, 3))
    vec = {4: Q, 13: -ONE}
    result = table.act(word, vec, 3)
    assert result and result == dense_apply(dense, vec)


_SL2 = builtin_sl(2)[0]
_SL2_GENS = list(_SL2.presentation.generators)
_SL2_REFERENCE = {(g, k): _dense_extended(_SL2.presentation.coalgebra, _SL2.assign, g, k,
                                          2)
                  for g in _SL2_GENS for k in range(4)}


@settings(max_examples=40, deadline=None)
@given(word=st.lists(st.sampled_from(range(len(_SL2_GENS))), max_size=5),
       k=st.integers(min_value=0, max_value=3))
def test_word_action_is_product_of_dense_references(word, k):
    word = tuple(_SL2_GENS[i] for i in word)
    expected = dense_identity(2 ** k)
    for g in word:
        expected = dense_product(expected, _SL2_REFERENCE[(g, k)])
    assert dense_rows(word_action(_SL2, word, k)) == expected


def test_coproduct_action_is_dense_view_of_table(sl3):
    rep, _ = sl3
    for g in rep.presentation.generators:
        assert coproduct_action(rep, g, 2) == rep.actions.extended(g, 2)


def test_sparse_operator_matches_dense_operations():
    a = [[Q, ZERO, ONE], [ZERO, ZERO, ZERO], [ONE, -Q, ZERO]]
    b = [[ZERO, ONE], [Q, Q]]
    sa, sb = SymMatrix(a), SymMatrix(b)
    assert dense_rows(sa) == a
    assert all(not v.is_zero() for col in sa.columns for v in col.values())
    assert dense_rows(kron(sa, sb)) == dense_kron(a, b)
    assert dense_rows(sa * sa) == dense_product(a, a)
    assert sa.apply({0: ONE, 2: Q}) == {0: Q + Q, 2: ONE}
    assert dense_rows(SymMatrix.identity(3)) == dense_identity(3)


# entries of the random matrices: monomials, a rational number and a
# non-monomial fraction, with zero drawn often enough to leave gaps
_POOL = [ZERO, ONE, -ONE, Q, -Q ** -1, parse_scalar("1/2"),
         parse_scalar("(q + 1)/(q - 1)")]


def _rows(r: int, c: int):
    return st.lists(st.lists(st.sampled_from(_POOL), min_size=c, max_size=c),
                    min_size=r, max_size=r)


@st.composite
def _operands(draw):
    """(a, b, c, s): a and c of one shape, b multipliable by a on the right,
    s square, each 1x1 to 4x4."""
    dims = st.integers(min_value=1, max_value=4)
    r, k, n, m = draw(dims), draw(dims), draw(dims), draw(dims)
    return (draw(_rows(r, k)), draw(_rows(k, n)), draw(_rows(r, k)),
            draw(_rows(m, m)))


@settings(max_examples=60, deadline=None)
@given(ops=_operands(), vec_pool=st.lists(st.sampled_from(_POOL), min_size=4,
                                          max_size=4))
def test_sym_matrix_matches_row_list_reference(ops, vec_pool):
    a, b, c, s = ops
    ma, mb, mc, ms = (SymMatrix(x) for x in ops)
    for m, rows in ((ma, a), (mb, b), (mc, c), (ms, s)):
        assert SymMatrix(m.entries) == m
        assert dense_rows(m) == rows
        assert all(not v.is_zero() for col in m.columns for v in col.values())
    results = [
        (ma * mb, dense_product(a, b)),
        (ma + mc, dense_sum(a, c)),
        (ma - mc, dense_sum(a, dense_scale(c, -ONE))),
        (-ma, dense_scale(a, -ONE)),
        (ma * _POOL[6], dense_scale(a, _POOL[6])),
        (ma * 0, dense_scale(a, ZERO)),
        (kron(ma, mb), dense_kron(a, b)),
        (kron(mb, ms), dense_kron(b, s)),
        (ma.transpose(), [list(col) for col in zip(*a)]),
    ]
    for got, expected in results:
        assert dense_rows(got) == expected
        # no stored zeros: equal matrices have equal columns
        assert all(not v.is_zero() for col in got.columns for v in col.values())
    vec = {j: v for j, v in enumerate(vec_pool[:len(a[0])]) if not v.is_zero()}
    assert ma.apply(vec) == dense_apply(a, vec)
    inv = invert(ms)
    det = dense_det(s)
    if inv is None:
        assert det.is_zero()
    else:
        assert not det.is_zero()
        assert dense_product(s, dense_rows(inv)) == dense_identity(len(s))
        assert dense_product(dense_rows(inv), s) == dense_identity(len(s))

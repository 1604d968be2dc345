"""The sparse action table against dense references built here from the
iterated coproduct and dense Kronecker products."""

import pytest
from hypothesis import given, settings, strategies as st

from braidalg.builtin import adjoint_sl2, builtin_sl, sl2_lie_actions
from braidalg.linalg import SparseOperator, SymMatrix, kron, kron_all
from braidalg.scalar import ONE, Q, ZERO
from braidalg.uqg import (ActionTable, GeneratorCoalgebra, coproduct_action,
                          word_action)


def _dense_word(matrices: dict, word, dim: int) -> SymMatrix:
    out = SymMatrix.identity(dim)
    for s in word:
        out = out * matrices[s]
    return out


def _dense_extended(coalg, matrices: dict, symbol, k: int,
                    dim: int) -> SymMatrix:
    """sum c * (w_1 (x) ... (x) w_k) over the (k-1)-fold coproduct."""
    if k == 0:
        return SymMatrix([[coalg.counit[symbol]]])
    out = SymMatrix.zeros(dim ** k)
    for words, c in coalg.iterated_terms(symbol, k):
        out = out + kron_all([_dense_word(matrices, w, dim)
                              for w in words]) * c
    return out


def _table(spec):
    """(ActionTable, its symbols) for a builtin, the adjoint sl_2
    representation or the classical sl_2 derivations."""
    if spec == "classical":
        symbols = ["X1", "X2", "X3"]
        matrices = dict(zip(symbols, sl2_lie_actions()))
        return (ActionTable(GeneratorCoalgebra.classical(symbols), matrices, 2),
                symbols)
    rep = adjoint_sl2()[0] if spec == "adjoint" else builtin_sl(int(spec[3:]))[0]
    return rep.actions, rep.presentation.generators


@pytest.mark.parametrize("spec, max_k", [("sl:2", 4), ("sl:3", 3),
                                         ("adjoint", 3), ("classical", 3)])
def test_extended_actions_match_dense_reference(spec, max_k):
    table, symbols = _table(spec)
    for s in symbols:
        for k in range(max_k + 1):
            reference = _dense_extended(table.coalgebra, table.matrices, s, k,
                                        table.dim)
            assert table.extended(s, k).to_matrix() == reference, (s, k)


def test_act_matches_dense_columns():
    table, symbols = _table("sl:3")
    word = (symbols[0], symbols[2], symbols[5])    # E1 F1 K2
    dense = SymMatrix.identity(27)
    for s in word:
        dense = dense * _dense_extended(table.coalgebra, table.matrices, s, 3,
                                        3)
    vec = {4: Q, 13: -ONE}
    expected = {i: dense.entries[i][4] * Q - dense.entries[i][13]
                for i in range(27)}
    result = table.act(word, vec, 3)
    assert result and result == {i: v for i, v in expected.items()
                                 if not v.is_zero()}


_SL2 = builtin_sl(2)[0]
_SL2_GENS = list(_SL2.presentation.generators)
_SL2_REFERENCE = {(g, k): _dense_extended(_SL2.coalgebra(), _SL2.assign, g, k,
                                          2)
                  for g in _SL2_GENS for k in range(4)}


@settings(max_examples=40, deadline=None)
@given(word=st.lists(st.sampled_from(range(len(_SL2_GENS))), max_size=5),
       k=st.integers(min_value=0, max_value=3))
def test_word_action_is_product_of_dense_references(word, k):
    word = tuple(_SL2_GENS[i] for i in word)
    expected = SymMatrix.identity(2 ** k)
    for g in word:
        expected = expected * _SL2_REFERENCE[(g, k)]
    assert word_action(_SL2, word, k) == expected


def test_coproduct_action_is_dense_view_of_table(sl3):
    rep, _ = sl3
    for g in rep.presentation.generators:
        assert coproduct_action(rep, g, 2) == rep.actions.extended(g, 2).to_matrix()


def test_sparse_operator_matches_dense_operations():
    a = SymMatrix([[Q, ZERO, ONE], [ZERO, ZERO, ZERO], [ONE, -Q, ZERO]])
    b = SymMatrix([[ZERO, ONE], [Q, Q]])
    sa, sb = SparseOperator.from_matrix(a), SparseOperator.from_matrix(b)
    assert sa.to_matrix() == a
    assert all(not v.is_zero() for col in sa.columns for v in col.values())
    assert sa.kron(sb).to_matrix() == kron(a, b)
    assert sa.compose(sa).to_matrix() == a * a
    assert sa.apply({0: ONE, 2: Q}) == {0: Q + Q, 2: ONE}
    assert SparseOperator.identity(3).to_matrix() == SymMatrix.identity(3)

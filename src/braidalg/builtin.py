"""Built-in spaces and representations: the vector representation of
U_q(sl_n) with its exchange matrix, the classical (flip-braided) space, the
six-relation symplectic quadratic algebra on four generators, and the
three-dimensional adjoint-type representation of U_q(sl_2) with its braiding
derived by cabling the vector braiding.
"""

from __future__ import annotations

import re

from .linalg import (BraidedSpace, SymMatrix, extend_braiding, linear_solve,
                     nullspace, vec_kron)
from .ncalg import NCPoly, RelationSet
from .scalar import ONE, Q, ZERO, Scalar
from .uqg import CartanData, Gen, Representation, presentation_from_cartan


def sl_rtt_matrix(n: int) -> SymMatrix:
    """The exchange matrix q sum e_ii (x) e_ii + sum_{i != j} e_ii (x) e_jj
    + (q - q^-1) sum_{i < j} e_ij (x) e_ji on the n-dimensional space."""
    size = n * n
    rows = [[ZERO] * size for _ in range(size)]
    qm = Q - Q.inverse()
    for i in range(n):
        for j in range(n):
            rows[i * n + j][i * n + j] = Q if i == j else ONE
            if i < j:
                # e_ij (x) e_ji sends v_j (x) v_i to v_i (x) v_j
                rows[i * n + j][j * n + i] = qm
    return SymMatrix(rows)


def builtin_sl(n: int):
    """The vector representation of U_q(sl_n) (K_i = q^-1 e_ii + q e_(i+1)(i+1)
    + identity elsewhere, E_i = e_(i+1)i, F_i = e_i(i+1)) together with its
    braided space.  Returns (Representation, BraidedSpace)."""
    space = sl_space(n)
    pres = presentation_from_cartan(CartanData.sl(n))
    assign = {}
    for i in range(n - 1):
        assign[Gen("K", i)] = SymMatrix.from_diagonal(
            Q.inverse() if a == i else Q if a == i + 1 else ONE
            for a in range(n))
        assign[Gen("E", i)] = SymMatrix.unit(n, i + 1, i)
        assign[Gen("F", i)] = SymMatrix.unit(n, i, i + 1)
    rep = Representation(pres, assign, name=f"sl:{n} vector representation")
    return rep, space


def sl_space(n: int) -> BraidedSpace:
    """The braided space of the vector representation of U_q(sl_n), with
    `sl_rtt_matrix(n)` as its exchange matrix."""
    if n < 2:
        raise ValueError("builtin sl(n) needs n >= 2")
    return BraidedSpace(sl_rtt_matrix(n))


def classical_space(n: int) -> BraidedSpace:
    """The flip-braided space: braiding = flip, exchange matrix = identity."""
    return BraidedSpace(SymMatrix.identity(n * n))


def sl2_lie_actions() -> list[SymMatrix]:
    """The classical sl_2 basis e, f, h acting on a 2-dimensional space."""
    e = SymMatrix.unit(2, 0, 1)
    f = SymMatrix.unit(2, 1, 0)
    h = SymMatrix.from_diagonal([ONE, -ONE])
    return [e, f, h]


def sp4_symmetric_relations() -> RelationSet:
    """The six-relation quadratic algebra on x1..x4:
    x1x2 = q x2x1, x1x3 = q x3x1, x2x4 = q x4x2, x3x4 = q x4x3,
    x1x4 = q^2 x4x1, x2x3 = q^2 x3x2 + (q - q^-1) x1x4."""
    q = Q
    qm = q - q.inverse()
    rels = [
        NCPoly({(0, 1): ONE, (1, 0): -q}),
        NCPoly({(0, 2): ONE, (2, 0): -q}),
        NCPoly({(1, 3): ONE, (3, 1): -q}),
        NCPoly({(2, 3): ONE, (3, 2): -q}),
        NCPoly({(0, 3): ONE, (3, 0): -(q ** 2)}),
        NCPoly({(1, 2): ONE, (2, 1): -(q ** 2), (0, 3): -qm}),
    ]
    return RelationSet(4, rels)


def adjoint_sl2():
    """The three-dimensional type-1 representation of U_q(sl_2), realized as
    the q-symmetric square of the vector representation, and its braiding,
    obtained by restricting the cabled (2,2) braiding extension to that
    subspace and rescaling so that the three-dimensional eigenspace has
    eigenvalue -q^-2.

    Returns (Representation, BraidedSpace).
    """
    rep2, vector_space = builtin_sl(2)
    basis = _eigenspace(vector_space.braiding, Q)
    if len(basis) != 3:
        raise AssertionError("q-symmetric square of the sl_2 vector space "
                             "should be 3-dimensional")
    assign = {Gen(kind, 0): _restrict_to(rep2.actions.extended(Gen(kind, 0), 2),
                                         basis, 4)
              for kind in ("E", "F", "K")}
    pair_basis = [vec_kron(bi, bj, 4) for bi in basis for bj in basis]
    braiding = _restrict_to(extend_braiding(vector_space, 2, 2), pair_basis,
                            16)
    # The pair basis b_i b_j is a weight basis, lowest weight first, and the
    # braiding keeps weights and is one scalar on each summand of
    # L(4) + L(2) + L(0).  So b0 b0 spans the lowest weight of L(4), and the
    # weight block {b0 b1, b1 b0} has trace lambda(L(4)) + lambda(L(2)).
    r = braiding.entries
    eigenvalue = r[1][1] + r[3][3] - r[0][0]
    if len(_eigenspace(braiding, eigenvalue)) != 3:
        raise AssertionError("the L(2) summand of the adjoint square should "
                             "be a 3-dimensional eigenspace")
    scale = -(Q ** (-2)) / eigenvalue
    rep = Representation(rep2.presentation, assign,
                         name="sl:2 adjoint representation")
    return rep, BraidedSpace.from_braiding(braiding * scale)


def _eigenspace(m: SymMatrix, c: Scalar) -> list[dict]:
    """Echelon basis of the c-eigenspace of a square matrix."""
    shifted = m - SymMatrix.identity(m.rows) * c
    return nullspace(shifted.transpose().columns, m.rows)


def _restrict_to(op: SymMatrix, basis: list[dict], dim: int) -> SymMatrix:
    """Express the action of `op` on span(basis) in that basis; raises if
    the span is not invariant."""
    cols = linear_solve(basis, map(op.apply, basis), dim)
    if None in cols:
        raise AssertionError("subspace is not invariant under the operator")
    return SymMatrix.from_columns(len(basis), cols)


def resolve_builtin(spec: str):
    """Resolve 'sl:n', n in ASCII digits, to (Representation,
    BraidedSpace)."""
    return builtin_sl(_sl_n(spec))


def resolve_builtin_space(spec: str) -> BraidedSpace:
    """Resolve 'sl:n' to its braided space alone, building no
    representation."""
    return sl_space(_sl_n(spec))


def _sl_n(spec: str) -> int:
    """The n of a builtin 'sl:n', n in ASCII digits."""
    if match := re.fullmatch(r"sl:([0-9]+)", spec):
        return int(match[1])
    raise ValueError(f"unknown builtin {spec!r} (expected 'sl:n')")

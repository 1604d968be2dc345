"""Built-in spaces and representations: the vector representation of
U_q(sl_n) with its exchange matrix, the classical (flip-braided) space, the
six-relation symplectic quadratic algebra on four generators, and the
three-dimensional adjoint-type representation of U_q(sl_2) with its braiding
derived by cabling the vector braiding.
"""

from __future__ import annotations

from .linalg import (BraidedSpace, SparseOperator, SymMatrix, extend_braiding,
                     linear_solve, matrix_to_columns, nullspace)
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
    if n < 2:
        raise ValueError("builtin sl(n) needs n >= 2")
    pres = presentation_from_cartan(CartanData.sl(n))
    assign = {}
    for i in range(n - 1):
        k_entries = [[ZERO] * n for _ in range(n)]
        for a in range(n):
            if a == i:
                k_entries[a][a] = Q.inverse()
            elif a == i + 1:
                k_entries[a][a] = Q
            else:
                k_entries[a][a] = ONE
        assign[Gen("K", i)] = SymMatrix(k_entries)
        assign[Gen("E", i)] = SymMatrix.unit(n, i + 1, i)
        assign[Gen("F", i)] = SymMatrix.unit(n, i, i + 1)
    rep = Representation(pres, assign, name=f"sl:{n} vector representation")
    space = BraidedSpace(sl_rtt_matrix(n))
    return rep, space


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
    from .uqg import coproduct_action

    rep2, vector_space = builtin_sl(2)
    basis = _symmetric_square_basis(vector_space)
    assign = {}
    for kind in ("E", "F", "K"):
        action = coproduct_action(rep2, Gen(kind, 0), 2)
        assign[Gen(kind, 0)] = _restrict_to(action, basis, 4)
    psi22 = extend_braiding(vector_space, 2, 2).operator
    pair_basis = [_vec_kron(bi, bj, 4) for bi in basis for bj in basis]
    braiding = _restrict_to(psi22, pair_basis, 16)
    eigenvalue = _eigenvalue_with_multiplicity(braiding, 3)
    scale = -(Q ** (-2)) / eigenvalue
    rep = Representation(rep2.presentation, assign,
                         name="sl:2 adjoint representation")
    return rep, BraidedSpace.from_braiding(braiding * scale)


def _symmetric_square_basis(space: BraidedSpace) -> list[dict]:
    """Echelon basis of the q-eigenspace of the braiding inside V (x) V."""
    psi = space.braiding
    n2 = psi.rows
    shifted = psi - SymMatrix.identity(n2) * Q
    basis = nullspace(matrix_to_columns(shifted.transpose()), n2)
    if len(basis) != 3:
        raise AssertionError("q-symmetric square of the sl_2 vector space "
                             "should be 3-dimensional")
    return basis


def _vec_kron(a: dict, b: dict, dim: int) -> dict:
    return {x * dim + y: cx * cy for x, cx in a.items() for y, cy in b.items()}


def _restrict_to(matrix: SymMatrix, basis: list[dict], dim: int) -> SymMatrix:
    """Express the action of `matrix` on span(basis) in that basis; raises
    if the span is not invariant."""
    op = SparseOperator.from_matrix(matrix)
    cols = []
    for vec in basis:
        coeffs = linear_solve(basis, op.apply(vec), dim)
        if coeffs is None:
            raise AssertionError("subspace is not invariant under the operator")
        cols.append(coeffs)
    size = len(basis)
    return SymMatrix([[cols[j][i] for j in range(size)] for i in range(size)])


def _eigenvalue_with_multiplicity(m: SymMatrix, multiplicity: int) -> Scalar:
    """Search candidate monomial eigenvalues +-q^k for the one whose
    eigenspace has the requested dimension."""
    size = m.rows
    for k in range(-8, 9):
        for sign in (ONE, -ONE):
            cand = Scalar.q_power(k) * sign
            shifted = m - SymMatrix.identity(size) * cand
            rows = matrix_to_columns(shifted.transpose())
            if len(nullspace(rows, size)) == multiplicity:
                return cand
    raise AssertionError("no monomial eigenvalue with the requested multiplicity")


def resolve_builtin(spec: str):
    """Resolve 'sl:n' to (Representation, BraidedSpace)."""
    if spec.startswith("sl:"):
        return builtin_sl(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown builtin {spec!r} (expected 'sl:n')")

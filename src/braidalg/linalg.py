"""Dense symbolic matrices and column-sparse operators over Q(q), Kronecker
products with the row-major index convention (the first tensor factor is
most significant), braid-equation and minimal-polynomial checks, extension
of a braiding to tensor powers, and deterministic echelon/null-space
solvers.

Matrices and operators are never mutated after construction; every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalar import ONE, ZERO, Scalar


class BraidEquationError(ValueError):
    """The candidate operator does not satisfy the braid equation."""


class SymMatrix:
    """An immutable dense matrix with Scalar entries."""

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        cols = len(rows[0])
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
            for e in row:
                if not isinstance(e, Scalar):
                    raise TypeError("matrix entries must be Scalar")
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows
        self._hash = None

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "SymMatrix":
        cols = rows if cols is None else cols
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "SymMatrix":
        """The matrix e_{i,j} (0-based) with a single 1 entry."""
        return cls([[ONE if (r, c) == (i, j) else ZERO for c in range(n)] for r in range(n)])

    @classmethod
    def from_diagonal(cls, diag) -> "SymMatrix":
        diag = list(diag)
        n = len(diag)
        return cls([[diag[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_shape(other)
        return SymMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_shape(other)
        return SymMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self) -> "SymMatrix":
        return SymMatrix([[-a for a in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, SymMatrix):
            if self.cols != other.rows:
                raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
            b = other.entries
            out = []
            for i in range(self.rows):
                acc = [ZERO] * other.cols
                for j, a in enumerate(self.entries[i]):
                    if a.is_zero():
                        continue
                    for k, v in enumerate(b[j]):
                        if not v.is_zero():
                            acc[k] = acc[k] + a * v
                out.append(acc)
            return SymMatrix(out)
        if isinstance(other, (Scalar, int)):
            s = other if isinstance(other, Scalar) else Scalar.from_int(other)
            return SymMatrix([[a * s for a in row] for row in self.entries])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def transpose(self) -> "SymMatrix":
        return SymMatrix([[self.entries[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.entries)
        return self._hash

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)

    def __repr__(self) -> str:
        return f"SymMatrix({self.rows}x{self.cols})"

    def _check_shape(self, other: "SymMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def kron(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Kronecker product with (i1, i2) -> i1*dim2 + i2 index flattening."""
    out = []
    for i1 in range(a.rows):
        arow = a.entries[i1]
        for i2 in range(b.rows):
            brow = b.entries[i2]
            row = []
            for j1 in range(a.cols):
                av = arow[j1]
                if av.is_zero():
                    row.extend([ZERO] * b.cols)
                else:
                    row.extend(av * bv for bv in brow)
            out.append(row)
    return SymMatrix(out)


def kron_all(mats) -> SymMatrix:
    mats = list(mats)
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


class SparseOperator:
    """A linear map stored by columns: `columns[j]` is the image of the j-th
    basis vector as a dict {row: Scalar} with no zero entries.  Operators on
    tensor powers are built, composed and applied column by column, so the
    work follows the non-zero entries, not the dense size."""

    __slots__ = ("rows", "columns")

    def __init__(self, rows: int, columns):
        self.rows = rows
        self.columns = list(columns)

    @classmethod
    def from_matrix(cls, m: SymMatrix) -> "SparseOperator":
        return cls(m.rows, matrix_to_columns(m))

    @classmethod
    def identity(cls, n: int) -> "SparseOperator":
        return cls(n, ({j: ONE} for j in range(n)))

    def apply(self, vec: dict) -> dict:
        """The image of a sparse column vector {index: Scalar}."""
        out: dict = {}
        for j, v in vec.items():
            vec_add_scaled(out, self.columns[j], v)
        return out

    def compose(self, other: "SparseOperator") -> "SparseOperator":
        """self after other."""
        return SparseOperator(self.rows, map(self.apply, other.columns))

    def kron(self, other: "SparseOperator") -> "SparseOperator":
        """Kronecker product, with the index flattening of `kron`."""
        r = other.rows
        return SparseOperator(self.rows * r, (
            vec_kron(ca, cb, r) for ca in self.columns for cb in other.columns))

    def to_matrix(self) -> SymMatrix:
        dense = [[ZERO] * len(self.columns) for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                dense[i][j] = v
        return SymMatrix(dense)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseOperator) and self.rows == other.rows
                and self.columns == other.columns)


def combine(rows: int, size: int, terms) -> SparseOperator:
    """sum c * op over the (op, c) pairs in `terms`, each with `size`
    columns."""
    cols: list[dict] = [{} for _ in range(size)]
    for op, c in terms:
        for acc, col in zip(cols, op.columns):
            vec_add_scaled(acc, col, c)
    return SparseOperator(rows, cols)


def flip_matrix(n: int) -> SymMatrix:
    """The flip v_i (x) v_j -> v_j (x) v_i on an n-dimensional space."""
    size = n * n
    rows = [[ZERO] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            rows[j * n + i][i * n + j] = ONE
    return SymMatrix(rows)


# --- sparse echelon machinery -----------------------------------------------
#
# Vectors are dicts {index: Scalar} with no zero entries.  `Echelon` chooses
# pivots lowest-index-first with no coefficient heuristics, so every reported
# basis is deterministic.


def vec_add_scaled(target: dict, src: dict, c: Scalar):
    for i, v in src.items():
        nv = target.get(i, ZERO) + c * v
        if nv.is_zero():
            target.pop(i, None)
        else:
            target[i] = nv


def vec_kron(a: dict, b: dict, dim: int) -> dict:
    """The Kronecker product of sparse vectors, with the index flattening of
    `kron`; `dim` is the dimension of b's space."""
    return {x * dim + y: cx * cy for x, cx in a.items() for y, cy in b.items()}


class Echelon:
    """A fully reduced row-echelon basis of sparse vectors, built
    incrementally.  Rows are normalized to pivot coefficient 1."""

    def __init__(self):
        self.pivot_rows: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, vec: dict) -> dict:
        out = dict(vec)
        # rows are fully reduced (no row holds another row's pivot), so the
        # only pivots to clear are those already in vec
        for i in [i for i in vec if i in self.pivot_rows]:
            vec_add_scaled(out, self.pivot_rows[i], -out[i])
        return out

    def insert(self, vec: dict) -> bool:
        """Reduce vec against the basis; add the residual if non-zero.
        Returns True when the rank grew."""
        res = self.reduce(vec)
        if not res:
            return False
        pivot = self.choose_pivot(res)
        inv = res[pivot].inverse()
        res = {i: v * inv for i, v in res.items()}
        for row in self.pivot_rows.values():
            if pivot in row:
                vec_add_scaled(row, res, -row[pivot])
        self.pivot_rows[pivot] = res
        return True

    def choose_pivot(self, res: dict) -> int:
        """The pivot of a non-zero residual: any index keeps the rank."""
        return min(res)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def basis(self) -> list[dict]:
        return [self.pivot_rows[p] for p in sorted(self.pivot_rows)]


def echelon_basis(vectors) -> list[dict]:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.basis()


def linear_solve(basis: list[dict], target: dict, dim: int) -> list[Scalar] | None:
    """Coefficients c with target = sum c_i * basis_i, or None.  `dim` must
    exceed every index used in the vectors."""
    ech = Echelon()
    for i, vec in enumerate(basis):
        aug = dict(vec)
        aug[dim + i] = ONE
        ech.insert(aug)
    res = ech.reduce(dict(target))
    if any(i < dim for i in res):
        return None
    coeffs = [ZERO] * len(basis)
    for i, v in res.items():
        coeffs[i - dim] = -v
    return coeffs


def nullspace(rows: list[dict], nvars: int) -> list[dict]:
    """Deterministic basis of {x : row . x = 0 for every row}."""
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    pivots = ech.pivot_rows
    free = [j for j in range(nvars) if j not in pivots]
    out = []
    for f in free:
        vec = {f: ONE}
        for p in sorted(pivots):
            c = pivots[p].get(f)
            if c is not None:
                vec[p] = -c
        out.append(vec)
    return out


def matrix_to_columns(m: SymMatrix) -> list[dict]:
    cols: list[dict] = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.entries):
        for j, v in enumerate(row):
            if not v.is_zero():
                cols[j][i] = v
    return cols


def vec_to_tuple(vec: dict, dim: int) -> tuple:
    return tuple(vec.get(i, ZERO) for i in range(dim))


def invert(m: SymMatrix) -> SymMatrix | None:
    """Inverse via augmented elimination; None when singular."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    ech = Echelon()
    for j, col in enumerate(matrix_to_columns(m)):
        aug = dict(col)
        aug[n + j] = ONE
        ech.insert(aug)
    if any(p >= n for p in ech.pivot_rows) or len(ech.pivot_rows) < n:
        return None
    # pivot row p reads e_p = M . tail_p, so tail_p is column p of the inverse
    inv_cols = []
    for p in range(n):
        row = ech.pivot_rows[p]
        inv_cols.append([row.get(n + j, ZERO) for j in range(n)])
    return SymMatrix([[inv_cols[p][j] for p in range(n)] for j in range(n)])


def image_subspace(m: SymMatrix) -> list[tuple]:
    """Echelonized basis of the column space, lowest-index pivots first."""
    basis = echelon_basis(matrix_to_columns(m))
    return [vec_to_tuple(v, m.rows) for v in basis]


def solve_commutant(actions: list[SymMatrix]) -> list[SymMatrix]:
    """Basis of the space of matrices commuting with every listed matrix."""
    if not actions:
        raise ValueError("need at least one action matrix")
    s = actions[0].rows
    for a in actions:
        if not a.is_square() or a.rows != s:
            raise ValueError("actions must be square matrices of equal size")
    rows = []
    for a in actions:
        e = a.entries
        for i in range(s):
            for j in range(s):
                row: dict = {}
                for k in range(s):
                    # (M A - A M)[i][j] = sum_k M[i,k] A[k,j] - A[i,k] M[k,j]
                    c = e[k][j]
                    if not c.is_zero():
                        vec_add_scaled(row, {i * s + k: ONE}, c)
                    c = e[i][k]
                    if not c.is_zero():
                        vec_add_scaled(row, {k * s + j: ONE}, -c)
                if row:
                    rows.append(row)
    out = []
    for vec in nullspace(rows, s * s):
        out.append(SymMatrix([[vec.get(i * s + j, ZERO) for j in range(s)]
                              for i in range(s)]))
    return out


def minimal_poly(m: SymMatrix) -> list[Scalar]:
    """Monic minimal polynomial as ascending coefficients [c0, ..., 1],
    computed by iterative linear dependence of powers."""
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.rows
    dim = n * n

    def flatten(mat: SymMatrix) -> dict:
        return {i * n + j: v for i, row in enumerate(mat.entries)
                for j, v in enumerate(row) if not v.is_zero()}

    powers = [SymMatrix.identity(n)]
    vecs = [flatten(powers[0])]
    while True:
        nxt = powers[-1] * m
        target = flatten(nxt)
        coeffs = linear_solve(vecs, target, dim)
        if coeffs is not None:
            return [-c for c in coeffs] + [ONE]
        powers.append(nxt)
        vecs.append(target)


def eval_poly_at_matrix(coeffs: list[Scalar], m: SymMatrix) -> SymMatrix:
    """sum coeffs[k] * m**k for ascending coefficients."""
    out = SymMatrix.zeros(m.rows, m.cols)
    power = SymMatrix.identity(m.rows)
    for k, c in enumerate(coeffs):
        if k:
            power = power * m
        if not c.is_zero():
            out = out + power * c
    return out


# --- braidings ---------------------------------------------------------------


@dataclass(frozen=True)
class BraidCheck:
    holds: bool
    counterexample: tuple | None = None

    def describe(self, dim: int) -> str:
        if self.holds:
            return "braid equation holds"
        i, j, k = self.counterexample
        return (f"braid equation fails on basis vector "
                f"v{i + 1} (x) v{j + 1} (x) v{k + 1}")


def check_braid(op: SymMatrix) -> BraidCheck:
    """Verify (1 (x) op)(op (x) 1)(1 (x) op) = (op (x) 1)(1 (x) op)(op (x) 1)
    symbolically on the triple tensor power."""
    if not op.is_square():
        raise ValueError("braid operator must be square")
    return _braid_check(SparseOperator.from_matrix(op), _int_sqrt(op.rows))


def _braid_check(x: SparseOperator, n: int) -> BraidCheck:
    ident = SparseOperator.identity(n)
    a = x.kron(ident)
    b = ident.kron(x)
    lhs = b.compose(a).compose(b)
    rhs = a.compose(b).compose(a)
    for col, (left, right) in enumerate(zip(lhs.columns, rhs.columns)):
        if left != right:
            i, rem = divmod(col, n * n)
            j, k = divmod(rem, n)
            return BraidCheck(False, (i, j, k))
    return BraidCheck(True)


def _int_sqrt(n2: int) -> int:
    n = round(n2 ** 0.5)
    if n * n != n2:
        raise ValueError(f"operator size {n2} is not a perfect square")
    return n


class BraidedSpace:
    """A space V with an invertible braid-equation solution.

    Two matrices are kept: `rtt`, the exchange-form matrix that feeds the
    quadratic-relations construction on V* (x) V, and `braiding`, the
    operator that satisfies the braid equation of a braided algebra and
    commutes with coproduct actions.  The two are related by composition
    with the flip: braiding = rtt . flip.  `psi` is the braiding as a
    `SparseOperator`, the form that operator algebra on tensor powers
    uses.  Both the braid equation and invertibility are verified at
    construction.
    """

    __slots__ = ("dim", "rtt", "braiding", "psi", "braiding_inverse")

    def __init__(self, rtt: SymMatrix):
        n = _int_sqrt(rtt.rows)
        if rtt.rows != rtt.cols:
            raise ValueError("rtt matrix must be square")
        self.dim = n
        self.rtt = rtt
        self.braiding = rtt * flip_matrix(n)
        self.psi = SparseOperator.from_matrix(self.braiding)
        check = _braid_check(self.psi, n)
        if not check.holds:
            raise BraidEquationError(check.describe(n))
        inv = invert(self.braiding)
        if inv is None:
            raise ValueError("braiding is not invertible")
        self.braiding_inverse = inv

    @classmethod
    def from_braiding(cls, braiding: SymMatrix) -> "BraidedSpace":
        n = _int_sqrt(braiding.rows)
        return cls(braiding * flip_matrix(n))

    def __repr__(self) -> str:
        return f"BraidedSpace(dim={self.dim})"


@dataclass(frozen=True)
class BraidingExtension:
    """The operator that moves the first m tensor factors past the last n,
    kept sparse; `operator` is its dense view."""

    space: BraidedSpace
    m: int
    n: int
    sparse: SparseOperator

    @property
    def operator(self) -> SymMatrix:
        return self.sparse.to_matrix()


def extend_braiding(space: BraidedSpace, m: int, n: int,
                    pair_order: str = "left") -> BraidingExtension:
    """Build the degree-(m, n) braiding extension from adjacent crossings.
    `pair_order` selects which block is walked first ("left" moves the left
    block strand by strand, "right" the right block); the braid equation
    makes both recipes agree.
    """
    if pair_order == "left":
        # strand i of the left block crosses the n right strands in turn,
        # innermost strand (i = m) first
        positions = [p for i in range(m, 0, -1) for p in range(i, i + n)]
    elif pair_order == "right":
        # strand j of the right block crosses the m left strands in turn,
        # innermost strand (j = 1) first
        positions = [p for j in range(1, n + 1)
                     for p in range(m + j - 1, j - 1, -1)]
    else:
        raise ValueError("pair_order must be 'left' or 'right'")
    if m < 0 or n < 0:
        raise ValueError("degrees must be non-negative")
    d, total = space.dim, m + n
    op = SparseOperator.identity(d ** total)
    for p in positions:
        # the braiding on the adjacent factors (p, p + 1), 1-based
        crossing = (SparseOperator.identity(d ** (p - 1)).kron(space.psi)
                    .kron(SparseOperator.identity(d ** (total - p - 1))))
        op = crossing.compose(op)
    return BraidingExtension(space, m, n, op)

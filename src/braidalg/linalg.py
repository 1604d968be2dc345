"""Matrices over Q(q) stored by columns, Kronecker products with the
row-major index convention (the first tensor factor is most significant),
braid-equation and minimal-polynomial checks, extension of a braiding to
tensor powers, and deterministic echelon/null-space solvers.

`SymMatrix` is the one matrix type: generator matrices, braidings and the
operators on tensor powers V^(x)k alike.  Products, sums and Kronecker
products work column by column, so their cost follows the non-zero entries,
not the dense size; the dense rows (`entries`) are a view built on request.

Matrices are never mutated after construction; every operation is a pure
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scalar import ONE, ZERO, Scalar


class BraidEquationError(ValueError):
    """The operator is not an invertible solution of the braid equation."""


class SymMatrix:
    """An immutable matrix with Scalar entries, stored by columns:
    `columns[j]` is the image of the j-th basis vector as a dict
    {row: Scalar} with no zero entries.

    `SymMatrix(rows)` validates a dense list of rows (outside input);
    `from_columns` is the internal constructor and trusts its columns."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        cols = len(rows[0])
        columns: list[dict] = [{} for _ in range(cols)]
        for i, row in enumerate(rows):
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
            for j, e in enumerate(row):
                if not isinstance(e, Scalar):
                    raise TypeError("matrix entries must be Scalar")
                if not e.is_zero():
                    columns[j][i] = e
        self.rows = len(rows)
        self.cols = cols
        self.columns = columns

    @classmethod
    def from_columns(cls, rows: int, columns) -> "SymMatrix":
        """The matrix with `rows` rows and the given column dicts, which must
        hold no zero entry and no row index outside 0..rows-1."""
        m = cls.__new__(cls)
        m.rows = rows
        m.columns = list(columns)
        m.cols = len(m.columns)
        return m

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.from_columns(n, ({j: ONE} for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "SymMatrix":
        cols = rows if cols is None else cols
        return cls.from_columns(rows, ({} for _ in range(cols)))

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "SymMatrix":
        """The matrix e_{i,j} (0-based) with a single 1 entry."""
        return cls.from_columns(n, ({i: ONE} if c == j else {}
                                    for c in range(n)))

    @classmethod
    def from_diagonal(cls, diag) -> "SymMatrix":
        diag = list(diag)
        return cls.from_columns(len(diag), ({} if d.is_zero() else {j: d}
                                            for j, d in enumerate(diag)))

    @property
    def entries(self) -> tuple:
        """The dense view: a tuple of rows."""
        dense = [[ZERO] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                dense[i][j] = v
        return tuple(map(tuple, dense))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.columns)

    def vec(self) -> dict:
        """The column-stacking vectorization: entry (i, j) at index
        j * rows + i, as a sparse vector."""
        r = self.rows
        return {j * r + i: v for j, col in enumerate(self.columns)
                for i, v in col.items()}

    def apply(self, vec: dict) -> dict:
        """The image of a sparse column vector {index: Scalar}."""
        out: dict = {}
        for j, v in vec.items():
            vec_add_scaled(out, self.columns[j], v)
        return out

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_shape(other)
        return combine(self.rows, self.cols, ((self, ONE), (other, ONE)))

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_shape(other)
        return combine(self.rows, self.cols, ((self, ONE), (other, -ONE)))

    def __neg__(self) -> "SymMatrix":
        return combine(self.rows, self.cols, ((self, -ONE),))

    def __mul__(self, other):
        """The product self . other (self after other), or self scaled."""
        if isinstance(other, SymMatrix):
            if self.cols != other.rows:
                raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
            return SymMatrix.from_columns(self.rows,
                                          map(self.apply, other.columns))
        if isinstance(other, (Scalar, int)):
            s = other if isinstance(other, Scalar) else Scalar.from_int(other)
            return combine(self.rows, self.cols, ((self, s),))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def transpose(self) -> "SymMatrix":
        cols: list[dict] = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                cols[i][j] = v
        return SymMatrix.from_columns(self.cols, cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.columns == other.columns)

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)

    def __repr__(self) -> str:
        return f"SymMatrix({self.rows}x{self.cols})"

    def _check_shape(self, other: "SymMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def kron(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Kronecker product with (i1, i2) -> i1*dim2 + i2 index flattening."""
    r = b.rows
    return SymMatrix.from_columns(a.rows * r, (
        vec_kron(ca, cb, r) for ca in a.columns for cb in b.columns))


def combine(rows: int, cols: int, terms) -> SymMatrix:
    """sum c * m over the (m, c) pairs in `terms`, each rows x cols."""
    acc: list[dict] = [{} for _ in range(cols)]
    for m, c in terms:
        for target, col in zip(acc, m.columns):
            vec_add_scaled(target, col, c)
    return SymMatrix.from_columns(rows, acc)


def flip_matrix(n: int) -> SymMatrix:
    """The flip v_i (x) v_j -> v_j (x) v_i on an n-dimensional space."""
    return SymMatrix.from_columns(n * n, ({j * n + i: ONE} for i in range(n)
                                          for j in range(n)))


# --- sparse echelon machinery -----------------------------------------------
#
# Vectors are dicts {index: Scalar} with no zero entries.  `Echelon` chooses
# pivots lowest-index-first with no coefficient heuristics, so every reported
# basis is deterministic.


def vec_add_scaled(target: dict, src: dict, c: Scalar):
    """target += c * src in place, dropping the entries that cancel; a unit
    `c` is not multiplied, and a first write is stored without an addition,
    so a plain copy costs no arithmetic."""
    get = target.get
    for i, v in src.items():
        nv = v if c is ONE else c * v
        old = get(i)
        if old is not None:
            nv = old + nv
        if not nv.is_zero():
            target[i] = nv
        elif old is not None:
            del target[i]


def vec_kron(a: dict, b: dict, dim: int) -> dict:
    """The Kronecker product of sparse vectors, with the index flattening of
    `kron`; `dim` is the dimension of b's space."""
    return {x * dim + y: cy if cx is ONE else cx * cy
            for x, cx in a.items() for y, cy in b.items()}


class Echelon:
    """A fully reduced row-echelon basis of sparse vectors, built
    incrementally.  Rows are normalized to pivot coefficient 1.  With the
    default lowest-index pivots each row's lowest index is its pivot, so
    the rows are the unique reduced echelon form of the span: the order of
    the inserts changes the work, never the basis."""

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
        lead = res[pivot]
        if not lead.is_one():
            inv = lead.inverse()
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


def linear_solve(basis: list[dict], targets, dim: int) -> list:
    """For each target, sparse coefficients {i: c_i} with target =
    sum c_i * basis_i, or None when it lies outside the span.  `dim` must
    exceed every index used in the vectors.

    Basis vector i is tagged with 1 at index dim + i in one echelon, so a
    target in the span reduces to tags alone: minus its coefficients."""
    ech = Echelon()
    for i, vec in enumerate(basis):
        ech.insert({**vec, dim + i: ONE})
    return [None if any(i < dim for i in res)
            else {i - dim: -v for i, v in res.items()}
            for res in map(ech.reduce, targets)]


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


def invert(m: SymMatrix) -> SymMatrix | None:
    """Inverse via augmented elimination; None when singular."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    # column j of the inverse solves M x = e_j
    cols = linear_solve(m.columns, ({j: ONE} for j in range(n)), n)
    return None if None in cols else SymMatrix.from_columns(n, cols)


def image_subspace(m: SymMatrix) -> list[tuple]:
    """Echelonized basis of the column space, lowest-index pivots first."""
    ech = Echelon()
    for col in m.columns:
        ech.insert(col)
    return [tuple(v.get(i, ZERO) for i in range(m.rows)) for v in ech.basis()]


def commutator_rows(a: SymMatrix) -> list[dict]:
    """The linear functionals M -> (M A - A M)[i][j] of a square A, over the
    `vec` indices of M: one per entry (i, j), at i * s + j, empty ones
    kept."""
    s = a.rows
    # row i of A is column i of its transpose
    a_rows = a.transpose().columns
    rows = []
    for i in range(s):
        for j in range(s):
            # (M A - A M)[i][j] = sum_k M[i,k] A[k,j] - A[i,k] M[k,j],
            # with the unknown M[i,k] at its `vec` index k * s + i
            row = {k * s + i: c for k, c in a.columns[j].items()}
            vec_add_scaled(row, {j * s + k: c for k, c in a_rows[i].items()},
                           -ONE)
            rows.append(row)
    return rows


def solve_commutant(actions: list[SymMatrix]) -> list[SymMatrix]:
    """Basis of the space of matrices commuting with every listed matrix."""
    if not actions:
        raise ValueError("need at least one action matrix")
    s = actions[0].rows
    for a in actions:
        if not a.is_square() or a.rows != s:
            raise ValueError("actions must be square matrices of equal size")
    rows = [row for a in actions for row in commutator_rows(a)]
    basis = []
    for vec in nullspace(rows, s * s):
        cols: list[dict] = [{} for _ in range(s)]
        for k, v in vec.items():
            cols[k // s][k % s] = v
        basis.append(SymMatrix.from_columns(s, cols))
    return basis


def minimal_poly(m: SymMatrix) -> list[Scalar]:
    """Monic minimal polynomial as ascending coefficients [c0, ..., 1].

    Each power M^k goes into one echelon as vec(M^k) tagged with 1 at index
    n^2 + k.  The first power whose residual holds tags alone is the first
    that depends on the lower ones: the residual is sum c_i vec(M^i) with
    c_k = 1 and no vec entries left, so its tags are the coefficients."""
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    dim = m.rows * m.rows
    ech = Echelon()
    power = SymMatrix.identity(m.rows)
    # by Cayley-Hamilton the degree is at most the size
    for k in range(m.rows + 1):
        res = ech.reduce({**power.vec(), dim + k: ONE})
        if min(res) >= dim:
            return [res.get(dim + i, ZERO) for i in range(k + 1)]
        ech.insert(res)
        power = power * m


def eval_poly_at_matrix(coeffs: list[Scalar], m: SymMatrix) -> SymMatrix:
    """sum coeffs[k] * m**k for ascending coefficients."""
    if not m.is_square():
        raise ValueError("polynomial of a non-square matrix")
    power = SymMatrix.identity(m.rows)
    terms = []
    for k, c in enumerate(coeffs):
        if k:
            power = m * power
        terms.append((power, c))
    return combine(m.rows, m.cols, terms)


# --- braidings ---------------------------------------------------------------


@dataclass(frozen=True)
class BraidCheck:
    holds: bool
    counterexample: tuple | None = None

    def describe(self) -> str:
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
    n = _int_sqrt(op.rows)
    ident = SymMatrix.identity(n)
    a = kron(op, ident)
    b = kron(ident, op)
    lhs = b * a * b
    rhs = a * b * a
    for col, (left, right) in enumerate(zip(lhs.columns, rhs.columns)):
        if left != right:
            i, rem = divmod(col, n * n)
            j, k = divmod(rem, n)
            return BraidCheck(False, (i, j, k))
    return BraidCheck(True)


def _int_sqrt(n2: int) -> int:
    n = math.isqrt(n2)
    if n * n != n2:
        raise ValueError(f"operator size {n2} is not a perfect square")
    return n


class BraidedSpace:
    """A space V with an invertible braid-equation solution.

    Two matrices are kept: `rtt`, the exchange-form matrix usually printed
    next to vector representations, which neither satisfies the braid
    equation nor commutes with coproduct actions, and `braiding` =
    rtt . flip, which does both.  Every braided construction, the
    quadratic t-relations included, uses `braiding`.  Both the braid
    equation and invertibility are verified at construction.
    """

    __slots__ = ("dim", "rtt", "braiding")

    def __init__(self, rtt: SymMatrix):
        n = _int_sqrt(rtt.rows)
        if rtt.rows != rtt.cols:
            raise ValueError("rtt matrix must be square")
        self.dim = n
        self.rtt = rtt
        self.braiding = rtt * flip_matrix(n)
        check = check_braid(self.braiding)
        if not check.holds:
            raise BraidEquationError(check.describe())
        if nullspace(self.braiding.columns, self.braiding.rows):
            raise BraidEquationError("braiding is not invertible")

    @classmethod
    def from_braiding(cls, braiding: SymMatrix) -> "BraidedSpace":
        n = _int_sqrt(braiding.rows)
        return cls(braiding * flip_matrix(n))

    def __repr__(self) -> str:
        return f"BraidedSpace(dim={self.dim})"


def extend_braiding(space: BraidedSpace, m: int, n: int) -> SymMatrix:
    """The operator that moves the first m tensor factors past the last n,
    built from adjacent crossings: strand i of the left block crosses the n
    right strands in turn, innermost strand (i = m) first."""
    if m < 0 or n < 0:
        raise ValueError("degrees must be non-negative")
    positions = [p for i in range(m, 0, -1) for p in range(i, i + n)]
    d, total = space.dim, m + n
    op = SymMatrix.identity(d ** total)
    for p in positions:
        # the braiding on the adjacent factors (p, p + 1), 1-based
        crossing = kron(kron(SymMatrix.identity(d ** (p - 1)), space.braiding),
                        SymMatrix.identity(d ** (total - p - 1)))
        op = crossing * op
    return op

"""Dense exact linear algebra over Gaussian rationals.

Row reduction, nullspaces, and linear solves with zero rounding; ``solve``
finds mu's Krylov dependency, the minimal polynomial of the fixed-point
count behind every minimum-norm preimage
(``perms.PermGroup.chi_minimal_polynomial``).  ``Matrix`` holds the
orbital commutant basis of ``rep.commutant_basis``; the star pipeline
checks pi by integer pair sums and builds none.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar, as_scalar


class Matrix:
    """An immutable dense matrix of exact scalars."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(as_scalar(x) for x in r) for r in rows)
        if not rows:
            raise ValueError("empty matrix")
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValueError("ragged rows")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = w

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        return cls([[ZERO] * c for _ in range(r)])

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def __add__(self, other):
        self._shape_check(other)
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        self._shape_check(other)
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in product")
            cols = list(zip(*other.rows))
            return Matrix(
                [
                    [_dot(row, col) for col in cols]
                    for row in self.rows
                ]
            )
        c = as_scalar(other)
        return Matrix([[c * x for x in row] for row in self.rows])

    __rmul__ = __mul__

    def __neg__(self):
        return Matrix([[-x for x in row] for row in self.rows])

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def vec(self):
        """Row-major flattening."""
        return [x for row in self.rows for x in row]

    def _shape_check(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{body}]"


def _dot(xs, ys) -> Scalar:
    acc = ZERO
    for x, y in zip(xs, ys):
        if x.is_zero() or y.is_zero():
            continue
        acc = acc + x * y
    return acc


def rref(rows):
    """In-place reduced row echelon form; returns the pivot column list."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for k in range(r, len(rows)):
            if not rows[k][c].is_zero():
                pivot_row = k
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * x if x else x for x in rows[r]]
        # eliminate with the pivot row's nonzero entries only
        live = [(j, x) for j, x in enumerate(rows[r]) if x]
        for k in range(len(rows)):
            factor = rows[k][c]
            if k != r and factor:
                row = list(rows[k])
                for j, b in live:
                    row[j] = row[j] - factor * b
                rows[k] = row
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def nullspace(rows, ncols: int):
    """Basis of the right nullspace, one vector per free column."""
    work = [list(r) for r in rows] if rows else []
    pivots = rref(work)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One solution of A x = b, or None if the system is inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = rref(work)
    if ncols in pivots:
        return None  # pivot in the augmented column
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = work[r][ncols]
    return x

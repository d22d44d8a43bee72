"""Exact dense matrices over a FieldSpec, with the elimination routines the
rest of the toolkit is built on: reduced row echelon form, kernel and image
bases, and linear solving. All outputs are deterministic (first-nonzero pivot
scan, fixed free-variable ordering) so downstream constructions are canonical.

Zero-row and zero-column matrices are first class; they carry their shape.

Every entry is canonical: an int in [0, p) over F_p, a Fraction over Q.
The public constructors (Matrix(...), from_rows, column, from_jsonable)
coerce and validate what they are given. Results computed from canonical
matrices go through the private Matrix._trusted, which keeps the shape
check and skips coercion, so the kernel never re-coerces its own output.
Over F_p the inner loops are plain int arithmetic with one `% p` per entry
or row operation; over Q the same loops run on Fractions with no reduction.
"""

from operator import mul

from .errors import FieldMismatchError, ShapeError
from .fields import FieldSpec

_set = object.__setattr__


class Matrix:
    """Immutable row-major matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "_e", "_rref")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries=()):
        self._fill(field, rows, cols, [field.coerce(x) for x in entries])

    @staticmethod
    def _trusted(field: FieldSpec, rows: int, cols: int, entries) -> "Matrix":
        """A matrix from entries already canonical for field (computed from
        canonical matrices); checks the shape, coerces nothing."""
        m = object.__new__(Matrix)
        m._fill(field, rows, cols, entries)
        return m

    def _fill(self, field, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        _set(self, "field", field)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_e", tuple(entries))
        _set(self, "_rref", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # construction helpers

    @staticmethod
    def from_rows(field: FieldSpec, row_lists) -> "Matrix":
        row_lists = [list(r) for r in row_lists]
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        if any(len(r) != cols for r in row_lists):
            raise ShapeError("ragged rows")
        flat = [x for r in row_lists for x in r]
        return Matrix(field, rows, cols, flat)

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix._trusted(field, rows, cols, (field.zero,) * (rows * cols))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        e = [field.zero] * (n * n)
        for i in range(n):
            e[i * n + i] = field.one
        return Matrix._trusted(field, n, n, e)

    @staticmethod
    def column(field: FieldSpec, values) -> "Matrix":
        values = list(values)
        return Matrix(field, len(values), 1, values)

    # accessors

    def entry(self, i: int, j: int):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError(f"index ({i},{j}) out of range for {self.rows}x{self.cols}")
        return self._e[i * self.cols + j]

    def row_list(self, i: int) -> list:
        return list(self._e[i * self.cols : (i + 1) * self.cols])

    def col_list(self, j: int) -> list:
        return [self._e[i * self.cols + j] for i in range(self.rows)]

    def to_lists(self) -> list:
        return [self.row_list(i) for i in range(self.rows)]

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for x in self._e)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self._e))

    def __repr__(self):
        return f"Matrix({self.field.label}, {self.rows}x{self.cols}, {self.to_lists()})"

    def key(self):
        """Hashable canonical identity, used as a memo key component."""
        return (self.field.label, self.rows, self.cols, self._e)

    # arithmetic

    def _require_same_shape(self, other):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field.label} vs {other.field.label}")
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other):
        self._require_same_shape(other)
        add = self.field.add
        return Matrix(
            self.field, self.rows, self.cols,
            [add(a, b) for a, b in zip(self._e, other._e)],
        )

    def __sub__(self, other):
        self._require_same_shape(other)
        sub = self.field.sub
        return Matrix(
            self.field, self.rows, self.cols,
            [sub(a, b) for a, b in zip(self._e, other._e)],
        )

    def __neg__(self):
        neg = self.field.neg
        return Matrix(self.field, self.rows, self.cols, [neg(a) for a in self._e])

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        mul = self.field.mul
        return Matrix(self.field, self.rows, self.cols, [mul(c, a) for a in self._e])

    def __matmul__(self, other):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field.label} vs {other.field.label}")
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        F = self.field
        n, k, m = self.rows, self.cols, other.cols
        a, b, zero, p = self._e, other._e, F.zero, F.modulus
        arows = [a[i * k : (i + 1) * k] for i in range(n)]
        bcols = [b[j::m] for j in range(m)]
        out = [sum(map(mul, row, col), zero) for row in arows for col in bcols]
        return Matrix._trusted(F, n, m, [x % p for x in out] if p else out)

    def transpose(self) -> "Matrix":
        e = self._e
        c = self.cols
        out = [e[i * c + j] for j in range(c) for i in range(self.rows)]
        return Matrix._trusted(self.field, c, self.rows, out)

    def take_rows(self, indices) -> "Matrix":
        rows = [self.row_list(i) for i in indices]
        flat = [x for r in rows for x in r]
        return Matrix._trusted(self.field, len(rows), self.cols, flat)

    def take_cols(self, indices) -> "Matrix":
        indices = list(indices)
        out = [self._e[i * self.cols + j] for i in range(self.rows) for j in indices]
        return Matrix._trusted(self.field, self.rows, len(indices), out)

    # elimination

    def rref(self):
        """Reduced row echelon form.

        Returns (R, pivots) where pivots is the tuple of pivot column
        indices in increasing order. Pivot choice is the first nonzero
        entry scanning down each column, so the result is deterministic,
        and rref is idempotent: R.rref() == (R, pivots).
        """
        if self._rref is not None:
            return self._rref
        F = self.field
        p = F.modulus
        rows, cols = self.rows, self.cols
        m = [self.row_list(i) for i in range(rows)]
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            pr = None
            for i in range(r, rows):
                if m[i][c] != 0:
                    pr = i
                    break
            if pr is None:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
            pe = m[r][c]
            if pe != 1:
                inv = pow(pe, -1, p) if p else 1 / pe
                row = [inv * x for x in m[r]]
                m[r] = [x % p for x in row] if p else row
            mr = m[r]
            for i in range(rows):
                f = m[i][c]
                if i != r and f != 0:
                    row = [x - f * y for x, y in zip(m[i], mr)]
                    m[i] = [x % p for x in row] if p else row
            pivots.append(c)
            r += 1
        result = (Matrix._trusted(F, rows, cols, [x for row in m for x in row]), tuple(pivots))
        _set(self, "_rref", result)
        return result

    def rank(self) -> int:
        return len(self.rref()[1])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def kernel_basis(self) -> "Matrix":
        """Basis of the right kernel, as the columns of a cols x k matrix.

        Built from the RREF by setting one free variable to 1 at a time
        (free columns in increasing order), which makes the basis canonical.
        A matrix with no kernel yields a cols x 0 matrix.
        """
        F = self.field
        p = F.modulus
        R, pivots = self.rref()
        e, n = R._e, self.cols
        pivot_set = set(pivots)
        free = [c for c in range(n) if c not in pivot_set]
        k = len(free)
        out = [F.zero] * (n * k)
        for idx, fc in enumerate(free):
            out[fc * k + idx] = F.one
            for r, pc in enumerate(pivots):
                v = e[r * n + fc]
                if v != 0:
                    out[pc * k + idx] = p - v if p else -v
        return Matrix._trusted(F, n, k, out)

    def image_basis(self) -> "Matrix":
        """Basis of the column space: the original columns at the RREF
        pivot positions, so the count equals the rank."""
        _, pivots = self.rref()
        return self.take_cols(pivots)

    def solve(self, b: "Matrix"):
        """A particular solution x of self @ x = b, or None if inconsistent.

        b may have several columns; they are solved simultaneously. Free
        variables are set to zero, making the solution canonical.
        """
        if self.field != b.field:
            raise FieldMismatchError(f"{self.field.label} vs {b.field.label}")
        if self.rows != b.rows:
            raise ShapeError(f"solve: {self.rows} rows vs rhs {b.rows}")
        aug = hstack([self, b])
        R, pivots = aug.rref()
        if pivots and pivots[-1] >= self.cols:
            return None
        n, k, e = self.cols, b.cols, R._e
        out = [self.field.zero] * (n * k)
        for r, pc in enumerate(pivots):
            base = r * (n + k) + n
            out[pc * k : (pc + 1) * k] = e[base : base + k]
        return Matrix._trusted(self.field, n, k, out)

    # serialization

    def to_jsonable(self) -> list:
        f = self.field
        return [[f.entry_to_json(x) for x in self.row_list(i)] for i in range(self.rows)]

    @staticmethod
    def from_jsonable(field: FieldSpec, data, rows: int | None = None, cols: int | None = None) -> "Matrix":
        """Parse the JSON matrix form (array of rows). Zero-dimension
        matrices lose a dimension in JSON ([] could be 0x3), so the intended
        shape may be supplied."""
        if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
            raise ShapeError("matrix JSON must be an array of arrays")
        r = len(data)
        c = len(data[0]) if data else 0
        if rows is not None and cols is not None:
            if data == [] or all(row == [] for row in data):
                if rows * cols == 0:
                    return Matrix(field, rows, cols)
            if (r, c) != (rows, cols):
                raise ShapeError(f"expected {rows}x{cols} matrix, got {r}x{c}")
        m = Matrix.from_rows(field, data) if data else Matrix(field, 0, c)
        return m


def hstack(mats) -> Matrix:
    """Concatenate matrices left to right (equal row counts)."""
    mats = list(mats)
    if not mats:
        raise ShapeError("hstack of nothing")
    field = mats[0].field
    rows = mats[0].rows
    for m in mats[1:]:
        if m.field != field:
            raise FieldMismatchError("mixed fields in hstack")
        if m.rows != rows:
            raise ShapeError("row count mismatch in hstack")
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m._e[i * m.cols : (i + 1) * m.cols])
    return Matrix._trusted(field, rows, sum(m.cols for m in mats), out)


def vstack(mats) -> Matrix:
    """Concatenate matrices top to bottom (equal column counts)."""
    mats = list(mats)
    if not mats:
        raise ShapeError("vstack of nothing")
    field = mats[0].field
    cols = mats[0].cols
    out = []
    for m in mats:
        if m.field != field:
            raise FieldMismatchError("mixed fields in vstack")
        if m.cols != cols:
            raise ShapeError("column count mismatch in vstack")
        out.extend(m._e)
    return Matrix._trusted(field, sum(m.rows for m in mats), cols, out)


def block_diag(field: FieldSpec, mats) -> Matrix:
    """Block-diagonal direct sum; an empty list gives the 0x0 matrix."""
    mats = list(mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [field.zero] * (rows * cols)
    r0 = c0 = 0
    for m in mats:
        if m.field != field:
            raise FieldMismatchError("mixed fields in block_diag")
        for i in range(m.rows):
            base = (r0 + i) * cols + c0
            out[base : base + m.cols] = m._e[i * m.cols : (i + 1) * m.cols]
        r0 += m.rows
        c0 += m.cols
    return Matrix._trusted(field, rows, cols, out)

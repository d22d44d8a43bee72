"""Exact dense matrices over a FieldSpec, with the elimination routines the
rest of the toolkit is built on: reduced row echelon form, kernel and image
bases, and linear solving. All outputs are deterministic (first-nonzero pivot
scan, fixed free-variable ordering) so downstream constructions are canonical.

Zero-row and zero-column matrices are first class; they carry their shape.
A product with an empty or all-zero operand is the zero matrix at once, and
an all-zero matrix is its own RREF with no pivots, so degenerate blocks cost
no elimination.

Every entry is canonical: an int in [0, p) over F_p, a Fraction over Q.
The public constructors (Matrix(...), from_rows, column, from_jsonable)
coerce and validate what they are given; Matrix._trusted keeps the shape
check and skips coercion. This module's operations build their results in
stored form through Matrix._make, which checks nothing, and Matrix._blocks
cuts a computed flat sequence (a kernel column, a lift) into blocks the
same way, so no output is re-coerced or re-packed.
Over F_p the inner loops are plain int arithmetic with one `% p` per entry
or row operation; over Q the same loops run on Fractions with no reduction.

Storage. Over Q and F_p for p > 2 the slot _e holds the entries row-major
as one flat tuple. Over F2 it holds one int per row, column 0 as the most
significant of cols bits (the M4RI layout: Albrecht, Bard & Hart, ACM TOMS
37, 2010): a product row is the XOR of the rows of B its bits pick,
elimination swaps and XORs whole rows, and is_zero, equality and hashing
compare ints. Every F2 matrix is stored that way however it was built, so
equal matrices compare and hash equal; the pivot scan is the same, so the
RREF, kernel and image bases are the ones the flat loops give. Code outside
this module reads entries through flat() or key(), the stored tuple. With
column 0 on top, comparing two rows of one width as ints orders them as
comparing their entries does, so key() sorts matrices of one field and
shape exactly as their flat entries sort.

Caches. Products, RREFs and kernels are computed behind three bounded
functools.lru_caches (_matmul, _rref, _kernel; 128 entries each) keyed by
value: the field, the shape and the stored entries, which is exactly what
Matrix.__eq__ compares. Fields are interned and F2 rows are ints, so a key
hashes cheaply. So a matrix equal to one eliminated or multiplied
recently, however it was built, gets the shared result without the work,
and a check that recomputes a product or RREF its construction just made
reads it from the cache. The results are immutable Matrix objects, so
sharing them is safe; no Matrix holds a result of its own.
"""

from functools import lru_cache
from operator import mul, xor

from .errors import FieldMismatchError, ShapeError
from .fields import FieldSpec

_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _pack(entries, rows, cols) -> tuple:
    """The F2 bit rows of rows x cols flat entries in {0, 1}: each row read
    as a binary numeral, column 0 first."""
    if not any(entries):  # all zero, or no entries at all
        return (0,) * rows
    digits = bytes(entries).translate(_DIGITS)
    return tuple([int(digits[i : i + cols], 2) for i in range(0, rows * cols, cols)])


class Matrix:
    """Immutable row-major matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "_e")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries=()):
        self._fill(field, rows, cols, [field.coerce(x) for x in entries])

    @staticmethod
    def _trusted(field: FieldSpec, rows: int, cols: int, entries) -> "Matrix":
        """A matrix from flat entries already canonical for field (computed
        from canonical matrices); checks the shape, coerces nothing."""
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
        _set_field(self, field)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_e(self, _pack(entries, rows, cols) if field.modulus == 2 else tuple(entries))

    @staticmethod
    def _blocks(field: FieldSpec, seq, shapes) -> list:
        """The matrices of the (rows, cols) shapes cut in turn from the flat
        canonical sequence seq, each row-major; checks nothing."""
        out, o = [], 0
        for r, c in shapes:
            e = seq[o : o + r * c]
            o += r * c
            out.append(Matrix._make(field, r, c, _pack(e, r, c) if field.modulus == 2 else e))
        return out

    @staticmethod
    def _make(field: FieldSpec, rows: int, cols: int, e) -> "Matrix":
        """A matrix from its stored form, as this module's operations
        compute it; checks nothing."""
        m = object.__new__(Matrix)
        _set_field(m, field)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_e(m, tuple(e))
        return m

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
        if n < 0:
            raise ShapeError(f"negative shape {n}x{n}")
        if field.modulus == 2:
            return Matrix._make(field, n, n, [1 << s for s in range(n - 1, -1, -1)])
        e = [field.zero] * (n * n)
        for i in range(n):
            e[i * n + i] = field.one
        return Matrix._make(field, n, n, e)

    @staticmethod
    def column(field: FieldSpec, values) -> "Matrix":
        values = list(values)
        return Matrix(field, len(values), 1, values)

    # accessors

    def flat(self) -> tuple:
        """The entries, row-major, as one tuple; over F2 unpacked from the
        stored bit rows on each call."""
        if self.field.modulus != 2:
            return self._e
        return tuple([r >> s & 1 for r in self._e for s in range(self.cols - 1, -1, -1)])

    def key(self) -> tuple:
        """The stored entries: hashable, and with the field and shape they
        determine the matrix. Among matrices of one field and shape they
        order as the flat entries do."""
        return self._e

    def entry(self, i: int, j: int):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError(f"index ({i},{j}) out of range for {self.rows}x{self.cols}")
        return self.flat()[i * self.cols + j]

    def to_lists(self) -> list:
        e, c = self.flat(), self.cols
        return [list(e[i * c : (i + 1) * c]) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self._e)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self._e))

    def __repr__(self):
        return f"Matrix({self.field.label}, {self.rows}x{self.cols}, {self.to_lists()})"

    # arithmetic

    def _require_same_shape(self, other):
        if self.field is not other.field:
            raise FieldMismatchError(f"{self.field.label} vs {other.field.label}")
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def _canonical(self, out) -> "Matrix":
        """A matrix of this shape from plain sums and products of canonical
        flat entries: one `% p` per entry over F_p, nothing over Q."""
        p = self.field.modulus
        return Matrix._trusted(
            self.field, self.rows, self.cols, [x % p for x in out] if p else out
        )

    def __add__(self, other):
        self._require_same_shape(other)
        if self.field.modulus == 2:
            return Matrix._make(self.field, self.rows, self.cols, map(xor, self._e, other._e))
        return self._canonical([a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other):
        self._require_same_shape(other)
        return self._canonical([a - b for a, b in zip(self.flat(), other.flat())])

    def __neg__(self):
        return self._canonical([-a for a in self.flat()])

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return self._canonical([c * a for a in self.flat()])

    def __matmul__(self, other):
        F = self.field
        if F is not other.field:
            raise FieldMismatchError(f"{F.label} vs {other.field.label}")
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return _matmul(F, self.rows, self.cols, self._e, other.cols, other._e)

    def trace(self):
        """The sum of the diagonal entries of a square matrix."""
        if self.rows != self.cols:
            raise ShapeError(f"trace of a non-square {self.rows}x{self.cols} matrix")
        p = self.field.modulus
        t = sum(self.flat()[:: self.cols + 1], self.field.zero)
        return t % p if p else t

    def transpose(self) -> "Matrix":
        e, r, c = self._e, self.rows, self.cols
        if self.field.modulus == 2:  # row j of the result: column j's bit of every row
            out = []
            for s in range(c - 1, -1, -1):
                v = 0
                for x in e:
                    v = v << 1 | x >> s & 1
                out.append(v)
            return Matrix._make(self.field, c, r, out)
        return Matrix._make(self.field, c, r, [e[i * c + j] for j in range(c) for i in range(r)])

    def take_rows(self, indices) -> "Matrix":
        w = 1 if self.field.modulus == 2 else self.cols  # stored items per row
        rows = [self._e[i * w : (i + 1) * w] for i in indices]
        return Matrix._make(self.field, len(rows), self.cols, [x for r in rows for x in r])

    def take_cols(self, indices) -> "Matrix":
        indices = list(indices)
        e, c = self._e, self.cols
        if self.field.modulus == 2:  # append column j's bit to every row, j by j
            out = [0] * self.rows
            for j in indices:
                out = [v << 1 | x >> (c - 1 - j) & 1 for v, x in zip(out, e)]
            return Matrix._make(self.field, self.rows, len(indices), out)
        out = [e[i * c + j] for i in range(self.rows) for j in indices]
        return Matrix._make(self.field, self.rows, len(indices), out)

    # elimination

    def rref(self):
        """(R, pivots): the reduced row echelon form and its pivot columns
        in increasing order. The pivot is the first nonzero entry down each
        column, so R is deterministic and R.rref() == (R, pivots). The pair
        is computed once per value and shared by every equal matrix while
        it stays in the bounded cache (_rref)."""
        return _rref(self.field, self.rows, self.cols, self._e)

    def rank(self) -> int:
        return len(self.rref()[1])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def kernel_basis(self) -> "Matrix":
        """Basis of the right kernel, as the columns of a cols x k matrix."""
        return self.kernel()[0]

    def kernel(self):
        """(K, free): the free columns of the RREF in increasing order, and
        K the kernel basis whose column j sets free variable free[j] to 1
        and the others to 0, so row free[j] of K is the j-th unit vector."""
        return _kernel(self.field, self.rows, self.cols, self._e)

    def image_basis(self) -> "Matrix":
        """Basis of the column space: the original columns at the RREF
        pivot positions, so the count equals the rank."""
        _, pivots = self.rref()
        return self.take_cols(pivots)

    def _unit_rows(self):
        """Per column j the last row u_j with a nonzero entry in it, when
        every row u_j is the j-th unit vector; else None."""
        e, c = self._e, self.cols
        units = []
        if self.field.modulus == 2:
            for s in range(c - 1, -1, -1):
                u = next((i for i in range(self.rows - 1, -1, -1) if e[i] >> s & 1), None)
                if u is None or e[u] != 1 << s:
                    return None
                units.append(u)
            return units
        for j in range(c):
            u = next((i for i in range(self.rows - 1, -1, -1) if e[i * c + j]), None)
            if u is None or e[u * c + j] != 1 or any(e[u * c : u * c + j]) or any(
                    e[u * c + j + 1 : (u + 1) * c]):
                return None
            units.append(u)
        return units

    def solve(self, b: "Matrix"):
        """A particular solution x of self @ x = b, or None if inconsistent.

        b may have several columns; they are solved simultaneously. Free
        variables are set to zero, making the solution canonical.

        A matrix in unit form (_unit_rows: a kernel basis, an identity) is
        solved by selection: x is b's rows at the unit rows, kept when
        self @ x == b. Other matrices reduce [A | b].
        """
        if self.field is not b.field:
            raise FieldMismatchError(f"{self.field.label} vs {b.field.label}")
        if self.rows != b.rows:
            raise ShapeError(f"solve: {self.rows} rows vs rhs {b.rows}")
        units = self._unit_rows()
        if units is not None:
            x = b.take_rows(units)
            return x if self @ x == b else None
        aug = hstack([self, b])
        R, pivots = aug.rref()
        if pivots and pivots[-1] >= self.cols:
            return None
        n, k, e = self.cols, b.cols, R.flat()
        out = [self.field.zero] * (n * k)
        for r, pc in enumerate(pivots):
            base = r * (n + k) + n
            out[pc * k : (pc + 1) * k] = e[base : base + k]
        return Matrix._trusted(self.field, n, k, out)

    # serialization

    def to_jsonable(self) -> list:
        if self.field.modulus:  # entry_to_json is the identity on F_p
            return self.to_lists()
        return [list(map(self.field.entry_to_json, row)) for row in self.to_lists()]

    @staticmethod
    def from_jsonable(field: FieldSpec, data, rows: int | None = None, cols: int | None = None) -> "Matrix":
        """Parse to_jsonable's form: r rows of c entries, so an r x 0 matrix
        is r empty rows. [] could be 0x3, so the shape may be supplied."""
        if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
            raise ShapeError("matrix JSON must be an array of arrays")
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeError(f"expected {rows}x{cols} matrix as {rows} rows of {cols} entries")
        return Matrix(field, rows, cols, [x for r in data for x in r])


# the slots' own setters: __setattr__ refuses assignment, and these cost
# less per call than object.__setattr__ by name
_set_field, _set_rows, _set_cols, _set_e = (
    getattr(Matrix, slot).__set__ for slot in Matrix.__slots__)


# The work behind Matrix.__matmul__, rref and kernel, cached by value (see
# Caches above). The shape is part of every key, as F2 rows of different
# widths can be the same ints; the bounds keep memory flat over a sweep.


@lru_cache(maxsize=128)
def _matmul(F: FieldSpec, n: int, k: int, a: tuple, m: int, b: tuple) -> Matrix:
    """The n x m product of the n x k matrix a by the k x m matrix b,
    both in stored form."""
    p = F.modulus
    if not (any(a) and any(b)):  # an empty operand has no entries
        return Matrix._make(F, n, m, (0,) * n if p == 2 else (F.zero,) * (n * m))
    if p == 2:  # row i of the product: the XOR of B's rows at row i's bits
        rb, out = b[::-1], []
        for r in a:
            acc = 0
            while r:  # r & -r is r's lowest set bit
                acc ^= rb[(r & -r).bit_length() - 1]
                r &= r - 1
            out.append(acc)
        return Matrix._make(F, n, m, out)
    arows = [a[i * k : (i + 1) * k] for i in range(n)]
    bcols = [b[j::m] for j in range(m)]
    # k > 0 here, so each sum has a term and is a Fraction over Q
    out = [sum(map(mul, row, col)) for row in arows for col in bcols]
    return Matrix._make(F, n, m, [x % p for x in out] if p else out)


@lru_cache(maxsize=128)
def _rref(F: FieldSpec, rows: int, cols: int, e: tuple):
    """(R, pivots) of the rows x cols matrix e in stored form."""
    p = F.modulus
    if not any(e):
        return Matrix._make(F, rows, cols, e), ()
    pivots, r = [], 0
    if p == 2:  # the same scan on bit rows: swap, then XOR the pivot row away
        m = list(e)
        for c in range(cols):
            bit = 1 << (cols - 1 - c)
            for i in range(r, rows):
                if m[i] & bit:
                    break
            else:
                continue
            m[i], m[r] = m[r], m[i]
            for i in range(rows):
                if i != r and m[i] & bit:
                    m[i] ^= m[r]
            pivots.append(c)
            r += 1
    else:
        m = [list(e[i * cols : (i + 1) * cols]) for i in range(rows)]
        for c in range(cols):
            if r == rows:
                break
            for pr in range(r, rows):
                if m[pr][c] != 0:
                    break
            else:
                continue
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
        m = [x for row in m for x in row]
    return Matrix._make(F, rows, cols, m), tuple(pivots)


@lru_cache(maxsize=128)
def _kernel(F: FieldSpec, rows: int, n: int, e: tuple):
    """(K, free) of the rows x n matrix e in stored form."""
    p = F.modulus
    R, pivots = _rref(F, rows, n, e)
    e = R._e
    pivot_set = set(pivots)
    free = tuple([c for c in range(n) if c not in pivot_set])
    k = len(free)
    if p == 2:  # the same columns as bits: -v = v, and column idx is bit k-1-idx
        out = [0] * n
        for idx, fc in enumerate(free):
            out[fc] = bit = 1 << (k - 1 - idx)
            for r, pc in enumerate(pivots):
                if e[r] >> (n - 1 - fc) & 1:
                    out[pc] |= bit
        return Matrix._make(F, n, k, out), free
    out = [F.zero] * (n * k)
    for idx, fc in enumerate(free):
        out[fc * k + idx] = F.one
        for r, pc in enumerate(pivots):
            v = e[r * n + fc]
            if v != 0:
                out[pc * k + idx] = p - v if p else -v
    return Matrix._make(F, n, k, out), free


def hstack(mats) -> Matrix:
    """Concatenate matrices left to right (equal row counts)."""
    mats = list(mats)
    if not mats:
        raise ShapeError("hstack of nothing")
    field = mats[0].field
    rows = mats[0].rows
    for m in mats[1:]:
        if m.field is not field:
            raise FieldMismatchError("mixed fields in hstack")
        if m.rows != rows:
            raise ShapeError("row count mismatch in hstack")
    if field.modulus == 2:  # a row is its pieces' bits, each shifted past the ones to its right
        out = [0] * rows
        for m in mats:
            out = [v << m.cols | x for v, x in zip(out, m._e)]
    else:
        out = []
        for i in range(rows):
            for m in mats:
                out.extend(m._e[i * m.cols : (i + 1) * m.cols])
    return Matrix._make(field, rows, sum(m.cols for m in mats), out)


def vstack(mats) -> Matrix:
    """Concatenate matrices top to bottom (equal column counts); the stored
    forms concatenate, bit rows and flat entries alike."""
    mats = list(mats)
    if not mats:
        raise ShapeError("vstack of nothing")
    field = mats[0].field
    cols = mats[0].cols
    out = []
    for m in mats:
        if m.field is not field:
            raise FieldMismatchError("mixed fields in vstack")
        if m.cols != cols:
            raise ShapeError("column count mismatch in vstack")
        out.extend(m._e)
    return Matrix._make(field, sum(m.rows for m in mats), cols, out)


def block_diag(field: FieldSpec, mats) -> Matrix:
    """Block-diagonal direct sum; an empty list gives the 0x0 matrix."""
    mats = list(mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    f2 = field.modulus == 2
    out = [] if f2 else [field.zero] * (rows * cols)
    r0 = c0 = 0
    for m in mats:
        if m.field is not field:
            raise FieldMismatchError("mixed fields in block_diag")
        c0 += m.cols
        if f2:  # a block's rows, shifted past the columns to its right
            out += [x << (cols - c0) for x in m._e]
            continue
        for i in range(m.rows):
            base = (r0 + i) * cols + c0 - m.cols
            out[base : base + m.cols] = m._e[i * m.cols : (i + 1) * m.cols]
        r0 += m.rows
    return Matrix._make(field, rows, cols, out)

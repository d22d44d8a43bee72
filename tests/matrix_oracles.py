"""Test-only oracle for the matrix layer: the flat-tuple loops that
approxcat.matrix runs over Q and F_p for p > 2, and ran over F2 too before
F2 rows were stored as bits. Every function takes and returns row-major
flat entries, so the bit-row kernel is checked entry for entry, pivot for
pivot, against code that never packs a row."""

from operator import mul


def _canonical(F, out):
    p = F.modulus
    return [x % p for x in out] if p else list(out)


def add(F, a, b):
    return _canonical(F, [x + y for x, y in zip(a, b)])


def sub(F, a, b):
    return _canonical(F, [x - y for x, y in zip(a, b)])


def matmul(F, n, k, m, a, b):
    arows = [a[i * k : (i + 1) * k] for i in range(n)]
    bcols = [b[j::m] for j in range(m)]
    return _canonical(F, [sum(map(mul, row, col), F.zero) for row in arows for col in bcols])


def zeros(F, rows, cols):
    return [F.zero] * (rows * cols)


def identity(F, n):
    e = zeros(F, n, n)
    for i in range(n):
        e[i * n + i] = F.one
    return e


def trace(F, n, e):
    return _canonical(F, [sum(e[:: n + 1], F.zero)])[0]


def transpose(rows, cols, e):
    return [e[i * cols + j] for j in range(cols) for i in range(rows)]


def take_rows(cols, e, indices):
    return [x for i in indices for x in e[i * cols : (i + 1) * cols]]


def take_cols(rows, cols, e, indices):
    return [e[i * cols + j] for i in range(rows) for j in indices]


def hstack(mats):
    """mats: (rows, cols, entries) triples with one row count."""
    rows = mats[0][0]
    return [x for i in range(rows) for _, c, e in mats for x in e[i * c : (i + 1) * c]]


def vstack(mats):
    return [x for _, _, e in mats for x in e]


def block_diag(F, mats):
    rows, cols = sum(m[0] for m in mats), sum(m[1] for m in mats)
    out = zeros(F, rows, cols)
    r0 = c0 = 0
    for r, c, e in mats:
        for i in range(r):
            out[(r0 + i) * cols + c0 : (r0 + i) * cols + c0 + c] = e[i * c : (i + 1) * c]
        r0, c0 = r0 + r, c0 + c
    return out


def rref(F, rows, cols, e):
    """(entries, pivots) by the first-nonzero scan down each column."""
    p = F.modulus
    m = [list(e[i * cols : (i + 1) * cols]) for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pe = m[r][c]
        if pe != 1:
            inv = pow(pe, -1, p) if p else 1 / pe
            m[r] = _canonical(F, [inv * x for x in m[r]])
        for i in range(rows):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = _canonical(F, [x - f * y for x, y in zip(m[i], m[r])])
        pivots.append(c)
        r += 1
    return [x for row in m for x in row], tuple(pivots)


def kernel_basis(F, rows, cols, e):
    """The cols x k kernel basis, one free variable set to 1 at a time."""
    p = F.modulus
    R, pivots = rref(F, rows, cols, e)
    free = [c for c in range(cols) if c not in pivots]
    k = len(free)
    out = zeros(F, cols, k)
    for idx, fc in enumerate(free):
        out[fc * k + idx] = F.one
        for r, pc in enumerate(pivots):
            v = R[r * cols + fc]
            if v != 0:
                out[pc * k + idx] = p - v if p else -v
    return out


def unit_rows(rows, cols, e):
    """Per column j the last row with a nonzero entry in it, when each of
    those rows is the j-th unit vector; else None."""
    units = []
    for j in range(cols):
        u = next((i for i in range(rows - 1, -1, -1) if e[i * cols + j]), None)
        unit = tuple(int(t == j) for t in range(cols))
        if u is None or tuple(e[u * cols : (u + 1) * cols]) != unit:
            return None
        units.append(u)
    return units


def solve(F, rows, n, a, k, b):
    """A solution of a x = b with free variables zero, or None: b's rows at
    the unit rows of a when a has them, else read off the RREF of [a | b]."""
    units = unit_rows(rows, n, a)
    if units is not None:
        x = take_rows(k, b, units)
        return x if matmul(F, rows, n, k, a, x) == list(b) else None
    R, pivots = rref(F, rows, n + k, hstack([(rows, n, a), (rows, k, b)]))
    if pivots and pivots[-1] >= n:
        return None
    out = zeros(F, n, k)
    for r, pc in enumerate(pivots):
        out[pc * k : (pc + 1) * k] = R[r * (n + k) + n : (r + 1) * (n + k)]
    return out

"""Property tests of the matrix kernel against a reference.

The reference routines are the generic loops the kernel used before its
prime-field fast path: every scalar operation goes through a FieldSpec
method. The kernel must agree with them entry for entry, pivot for pivot,
over F2, F3, F5 and Q, on every shape from 0 to 6 (zero rows and zero
columns included), and every entry it returns must be canonical.

F2 matrices are stored as bit rows, so every F2 operation is also checked
against the flat-tuple loops of tests/matrix_oracles.py, on every shape
from 0 to 8; a matrix built by the public constructor, by _trusted or as
an operation's result is one value, with one hash and one key.

Products, RREFs and kernels are cached by value: matrices equal by every
route (the constructor, from_jsonable, a computed product) get equal
results, a matrix of another shape with the same stored entries never
gets theirs, every result matches the references before and after the
caches have evicted it, and no cache outgrows its bound.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat import matrix as matrix_module
from approxcat.errors import ShapeError
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix, block_diag, hstack, vstack
import matrix_oracles as oracle

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), FieldSpec.rationals()]
SETTINGS = settings(max_examples=150, deadline=None)

dims = st.integers(min_value=0, max_value=6)
fields = st.sampled_from(FIELDS)


def scalars(field):
    if field.kind == "rationals":
        # mostly small integers, so systems are often consistent and sparse
        return st.one_of(
            st.sampled_from([0, 0, 1, -1, 2]),
            st.fractions(min_value=-4, max_value=4, max_denominator=5),
        )
    # any int: the public constructor reduces it
    return st.integers(min_value=-7, max_value=7)


@st.composite
def matrices(draw, field, rows=None, cols=None):
    rows = draw(dims) if rows is None else rows
    cols = draw(dims) if cols is None else cols
    entries = draw(st.lists(scalars(field), min_size=rows * cols, max_size=rows * cols))
    return Matrix(field, rows, cols, entries)


# reference routines: lists of rows in, lists of rows out


def ref_matmul(F, a, b, k, m):
    out = []
    for arow in a:
        row = []
        for j in range(m):
            acc = F.zero
            for t in range(k):
                x = arow[t]
                if x != 0:
                    acc = F.add(acc, F.mul(x, b[t][j]))
            row.append(acc)
        out.append(row)
    return out


def ref_rref(F, m, cols):
    m = [list(r) for r in m]
    rows = len(m)
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
        if pe != F.one:
            inv = F.inv(pe)
            m[r] = [F.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                mr = m[r]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], mr)]
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def ref_kernel(F, m, cols):
    R, pivots = ref_rref(F, m, cols)
    free = [c for c in range(cols) if c not in set(pivots)]
    out = [[F.zero] * len(free) for _ in range(cols)]
    for idx, fc in enumerate(free):
        out[fc][idx] = F.one
        for r, pc in enumerate(pivots):
            v = R[r][fc]
            if v != 0:
                out[pc][idx] = F.neg(v)
    return out


def ref_solve(F, a, b, n, k):
    R, pivots = ref_rref(F, [ra + rb for ra, rb in zip(a, b)], n + k)
    if pivots and pivots[-1] >= n:
        return None
    out = [[F.zero] * k for _ in range(n)]
    for r, pc in enumerate(pivots):
        for j in range(k):
            out[pc][j] = R[r][n + j]
    return out


def assert_canonical(m: Matrix):
    F = m.field
    assert len(m.flat()) == m.rows * m.cols
    for x in m.flat():
        if F.kind == "rationals":
            assert type(x) is Fraction
        else:
            assert type(x) is int and 0 <= x < F.modulus


@st.composite
def pairs(draw):
    """Two matrices of one shape over one field, and a scalar."""
    F = draw(fields)
    rows, cols = draw(dims), draw(dims)
    return F, draw(matrices(F, rows, cols)), draw(matrices(F, rows, cols)), draw(scalars(F))


@st.composite
def products(draw):
    F = draw(fields)
    n, k, m = draw(dims), draw(dims), draw(dims)
    return F, draw(matrices(F, n, k)), draw(matrices(F, k, m))


@st.composite
def systems(draw):
    """(A, b): b is A times a drawn matrix, or drawn freely (often
    inconsistent)."""
    F = draw(fields)
    a = draw(matrices(F))
    k = draw(dims)
    if draw(st.booleans()):
        b = a @ draw(matrices(F, a.cols, k))
    else:
        b = draw(matrices(F, a.rows, k))
    return a, b


@SETTINGS
@given(products())
def test_matmul_matches_reference(case):
    F, a, b = case
    got = a @ b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got.to_lists() == ref_matmul(F, a.to_lists(), b.to_lists(), a.cols, b.cols)
    assert_canonical(got)


@SETTINGS
@given(pairs())
def test_entrywise_arithmetic_matches_reference(case):
    F, a, b, c = case
    ea, eb = a.flat(), b.flat()
    cc = F.coerce(c)
    expected = {
        "add": (a + b, [F.add(x, y) for x, y in zip(ea, eb)]),
        "sub": (a - b, [F.sub(x, y) for x, y in zip(ea, eb)]),
        "neg": (-a, [F.neg(x) for x in ea]),
        "scale": (a.scale(c), [F.mul(cc, x) for x in ea]),
    }
    for got, ref in expected.values():
        assert (got.rows, got.cols) == (a.rows, a.cols)
        assert list(got.flat()) == ref
        assert_canonical(got)


@SETTINGS
@given(fields.flatmap(matrices))
def test_rref_matches_reference(a):
    R, pivots = a.rref()
    ref, ref_pivots = ref_rref(a.field, a.to_lists(), a.cols)
    assert pivots == ref_pivots
    assert (R.rows, R.cols) == (a.rows, a.cols)
    assert R.to_lists() == ref
    assert_canonical(R)


@SETTINGS
@given(fields.flatmap(matrices))
def test_kernel_basis_matches_reference(a):
    K = a.kernel_basis()
    assert K.rows == a.cols
    assert K.to_lists() == ref_kernel(a.field, a.to_lists(), a.cols)
    assert (a @ K).is_zero()
    assert_canonical(K)


@SETTINGS
@given(systems())
def test_solve_matches_reference(case):
    a, b = case
    x = a.solve(b)
    ref = ref_solve(a.field, a.to_lists(), b.to_lists(), a.cols, b.cols)
    if ref is None:
        assert x is None
        return
    assert x is not None and (x.rows, x.cols) == (a.cols, b.cols)
    assert x.to_lists() == ref
    assert a @ x == b
    assert_canonical(x)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label)
def test_trusted_constructor_keeps_the_shape_check(field):
    with pytest.raises(ShapeError):
        Matrix._trusted(field, 2, 2, [field.zero] * 3)
    with pytest.raises(ShapeError):
        Matrix._trusted(field, -1, 0, [])


# degenerate operands: empty shapes, and all-zero matrices about half the time


def zero_scalars(field):
    """Inputs that coerce to zero, so the constructor's reduction is crossed."""
    if field.kind == "rationals":
        return st.sampled_from([0, Fraction(0)])
    p = field.modulus
    return st.sampled_from([0, p, -p])


@st.composite
def maybe_zero_matrices(draw, field, rows=None, cols=None):
    rows = draw(dims) if rows is None else rows
    cols = draw(dims) if cols is None else cols
    entries = zero_scalars(field) if draw(st.booleans()) else scalars(field)
    return Matrix(field, rows, cols, draw(st.lists(entries, min_size=rows * cols,
                                                   max_size=rows * cols)))


@st.composite
def degenerate_products(draw):
    F = draw(fields)
    n, k, m = draw(dims), draw(dims), draw(dims)
    return F, draw(maybe_zero_matrices(F, n, k)), draw(maybe_zero_matrices(F, k, m))


@SETTINGS
@given(degenerate_products())
def test_degenerate_matmul_matches_reference(case):
    F, a, b = case
    got = a @ b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got.to_lists() == ref_matmul(F, a.to_lists(), b.to_lists(), a.cols, b.cols)
    assert_canonical(got)
    if a.is_zero() or b.is_zero():
        assert got == Matrix.zeros(F, a.rows, b.cols)


@SETTINGS
@given(fields.flatmap(maybe_zero_matrices))
def test_degenerate_rref_matches_reference(a):
    R, pivots = a.rref()
    ref, ref_pivots = ref_rref(a.field, a.to_lists(), a.cols)
    assert pivots == ref_pivots
    assert (R.rows, R.cols) == (a.rows, a.cols)
    assert R.to_lists() == ref
    assert_canonical(R)
    assert R.rref() == (R, pivots)
    # the RREF is a separate matrix: one holding itself would be a cycle
    assert R is not a
    assert a.rank() == len(ref_pivots)
    assert a.image_basis().cols == len(ref_pivots)


@SETTINGS
@given(fields.flatmap(maybe_zero_matrices))
def test_kernel_hands_out_its_unit_rows(a):
    # row free[j] of the basis is the j-th unit vector, as _unit_rows reads it
    K, free = a.kernel()
    assert K == a.kernel_basis()
    assert list(free) == K._unit_rows()


@SETTINGS
@given(st.data())
def test_blocks_are_the_trusted_matrices(data):
    F = data.draw(fields)
    shapes = data.draw(st.lists(st.tuples(dims, dims), max_size=4))
    n = sum(r * c for r, c in shapes)
    seq = Matrix(F, 1, n, data.draw(st.lists(scalars(F), min_size=n, max_size=n))).flat()
    blocks, o = Matrix._blocks(F, seq, shapes), 0
    assert len(blocks) == len(shapes)
    for (r, c), got in zip(shapes, blocks):
        want = Matrix._trusted(F, r, c, seq[o : o + r * c])
        assert got == want and hash(got) == hash(want) and got.key() == want.key()
        o += r * c


@SETTINGS
@given(fields.flatmap(maybe_zero_matrices))
def test_degenerate_kernel_basis_matches_reference(a):
    K = a.kernel_basis()
    assert (K.rows, K.cols) == (a.cols, a.cols - len(ref_rref(a.field, a.to_lists(), a.cols)[1]))
    assert K.to_lists() == ref_kernel(a.field, a.to_lists(), a.cols)
    assert (a @ K).is_zero()
    assert_canonical(K)


@st.composite
def degenerate_systems(draw):
    """(A, b) with A, b or both all zero about half the time each."""
    F = draw(fields)
    a = draw(maybe_zero_matrices(F))
    k = draw(dims)
    if draw(st.booleans()):
        b = a @ draw(maybe_zero_matrices(F, a.cols, k))
    else:
        b = draw(maybe_zero_matrices(F, a.rows, k))
    return a, b


@SETTINGS
@given(degenerate_systems())
def test_degenerate_solve_matches_reference(case):
    a, b = case
    x = a.solve(b)
    ref = ref_solve(a.field, a.to_lists(), b.to_lists(), a.cols, b.cols)
    if ref is None:
        assert x is None
        return
    assert x is not None and (x.rows, x.cols) == (a.cols, b.cols)
    assert x.to_lists() == ref
    assert a @ x == b
    assert_canonical(x)


# F2 bit rows against the flat-tuple loops of tests/matrix_oracles.py, on
# every shape from 0 to 8

F2 = FieldSpec.prime(2)
F2_SETTINGS = settings(max_examples=200, deadline=None)
f2_dims = st.integers(min_value=0, max_value=8)


@st.composite
def f2_matrices(draw, rows=None, cols=None):
    """An F2 matrix built by the public constructor from any ints, all zero
    about a quarter of the time."""
    rows = draw(f2_dims) if rows is None else rows
    cols = draw(f2_dims) if cols is None else cols
    entries = st.sampled_from([0, 2, -2]) if draw(st.integers(0, 3)) == 0 else scalars(F2)
    return Matrix(F2, rows, cols, draw(st.lists(entries, min_size=rows * cols,
                                                max_size=rows * cols)))


def f2_flat(m: Matrix) -> list:
    """The entries of an F2 matrix, each checked to be 0 or 1."""
    e = list(m.flat())
    assert len(e) == m.rows * m.cols and all(type(x) is int and x in (0, 1) for x in e)
    return e


@F2_SETTINGS
@given(st.data())
def test_f2_entrywise_and_products_match_the_flat_loops(data):
    n, k, m = data.draw(f2_dims), data.draw(f2_dims), data.draw(f2_dims)
    a, b = data.draw(f2_matrices(n, k)), data.draw(f2_matrices(n, k))
    c = data.draw(f2_matrices(k, m))
    ea, eb, ec = f2_flat(a), f2_flat(b), f2_flat(c)
    assert f2_flat(a + b) == oracle.add(F2, ea, eb)
    assert f2_flat(a - b) == oracle.sub(F2, ea, eb)
    assert f2_flat(-a) == ea and f2_flat(a.scale(3)) == ea and f2_flat(a.scale(2)) == [0] * len(ea)
    assert f2_flat(a @ c) == oracle.matmul(F2, n, k, m, ea, ec)
    assert ((a @ c).rows, (a @ c).cols) == (n, m)
    assert a.is_zero() == (not any(ea))
    assert a.to_lists() == [ea[i * k : (i + 1) * k] for i in range(n)]
    assert [a.entry(i, j) for i in range(n) for j in range(k)] == ea
    if n == k:
        assert a.trace() == oracle.trace(F2, n, ea)


@F2_SETTINGS
@given(st.data())
def test_f2_trace_reads_the_diagonal_bits(data):
    # the trace reads bit n - 1 - i of stored row i; the flat formula sums
    # every n + 1-th unpacked entry
    n = data.draw(f2_dims)
    a, b = data.draw(f2_matrices(n, n)), data.draw(f2_matrices(n, n))
    t = a.trace()
    assert type(t) is int and t == sum(f2_flat(a)[:: n + 1]) % 2
    assert (a + b).trace() == (t + b.trace()) % 2
    assert (a @ b).trace() == (b @ a).trace()


@F2_SETTINGS
@given(st.data())
def test_f2_reshaping_matches_the_flat_loops(data):
    a = data.draw(f2_matrices())
    r, c, e = a.rows, a.cols, f2_flat(a)
    t = a.transpose()
    assert (t.rows, t.cols) == (c, r) and f2_flat(t) == oracle.transpose(r, c, e)
    rows = data.draw(st.lists(st.integers(0, r - 1), max_size=8)) if r else []
    cols = data.draw(st.lists(st.integers(0, c - 1), max_size=8)) if c else []
    assert f2_flat(a.take_rows(rows)) == oracle.take_rows(c, e, rows)
    assert a.take_rows(rows).rows == len(rows)
    assert f2_flat(a.take_cols(cols)) == oracle.take_cols(r, c, e, cols)
    assert a.take_cols(cols).cols == len(cols)
    assert f2_flat(Matrix.identity(F2, c)) == oracle.identity(F2, c)
    assert f2_flat(Matrix.zeros(F2, r, c)) == oracle.zeros(F2, r, c)


@F2_SETTINGS
@given(st.data())
def test_f2_stacking_matches_the_flat_loops(data):
    r, c = data.draw(f2_dims), data.draw(f2_dims)
    count = data.draw(st.integers(1, 3))
    side = [data.draw(f2_matrices(r, data.draw(f2_dims))) for _ in range(count)]
    top = [data.draw(f2_matrices(data.draw(f2_dims), c)) for _ in range(count)]
    blocks = [data.draw(f2_matrices()) for _ in range(count - 1)]
    def triples(ms):
        return [(m.rows, m.cols, f2_flat(m)) for m in ms]

    h, v, d = hstack(side), vstack(top), block_diag(F2, blocks)
    assert (h.rows, h.cols) == (r, sum(m.cols for m in side))
    assert f2_flat(h) == oracle.hstack(triples(side))
    assert (v.rows, v.cols) == (sum(m.rows for m in top), c)
    assert f2_flat(v) == oracle.vstack(triples(top))
    assert (d.rows, d.cols) == (sum(m.rows for m in blocks), sum(m.cols for m in blocks))
    assert f2_flat(d) == oracle.block_diag(F2, triples(blocks))


@F2_SETTINGS
@given(f2_matrices())
def test_f2_elimination_matches_the_flat_loops(a):
    r, c, e = a.rows, a.cols, f2_flat(a)
    R, pivots = a.rref()
    ref, ref_pivots = oracle.rref(F2, r, c, e)
    assert pivots == ref_pivots and (R.rows, R.cols) == (r, c) and f2_flat(R) == ref
    assert R.rref() == (R, pivots) and R is not a
    K = a.kernel_basis()
    assert (K.rows, K.cols) == (c, c - len(pivots))
    assert f2_flat(K) == oracle.kernel_basis(F2, r, c, e)
    assert f2_flat(a.image_basis()) == oracle.take_cols(r, c, e, ref_pivots)
    assert a.rank() == len(ref_pivots)


@st.composite
def f2_systems(draw):
    """(A, b) with A drawn freely, or in unit form (a kernel basis or an
    identity) so that solve selects; b is A times a drawn matrix, or free."""
    kind = draw(st.sampled_from(["free", "kernel", "identity"]))
    if kind == "free":
        a = draw(f2_matrices())
    elif kind == "kernel":
        a = draw(f2_matrices()).kernel_basis()
    else:
        a = Matrix.identity(F2, draw(f2_dims))
    k = draw(f2_dims)
    b = a @ draw(f2_matrices(a.cols, k)) if draw(st.booleans()) else draw(f2_matrices(a.rows, k))
    return a, b


@F2_SETTINGS
@given(f2_systems())
def test_f2_solve_matches_the_flat_loops(case):
    a, b = case
    x = a.solve(b)
    ref = oracle.solve(F2, a.rows, a.cols, f2_flat(a), b.cols, f2_flat(b))
    if ref is None:
        assert x is None
        return
    assert x is not None and (x.rows, x.cols) == (a.cols, b.cols)
    assert f2_flat(x) == ref
    assert a @ x == b


@F2_SETTINGS
@given(f2_matrices(), f2_matrices())
def test_f2_matrices_built_three_ways_are_one_value(a, other):
    r, c, e = a.rows, a.cols, f2_flat(a)
    built = [
        Matrix(F2, r, c, e),
        Matrix.from_rows(F2, a.to_lists()) if r else Matrix(F2, 0, c),
        Matrix._trusted(F2, r, c, e),
        a @ Matrix.identity(F2, c),
        a.transpose().transpose(),
        a + Matrix.zeros(F2, r, c),
        Matrix.from_jsonable(F2, a.to_jsonable(), r, c),
    ]
    for m in built:
        assert m == a and hash(m) == hash(a) and m.key() == a.key()
    assert (a == other) == ((r, c, e) == (other.rows, other.cols, f2_flat(other)))
    if (other.rows, other.cols) == (r, c):
        # key() orders matrices of one shape as their flat entries, which
        # keeps fr_enumerate's sort by (total_dim, dims, map keys) unchanged
        assert (a.key() < other.key()) == (e < f2_flat(other))


# the value-keyed caches behind rref, kernel and @

CACHES = (matrix_module._matmul, matrix_module._rref, matrix_module._kernel)


@st.composite
def cache_cases(draw):
    field = draw(fields)
    a = draw(matrices(field))
    return a, draw(matrices(field, rows=a.cols))


def evict(field):
    """Run every cache over more distinct matrices (zero columns of every
    height) than it holds, so each result asked for next is computed."""
    for n in range(1, max(c.cache_info().maxsize for c in CACHES) + 2):
        z = Matrix.zeros(field, n, 1)
        z.rref(), z.kernel(), Matrix.zeros(field, 1, n) @ z


def eliminated(m: Matrix):
    """m's rref and kernel, checked against the references."""
    F, e = m.field, list(m.flat())
    R, pivots = m.rref()
    ref, ref_pivots = ref_rref(F, m.to_lists(), m.cols)
    assert (R.rows, R.cols, pivots) == (m.rows, m.cols, ref_pivots)
    assert R.to_lists() == ref
    K, free = m.kernel()
    assert (K.rows, K.cols) == (m.cols, m.cols - len(pivots))
    assert list(K.flat()) == oracle.kernel_basis(F, m.rows, m.cols, e)
    assert free == tuple(c for c in range(m.cols) if c not in pivots)
    return R, pivots, K, free


def product(a: Matrix, b: Matrix) -> Matrix:
    """a @ b, checked against the reference."""
    p = a @ b
    assert (p.rows, p.cols) == (a.rows, b.cols)
    assert list(p.flat()) == oracle.matmul(a.field, a.rows, a.cols, b.cols,
                                           list(a.flat()), list(b.flat()))
    return p


@SETTINGS
@given(cache_cases())
def test_equal_matrices_share_cached_results_and_shapes_never_do(case):
    a, b = case
    F, r, c = a.field, a.rows, a.cols
    routes = [Matrix(F, r, c, a.flat()), Matrix.from_jsonable(F, a.to_jsonable(), r, c),
              a @ Matrix.identity(F, c)]
    # a matrix of another shape with the same stored entries: over F2 a zero
    # column in front keeps every row's int (and b's, for the product),
    # elsewhere the flat tuple is read as c x r
    if F.modulus == 2:
        twin = hstack([Matrix.zeros(F, r, 1), a])
        twin_b = hstack([Matrix.zeros(F, c, 1), b])
    else:
        twin, twin_b = Matrix(F, c, r, a.flat()), b
    for _ in range(2):  # the second round after every entry was evicted
        results = {eliminated(m) + (product(m, b),) for m in routes}
        assert len(results) == 1
        eliminated(twin)
        product(a, twin_b)
        evict(F)
    assert all(cache.cache_info().currsize <= cache.cache_info().maxsize for cache in CACHES)

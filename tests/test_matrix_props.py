"""Property tests of the matrix kernel against a reference.

The reference routines are the generic loops the kernel used before its
prime-field fast path: every scalar operation goes through a FieldSpec
method. The kernel must agree with them entry for entry, pivot for pivot,
over F2, F3, F5 and Q, on every shape from 0 to 6 (zero rows and zero
columns included), and every entry it returns must be canonical.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.errors import ShapeError
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix

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
    assert len(m._e) == m.rows * m.cols
    for x in m._e:
        if F.kind == "rationals":
            assert type(x) is Fraction
        else:
            assert type(x) is int and 0 <= x < F.modulus


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

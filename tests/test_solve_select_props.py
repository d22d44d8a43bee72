"""Property test of Matrix.solve by selection.

A coefficient matrix in unit form (the last nonzero row u_j of each column
j is the j-th unit vector) has one candidate solution, b's rows at the
u_j, which solve keeps only when its product gives b back; every other
matrix reduces [A | b]. The reference is the reduction alone (ref_solve in
rep_oracles). Over F2, F3, F5 and Q the coefficient matrices are kernel
bases, identities, transposed cokernel projections, kernel bases with
permuted rows (in unit form or not) and drawn matrices; the right-hand
sides are consistent, drawn (mostly inconsistent) or without columns. The
answers must be equal, None included.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from rep_oracles import ref_solve

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), FieldSpec.rationals()]


@st.composite
def matrices(draw, field, rows=None, cols=None):
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    pool = [0, 0, 1, -1, 2, Fraction(1, 2)] if field.modulus is None else range(field.modulus)
    return Matrix(field, rows, cols, draw(st.lists(
        st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols)))


@st.composite
def coefficients(draw, field):
    kind = draw(st.sampled_from(["kernel", "identity", "cokernel", "permuted", "drawn"]))
    if kind == "identity":
        return Matrix.identity(field, draw(st.integers(0, 5)))
    m = draw(matrices(field))
    if kind == "kernel":
        return m.kernel_basis()
    if kind == "cokernel":
        # the projection onto the cokernel of m, as rep.cokernel builds it
        proj = m.transpose().kernel_basis().transpose()
        return proj.transpose()
    if kind == "permuted":
        k = m.kernel_basis()
        return k.take_rows(draw(st.permutations(range(k.rows))))
    return m


@st.composite
def systems(draw):
    F = draw(st.sampled_from(FIELDS))
    a = draw(coefficients(F))
    k = draw(st.sampled_from([0, 1, 2, 3]))
    if draw(st.booleans()):
        b = a @ draw(matrices(F, a.cols, k))
    else:
        b = draw(matrices(F, a.rows, k))
    return a, b


@settings(max_examples=400, deadline=None)
@given(systems())
def test_solve_equals_the_reduction(case):
    a, b = case
    got, ref = a.solve(b), ref_solve(a, b)
    assert got == ref
    if got is not None:
        assert a @ got == b
        canonical = Fraction if a.field.modulus is None else int
        assert all(type(x) is canonical for x in got.flat())


def test_unit_forms_are_recognized():
    F = FieldSpec.prime(3)
    m = Matrix(F, 2, 4, [1, 2, 0, 1, 0, 0, 1, 2])
    for a in (m.kernel_basis(), Matrix.identity(F, 3), m.transpose().kernel_basis()):
        assert a._unit_rows() is not None
    # a zero column, and a last nonzero row that is not a unit vector
    assert Matrix(F, 2, 2, [1, 0, 0, 0])._unit_rows() is None
    assert Matrix(F, 2, 2, [1, 0, 1, 1])._unit_rows() is None

"""Property tests that the laws checked over F2 hold over other fields.

- The nilpotency law: on the one-loop quiver with S the simple, a
  representation with loop alpha lies in F_r(add S) exactly when
  alpha^r = 0. Over F3 and F5, up to dimension 4, member_filt must agree
  at every r, visited r = 4, 3, 2, 1 as the nilpotent sweep visits them,
  so that the later decisions read the radical series from the cache.
- The Euler form: hom_dim - ext1_dim == euler_form on the acyclic quivers
  A2, Kronecker and linear A3, over F3, F5 and Q.
- Extensions from cocycles: on A2, linear A3 and the one-loop quiver, over
  F2, F3, F5 and Q, the extension built from a combination of the
  ext1_basis cocycles with drawn coefficients is a short exact sequence
  whose class is that combination, and it splits exactly when every
  coefficient is zero. Over F2 this runs the bit-row matrix kernel
  through the rep layer; over the other fields, the flat one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat import extfilt
from approxcat.extfilt import member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import (
    Rep,
    euler_form,
    ext1_basis,
    ext1_dim,
    extension_from_cocycle,
    hom_dim,
    is_split,
    ses_verify,
)
from filt_oracles import Q_POOL
from rep_oracles import cocycles_equivalent, ses_class_cocycle

F2, F3, F5 = FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5)
LOOP = loop_quiver(1)
A3 = Quiver(3, [("a", 0, 1), ("b", 1, 2)])
ACYCLIC = [a2_quiver(), Quiver(2, [("a", 0, 1), ("b", 0, 1)]), A3]


def _scalars(F):
    return st.integers(0, F.modulus - 1) if F.modulus else st.sampled_from(Q_POOL)


@st.composite
def loop_reps(draw):
    """Arbitrary loops and, half the time, strictly lower triangular ones
    under a unitriangular change of basis, which are nilpotent."""
    F = draw(st.sampled_from([F3, F5]))
    n = draw(st.integers(0, 4))
    cells = [(i, j) for i in range(n) for j in range(n)]
    entries = draw(st.lists(_scalars(F), min_size=n * n, max_size=n * n))
    if not draw(st.booleans()):
        return Rep(LOOP, F, [n], {"alpha1": Matrix(F, n, n, entries)})
    lower = Matrix(F, n, n, [e if i > j else 0 for (i, j), e in zip(cells, entries)])
    upper = draw(st.lists(_scalars(F), min_size=n * n, max_size=n * n))
    p = Matrix(F, n, n, [1 if i == j else e if i < j else 0 for (i, j), e in zip(cells, upper)])
    return Rep(LOOP, F, [n], {"alpha1": p @ lower @ p.solve(Matrix.identity(F, n))})


@settings(max_examples=150, deadline=None)
@given(loop_reps())
def test_membership_is_nilpotency_over_f3_and_f5(m):
    s = Rep.simple(LOOP, m.field, 0)
    hits = extfilt._loewy_series.cache_info().hits
    certs = {r: member_filt(m, [s], r) for r in (4, 3, 2, 1)}
    assert extfilt._loewy_series.cache_info().hits - hits >= 3
    alpha, power = m.map("alpha1"), Matrix.identity(m.field, m.dims[0])
    for r in (1, 2, 3, 4):
        power = alpha @ power
        assert (certs[r] is not None) == power.is_zero()
        if certs[r] is not None:
            assert certs[r].depth <= r and certs[r].verify()


@st.composite
def rep_pairs(draw):
    F = draw(st.sampled_from([F3, F5, FieldSpec.rationals()]))
    q = draw(st.sampled_from(ACYCLIC))

    def rep():
        dims = [draw(st.integers(0, 2)) for _ in range(q.vertex_count)]
        return Rep(q, F, dims, {a.id: Matrix(F, dims[a.target], dims[a.source], draw(st.lists(
            _scalars(F), min_size=dims[a.target] * dims[a.source],
            max_size=dims[a.target] * dims[a.source]))) for a in q.arrows})

    return rep(), rep()


@settings(max_examples=150, deadline=None)
@given(rep_pairs())
def test_hom_minus_ext_is_the_euler_form(pair):
    v, w = pair
    assert hom_dim(v, w) - ext1_dim(v, w) == euler_form(v, w)


def _reps(draw, q, F, max_dim):
    """A rep of q; its arrow maps are all zero half the time, which makes
    Ext1 between two drawn reps large."""
    dims = [draw(st.integers(0, max_dim)) for _ in range(q.vertex_count)]
    entries = st.just(0) if draw(st.booleans()) else _scalars(F)
    return Rep(q, F, dims, {a.id: Matrix(F, dims[a.target], dims[a.source], draw(st.lists(
        entries, min_size=dims[a.target] * dims[a.source],
        max_size=dims[a.target] * dims[a.source]))) for a in q.arrows})


@st.composite
def cocycle_cases(draw):
    """(v, w, coefficients, cocycle): the cocycle is the combination of
    ext1_basis(v, w) with the coefficients, one arrow block at a time."""
    F = draw(st.sampled_from([F2, F3, F5, FieldSpec.rationals()]))
    q = draw(st.sampled_from([a2_quiver(), A3, LOOP]))
    max_dim = 3 if q == LOOP else 2
    v, w = _reps(draw, q, F, max_dim), _reps(draw, q, F, max_dim)
    basis = ext1_basis(v, w)
    coeffs = [F.coerce(c) for c in draw(st.lists(_scalars(F), min_size=len(basis),
                                                  max_size=len(basis)))]
    cocycle = {}
    for a in q.arrows:
        block = Matrix.zeros(F, w.dims[a.target], v.dims[a.source])
        for c, elt in zip(coeffs, basis):
            block = block + elt[a.id].scale(c)
        cocycle[a.id] = block
    return v, w, coeffs, cocycle


@settings(max_examples=300, deadline=None)  # about a third of them have Ext1 != 0
@given(cocycle_cases())
def test_extensions_from_cocycles_are_exact_with_their_class(case):
    v, w, coeffs, cocycle = case
    s = extension_from_cocycle(v, w, cocycle)
    assert ses_verify(s)
    assert (s.sub, s.quot) == (w, v)
    assert cocycles_equivalent(v, w, cocycle, ses_class_cocycle(s))
    # the ext1_basis classes are independent: only the zero combination splits
    assert (is_split(s) is not None) == (not any(coeffs))

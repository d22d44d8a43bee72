"""Property test of filtration membership over Q for a vertex-simple family.

A vertex-simple family is decided by its Loewy length over every field, with
no subrepresentation search. On the one-loop quiver with S the simple, a
representation with loop alpha lies in F_r(add S) exactly when alpha^r = 0.
Over Q, up to dimension 4, with nilpotent loops drawn as strictly lower
triangular matrices under a unitriangular change of basis, member_filt must
agree with that law at every r, and every certificate must verify in
process and from its JSON form.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.extfilt import member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import loop_quiver
from approxcat.rep import Rep
from approxcat.serialize import certificate_to_jsonable, verify_certificate

Q = FieldSpec.rationals()
LOOP = loop_quiver(1)
S = Rep(LOOP, Q, [1])
POOL = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]


@st.composite
def loop_reps(draw):
    n = draw(st.integers(0, 4))
    cells = [(i, j) for i in range(n) for j in range(n)]
    entries = draw(st.lists(st.sampled_from(POOL), min_size=n * n, max_size=n * n))
    if not draw(st.booleans()):
        return Rep(LOOP, Q, [n], {"alpha1": Matrix(Q, n, n, entries)})
    lower = Matrix(Q, n, n, [e if i > j else 0 for (i, j), e in zip(cells, entries)])
    upper = draw(st.lists(st.sampled_from(POOL), min_size=n * n, max_size=n * n))
    p = Matrix(Q, n, n, [1 if i == j else e if i < j else 0 for (i, j), e in zip(cells, upper)])
    alpha = p @ lower @ p.solve(Matrix.identity(Q, n))
    return Rep(LOOP, Q, [n], {"alpha1": alpha})


@settings(max_examples=120, deadline=None)
@given(loop_reps())
def test_membership_is_nilpotency_over_q(m):
    alpha = m.map("alpha1")
    power = Matrix.identity(Q, m.dims[0])
    for r in range(1, 6):
        power = alpha @ power
        cert = member_filt(m, [S], r)
        assert (cert is not None) == power.is_zero()
        if cert is not None:
            assert cert.member == m and cert.depth <= r
            assert cert.verify()
            assert verify_certificate(certificate_to_jsonable(cert))

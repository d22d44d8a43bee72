"""Property tests of rep.cokernel.

cokernel reads each induced arrow map off the canonical left-kernel rows
P_x of f_x, which are the identity on the free columns of f_x^T, and
checks naturality of the projection. The reference is the body it had
before, kept below: one solve per arrow. Over F2, F3, F5 and Q, on A2, the
one- and two-loop quivers and the Kronecker quiver, both must return equal
cokernels for natural morphisms (zero, non-injective, with zero-dimensional
components among them), and for arbitrary component families built without
the naturality check both must raise ApproxcatError on the same inputs.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.errors import ApproxcatError
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import Rep, RepMorphism, cokernel, hom_basis

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), FieldSpec.rationals()]
QUIVERS = [a2_quiver(), loop_quiver(1), loop_quiver(2), Quiver(2, [("a", 0, 1), ("b", 0, 1)])]
SETTINGS = settings(max_examples=150, deadline=None)


def ref_cokernel(f):
    w = f.target
    q, F = w.quiver, w.field
    projs = [f.component(x).transpose().kernel_basis().transpose() for x in range(q.vertex_count)]
    dims = [p.rows for p in projs]
    maps = {}
    for a in q.arrows:
        lhs_t = projs[a.source].transpose()
        rhs_t = (projs[a.target] @ w.map(a.id)).transpose()
        ca_t = lhs_t.solve(rhs_t)
        if ca_t is None:
            raise ApproxcatError("cokernel maps are not induced; naturality broken")
        maps[a.id] = ca_t.transpose()
    c = Rep(q, F, dims, maps)
    proj = RepMorphism(w, c, projs)
    return c, proj


def scalars(F):
    # mostly zeros, so maps are often singular and kernels large
    if F.kind == "rationals":
        return st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])
    return st.sampled_from([0, 0, 0, 1, F.modulus - 1])


def matrices(F, rows, cols):
    return st.lists(scalars(F), min_size=rows * cols, max_size=rows * cols).map(
        lambda e: Matrix(F, rows, cols, e)
    )


@st.composite
def reps(draw, q, F):
    dims = [draw(st.integers(0, 3)) for _ in range(q.vertex_count)]
    maps = {a.id: draw(matrices(F, dims[a.target], dims[a.source])) for a in q.arrows}
    return Rep(q, F, dims, maps)


@st.composite
def pairs(draw):
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    return draw(reps(q, F)), draw(reps(q, F))


@st.composite
def natural_morphisms(draw):
    v, w = draw(pairs())
    f = RepMorphism.zero(v, w)
    for b in hom_basis(v, w):
        c = draw(scalars(v.field))
        if c != 0:
            f = f + b.scale(c)
    return f


@st.composite
def arbitrary_morphisms(draw):
    v, w = draw(pairs())
    comps = [draw(matrices(v.field, w.dims[x], v.dims[x])) for x in range(len(v.dims))]
    return RepMorphism(v, w, comps, check=False)


def outcome(cok, f):
    try:
        c, proj = cok(f)
    except ApproxcatError as e:
        return type(e), str(e)
    return c.dims, c, proj.components


@SETTINGS
@given(natural_morphisms())
def test_cokernel_equals_the_per_arrow_solve(f):
    c, proj = cokernel(f)
    want_c, want_proj = ref_cokernel(f)
    assert c == want_c and proj == want_proj
    assert proj.is_surjective() and all(
        (p @ fc).is_zero() for p, fc in zip(proj.components, f.components)
    )


@SETTINGS
@given(arbitrary_morphisms())
def test_non_natural_families_fail_alike(f):
    assert outcome(cokernel, f) == outcome(ref_cokernel, f)


def test_non_induced_cokernel_is_refused():
    # S -> J2 on the loop, onto the top of J2: alpha moves the image out of
    # itself, so no map on the quotient is induced
    F = FieldSpec.prime(2)
    q = loop_quiver(1)
    j2 = Rep(q, F, [2], {"alpha1": Matrix(F, 2, 2, [0, 0, 1, 0])})
    f = RepMorphism(Rep.simple(q, F, 0), j2, [Matrix(F, 2, 1, [1, 0])], check=False)
    with pytest.raises(ApproxcatError, match="cokernel maps are not induced"):
        cokernel(f)


def test_zero_and_zero_dimensional_components():
    F = FieldSpec.rationals()
    q = a2_quiver()
    v = Rep(q, F, [0, 2])
    w = Rep(q, F, [2, 0])
    c, proj = cokernel(RepMorphism.zero(v, w))
    assert c.dims == (2, 0)
    assert (c, proj) == ref_cokernel(RepMorphism.zero(v, w))

"""Property tests of rep.preimage_subrep.

preimage_subrep returns the kernel of the cokernel projection of incl
composed with f. The reference is the body it had before, kept below: the
left-kernel rows of each incl component, applied to f, then a kernel basis
per vertex. Over F2, F3 and Q, on A2, the one-loop and the Kronecker
quivers, both must return the same subrepresentation and inclusion for a
subrepresentation given as the image of a morphism into the target, and
both must raise ShapeError for an inclusion into another representation.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.errors import ShapeError
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import Rep, RepMorphism, hom_basis, image, preimage_subrep, subrep_from_bases

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.rationals()]
QUIVERS = [a2_quiver(), loop_quiver(1), Quiver(2, [("a", 0, 1), ("b", 0, 1)])]
SETTINGS = settings(max_examples=150, deadline=None)


def ref_preimage_subrep(f, incl):
    if incl.target != f.target:
        raise ShapeError("preimage needs a subrepresentation of the target")
    bases = []
    for x in range(f.source.quiver.vertex_count):
        q_x = incl.component(x).transpose().kernel_basis().transpose()
        bases.append((q_x @ f.component(x)).kernel_basis())
    return subrep_from_bases(f.source, bases)


def scalars(F):
    # mostly zeros, so maps are often singular and images proper
    if F.kind == "rationals":
        return st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])
    return st.sampled_from([0, 0, 0, 1, F.modulus - 1])


@st.composite
def reps(draw, q, F):
    dims = [draw(st.integers(0, 3)) for _ in range(q.vertex_count)]
    maps = {}
    for a in q.arrows:
        rows, cols = dims[a.target], dims[a.source]
        entries = draw(st.lists(scalars(F), min_size=rows * cols, max_size=rows * cols))
        maps[a.id] = Matrix(F, rows, cols, entries)
    return Rep(q, F, dims, maps)


def combination(draw, v, w):
    """A random linear combination of the hom basis from v to w."""
    f = RepMorphism.zero(v, w)
    for b in hom_basis(v, w):
        c = draw(scalars(v.field))
        if c != 0:
            f = f + b.scale(c)
    return f


@st.composite
def cases(draw):
    """(f, incl): f: v -> w, and incl the image of a morphism u -> w."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    v, w, u = draw(reps(q, F)), draw(reps(q, F)), draw(reps(q, F))
    _, incl, _ = image(combination(draw, u, w))
    return combination(draw, v, w), incl


def outcome(pre, f, incl):
    try:
        sub, sub_incl = pre(f, incl)
    except ShapeError as e:
        return type(e), str(e)
    return sub.key(), sub_incl.components


@SETTINGS
@given(cases())
def test_preimage_equals_the_left_kernel_body(case):
    f, incl = case
    sub, sub_incl = preimage_subrep(f, incl)
    want, want_incl = ref_preimage_subrep(f, incl)
    assert sub == want and sub_incl == want_incl


@SETTINGS
@given(cases(), st.data())
def test_foreign_inclusion_is_refused_alike(case, data):
    f, _ = case
    q, F = f.target.quiver, f.target.field
    other = data.draw(reps(q, F))
    _, incl, _ = image(combination(data.draw, other, other))
    got = outcome(preimage_subrep, f, incl)
    assert got == outcome(ref_preimage_subrep, f, incl)
    if incl.target != f.target:
        assert got[0] is ShapeError

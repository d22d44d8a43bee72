"""Property tests of factor_through and factor_through_right.

Both build their linear system once per (side, far end w of f) and keep
it on the morphism z they factor through. The reference is the
body they had before: rebuild the hom basis, compose it with z and solve,
on every call. Over F2, F3, F5 and Q, on A2, the one-loop and the
Kronecker quiver, the two must return equal morphisms (or both None)
while one z is reused for many f and several targets, among them targets
of equal dimensions with different maps and structurally equal copies of
one target.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.approx import (
    AddCategory,
    factor_through,
    factor_through_right,
    left_approx_add,
    right_approx_add,
)
from approxcat.errors import ShapeError
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix, hstack
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import Rep, RepMorphism, compose, hom_basis

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), FieldSpec.rationals()]
# the Kronecker quiver has two parallel arrows 0 -> 1
QUIVERS = [a2_quiver(), loop_quiver(1), Quiver(2, [("a", 0, 1), ("b", 0, 1)])]
SETTINGS = settings(max_examples=60, deadline=None)


# the reference: the bodies before the system was memoized


def _vec_morphism(f):
    # the components' entries, row-major, stacked into one column
    return Matrix.column(f.source.field, [x for c in f.components for x in c._e])


def ref_factor_through(f, z):
    basis = hom_basis(z.target, f.target)
    if not basis:
        return RepMorphism.zero(z.target, f.target) if f.is_zero() else None
    cols = hstack([_vec_morphism(compose(b, z)) for b in basis])
    sol = cols.solve(_vec_morphism(f))
    if sol is None:
        return None
    h = RepMorphism.zero(z.target, f.target)
    for j, b in enumerate(basis):
        c = sol.entry(j, 0)
        if c != 0:
            h = h + b.scale(c)
    return h


def ref_factor_through_right(f, z):
    basis = hom_basis(f.source, z.source)
    if not basis:
        return RepMorphism.zero(f.source, z.source) if f.is_zero() else None
    cols = hstack([_vec_morphism(compose(z, b)) for b in basis])
    sol = cols.solve(_vec_morphism(f))
    if sol is None:
        return None
    h = RepMorphism.zero(f.source, z.source)
    for j, b in enumerate(basis):
        c = sol.entry(j, 0)
        if c != 0:
            h = h + b.scale(c)
    return h


def scalars(F):
    # mostly zeros, so hom spaces are large and factorizations common
    pool = [0, 0, 0, 1, 1, -1] if F.kind == "rationals" else [0, 0, 0, 1, 1, F.modulus - 1]
    return st.sampled_from(pool + ([Fraction(1, 2)] if F.kind == "rationals" else []))


@st.composite
def reps(draw, q, F, dims=None):
    if dims is None:
        dims = [draw(st.integers(0, 2)) for _ in range(q.vertex_count)]
    maps = {}
    for a in q.arrows:
        rows, cols = dims[a.target], dims[a.source]
        entries = draw(st.lists(scalars(F), min_size=rows * cols, max_size=rows * cols))
        maps[a.id] = Matrix(F, rows, cols, entries)
    return Rep(q, F, dims, maps)


@st.composite
def combination(draw, basis, source, target):
    """A drawn linear combination of basis, a morphism source -> target."""
    F = source.field
    h = RepMorphism.zero(source, target)
    for b in basis:
        h = h + b.scale(draw(scalars(F)))
    return h


def twin(w):
    """A structurally equal but distinct copy of w."""
    return Rep(w.quiver, w.field, w.dims, dict(w.maps))


@st.composite
def cases(draw):
    """(side, z, [(w, [f, ...]), ...]): z is an add-approximation of m or a
    drawn morphism; the targets share one dimension vector, and the last
    one is a structurally equal copy of the first."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    side = draw(st.sampled_from(["left", "right"]))
    m = draw(reps(q, F))
    dims = [draw(st.integers(1, 2)) for _ in range(q.vertex_count)]
    targets = [draw(reps(q, F, dims)) for _ in range(draw(st.integers(1, 3)))]
    targets.append(twin(targets[0]))
    if draw(st.booleans()):
        gens = AddCategory([draw(reps(q, F))])
        cert = left_approx_add(m, gens) if side == "left" else right_approx_add(m, gens)
        z = cert.morphism
    else:
        t = draw(reps(q, F))
        ends = (m, t) if side == "left" else (t, m)
        z = draw(combination(hom_basis(*ends), *ends))
    out = []
    for w in targets:
        ends = (m, w) if side == "left" else (w, m)
        basis = hom_basis(*ends)
        fs = basis + [draw(combination(basis, *ends)), RepMorphism.zero(*ends)]
        out.append((w, fs))
    return side, z, out


def assert_canonical(h):
    F = h.source.field
    for c in h.components:
        for x in c._e:
            if F.kind == "rationals":
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < F.modulus


@SETTINGS
@given(cases())
def test_memoized_factorization_matches_the_reference(case):
    side, z, targets = case
    new, ref = (
        (factor_through, ref_factor_through)
        if side == "left"
        else (factor_through_right, ref_factor_through_right)
    )
    # twice round, so the second pass runs entirely on memoized systems
    for _ in range(2):
        for w, fs in targets:
            for f in fs:
                want = ref(f, z)
                got = new(f, z)
                assert got == want
                if got is not None:
                    assert got.target is (f.target if side == "left" else z.source)
                    assert got.source is (z.target if side == "left" else f.source)
                    assert (compose(got, z) if side == "left" else compose(z, got)) == f
                    assert_canonical(got)


@pytest.mark.parametrize("F", FIELDS, ids=lambda f: f.label)
def test_empty_hom_basis(F):
    # Hom(S2, S1) = 0 on A2: a zero f factors as zero, a nonzero one not
    q = a2_quiver()
    s1, s2 = Rep.simple(q, F, 0), Rep.simple(q, F, 1)
    p1 = Rep(q, F, [1, 1], {"a": Matrix(F, 1, 1, [1])})
    f = hom_basis(p1, s1)[0]
    z = RepMorphism.zero(p1, s2)
    for g in (f, RepMorphism.zero(p1, s1)):
        assert factor_through(g, z) == ref_factor_through(g, z)
    assert factor_through(f, z) is None
    assert factor_through(RepMorphism.zero(p1, s1), z).is_zero()
    # dually Hom(S2, S1) = 0 again: S2 -> P1 does not factor through S1 -> P1
    g = hom_basis(s2, p1)[0]
    zr = RepMorphism.zero(s1, p1)
    assert factor_through_right(g, zr) is None
    assert factor_through_right(RepMorphism.zero(s2, p1), zr).is_zero()


def test_ends_must_match():
    F = FIELDS[0]
    q = a2_quiver()
    s1, s2 = Rep.simple(q, F, 0), Rep.simple(q, F, 1)
    with pytest.raises(ShapeError):
        factor_through(RepMorphism.zero(s1, s2), RepMorphism.zero(s2, s2))
    with pytest.raises(ShapeError):
        factor_through_right(RepMorphism.zero(s1, s2), RepMorphism.zero(s1, s1))

"""Property tests of factor_through and factor_through_right.

Both build their linear system once per (side, far end w of f) and keep
it on the morphism z they factor through. The reference is the
body they had before: rebuild the hom basis, compose it with z and solve,
on every call. Over F2, F3, F5 and Q, on A2, the one-loop and the
Kronecker quiver, the two must return equal morphisms (or both None)
while one z is reused for many f and several targets, among them targets
of equal dimensions with different maps and structurally equal copies of
one target.

The system itself is checked too: rep._factor_system builds it in the
coordinates of Hom(m, w) (of Hom(w, m)), where f lives, from the rows of A
at the unit rows of that hom space's kernel basis; ref_factor_system in
rep_oracles builds it in the ambient coordinates, all rows of A as a
block-diagonal product, and ref_factor applies its (lift, obstruction) to
vec f. With z drawn from hom_basis, on these quivers and the loop-and-exit
quiver, and f drawn from the hom basis and its combinations on both sides,
the two must give the same factor or both None. A map built with
check=False that is not natural has coordinates in the hom basis all the
same; it must never factor, whatever z is.

Hom basis morphisms and factors are built from flat sequences (a kernel
column, a lift) by Matrix._blocks, in stored form. They must equal, and
hash like, the blocks ref_unpack_hom_vector builds through
Matrix._trusted, and round-trip through JSON into matrices built by the
public constructor, equal, with an equal hash, and natural.
"""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
from approxcat.rep import (
    Rep,
    RepMorphism,
    _factor,
    _hom_kernel,
    _unpack_hom_vector,
    compose,
    hom_basis,
)
from approxcat.serialize import morphism_from_jsonable, morphism_to_jsonable
from rep_oracles import ref_factor, ref_unpack_hom_vector

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), FieldSpec.rationals()]
# the Kronecker quiver has two parallel arrows 0 -> 1
QUIVERS = [a2_quiver(), loop_quiver(1), Quiver(2, [("a", 0, 1), ("b", 0, 1)])]
SETTINGS = settings(max_examples=60, deadline=None)


# the reference: the bodies before the system was memoized


def _vec_morphism(f):
    # the components' entries, row-major, stacked into one column
    return Matrix.column(f.source.field, [x for c in f.components for x in c.flat()])


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
        for x in c.flat():
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


@st.composite
def systems(draw):
    """(z, w, side): z a hom basis element or a drawn combination of the
    basis, and w a drawn far end."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS + [Quiver(2, [("alpha1", 0, 0), ("beta", 0, 1)])]))
    v, t, w = draw(reps(q, F)), draw(reps(q, F)), draw(reps(q, F))
    basis = hom_basis(v, t)
    if basis and draw(st.booleans()):
        z = basis[draw(st.integers(0, len(basis) - 1))]
    else:
        z = draw(combination(basis, v, t))
    return z, w, draw(st.sampled_from(["left", "right"]))


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_factor_system_answers_as_the_block_matrix_reference(case, data):
    z, w, side = case
    ends = (z.source, w) if side == "left" else (w, z.target)
    basis = hom_basis(*ends)
    fs = [data.draw(combination(basis, *ends)), data.draw(combination(basis, *ends))]
    if basis:
        fs.append(basis[data.draw(st.integers(0, len(basis) - 1))])
    for f in fs:
        assert _factor(f, z, side) == ref_factor(f, z, side)
    info = _hom_kernel.cache_info()
    assert info.hits and info.currsize <= info.maxsize


@st.composite
def unnatural(draw):
    """(f, z, side): f built with check=False from drawn components that
    do not commute with the arrow maps, z out of (into) f's source (target):
    the identity, an add-approximation or a drawn combination of the hom
    basis."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    side = draw(st.sampled_from(["left", "right"]))
    m = draw(reps(q, F, [draw(st.integers(1, 2)) for _ in range(q.vertex_count)]))
    w = draw(reps(q, F, [draw(st.integers(1, 2)) for _ in range(q.vertex_count)]))
    src, dst = (m, w) if side == "left" else (w, m)
    comps = [Matrix(F, dst.dims[x], src.dims[x],
                    draw(st.lists(scalars(F), min_size=dst.dims[x] * src.dims[x],
                                  max_size=dst.dims[x] * src.dims[x])))
             for x in range(q.vertex_count)]
    f = RepMorphism(src, dst, comps, check=False)
    assume(not f.is_natural())
    kind = draw(st.sampled_from(["identity", "approximation", "combination"]))
    if kind == "identity":
        z = RepMorphism.identity(m)
    elif kind == "approximation":
        gens = AddCategory([draw(reps(q, F))])
        z = (left_approx_add(m, gens) if side == "left" else right_approx_add(m, gens)).morphism
    else:
        t = draw(reps(q, F))
        z_ends = (m, t) if side == "left" else (t, m)
        z = draw(combination(hom_basis(*z_ends), *z_ends))
    return f, z, side


@settings(max_examples=150, deadline=None)
@given(unnatural())
def test_an_unnatural_map_has_no_factorization(case):
    # a factor h makes h z (z h) a morphism, so an f that is not natural
    # never factors, even where its coordinates in the hom basis do
    f, z, side = case
    assert _factor(f, z, side) is None


@pytest.mark.parametrize("F", FIELDS, ids=lambda f: f.label)
def test_every_unnatural_map_into_p1_has_no_factorization(F):
    # on A2, every map (2, 1) -> P1 with entries in {0, 1}, through the
    # identity of (2, 1) and on the right through the identity of P1
    q = a2_quiver()
    m = Rep(q, F, [2, 1], {"a": Matrix(F, 1, 2, [1, 0])})
    p1 = Rep(q, F, [1, 1], {"a": Matrix(F, 1, 1, [1])})
    unnatural = 0
    for e in itertools.product([0, 1], repeat=3):
        f = RepMorphism(m, p1, [Matrix(F, 1, 2, e[:2]), Matrix(F, 1, 1, e[2:])], check=False)
        if f.is_natural():
            assert factor_through(f, RepMorphism.identity(m)) == f
            continue
        unnatural += 1
        assert factor_through(f, RepMorphism.identity(m)) is None
        assert factor_through_right(f, RepMorphism.identity(p1)) is None
    assert unnatural == 6


@st.composite
def hom_vectors(draw):
    """(v, w, col): col a column of the hom kernel of (v, w), or a drawn
    canonical sequence of its length, as a lift gives, as a list."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    v, w = draw(reps(q, F)), draw(reps(q, F))
    ker = _hom_kernel(v, w)[0]
    if ker.cols and draw(st.booleans()):
        return v, w, ker.flat()[draw(st.integers(0, ker.cols - 1)) :: ker.cols]
    n = sum(a * b for a, b in zip(v.dims, w.dims))
    return v, w, [F.coerce(x) for x in draw(st.lists(scalars(F), min_size=n, max_size=n))]


@SETTINGS
@given(hom_vectors())
def test_sliced_blocks_are_the_trusted_blocks(case):
    v, w, col = case
    got, want = _unpack_hom_vector(v, w, col), ref_unpack_hom_vector(v, w, col)
    assert got == want and hash(got) == hash(want)
    for g, r in zip(got.components, want.components):
        assert (g.rows, g.cols, g.key()) == (r.rows, r.cols, r.key())


def assert_round_trips(g):
    data = json.loads(json.dumps(morphism_to_jsonable(g)))
    back = morphism_from_jsonable(g.source.quiver, g.source.field, data)
    assert back == g and hash(back) == hash(g)
    assert back.is_natural()


@SETTINGS
@given(cases())
def test_hom_bases_and_factors_round_trip_through_json(case):
    side, z, targets = case
    for w, fs in targets:
        for f in fs:
            assert_round_trips(f)
            h = _factor(f, z, side)
            if h is not None:
                assert_round_trips(h)

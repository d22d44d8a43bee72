"""Property tests of Hom into a semisimple representation.

A far end w whose arrows all act by zero is the sum of w_x copies of each
simple S_x, and Hom is additive: the copy (x, i) of a map f: v -> w is row
i of f_x, a contiguous slice of f's flat entries, and f is natural exactly
when each copy is, as a map v -> S_x. So hom_basis(v, w) is read copy by
copy from the kernels of Hom(v, S_x), and factor_through factors a map
into w one copy at a time, keeping each (x, slice) answer on z. Neither
eliminates w's own system, and both must give what the elimination gives,
entry for entry. The references are those of rep_oracles, which read no
hom basis: ref_unpack_hom_vector over the kernel basis of
_hom_system(v, w), and ref_factor, which solves in the ambient
coordinates of f. Over F2, F3, F5 and Q, on A2, linear A3, the one-loop,
the Kronecker and the loop-and-exit quiver,

- hom_basis(v, w) is the reference basis, in its order, entry for entry;
- factor_through answers as ref_factor on hom basis morphisms, on a
  combination of them, on zero and on a morphism built with check=False
  that is unnatural in one copy only, which never factors;
- a repeated call, answered from the memo on z, gives equal answers;
- the memo on z holds at most 256 entries after more than 256 distinct
  maps have been factored through z, and still answers as the reference.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.approx import factor_through
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import Rep, RepMorphism, _hom_system, hom_basis
from rep_oracles import ref_factor, ref_unpack_hom_vector
from test_factor_props import FIELDS, combination, reps, scalars

QUIVERS = [
    a2_quiver(),
    Quiver(3, [("a", 0, 1), ("b", 1, 2)]),
    loop_quiver(1),
    Quiver(2, [("a", 0, 1), ("b", 0, 1)]),
    Quiver(2, [("alpha1", 0, 0), ("beta", 0, 1)]),
]
SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def semisimple_cases(draw, into_arrow=False):
    """(v, w, z): v and the target of z drawn reps, w a zero-map rep of
    drawn dims (zero, simple and larger sums alike), z out of v, a hom
    basis element or a drawn combination of the basis. With into_arrow, v
    acts by a nonzero map on a drawn arrow a: s -> x and w has a copy of
    S_x, so a map into w can be unnatural in that copy alone."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    a = draw(st.sampled_from(q.arrows)) if into_arrow else None
    ends = {a.source, a.target} if a else set()
    v = draw(reps(q, F, [draw(st.integers(int(y in ends), 2)) for y in range(q.vertex_count)]))
    if a and v.map(a.id).is_zero():
        m = v.map(a.id)
        one = Matrix(F, m.rows, m.cols, [1] + [0] * (m.rows * m.cols - 1))
        v = Rep(q, F, v.dims, {**v.maps, a.id: one})
    t = draw(reps(q, F))
    w = Rep(q, F, [draw(st.integers(int(a is not None and y == a.target), 3))
                   for y in range(q.vertex_count)])
    basis = hom_basis(v, t)
    if basis and draw(st.booleans()):
        z = basis[draw(st.integers(0, len(basis) - 1))]
    else:
        z = draw(combination(basis, v, t))
    return v, w, z


def ref_hom_basis(v, w):
    ker = _hom_system(v, w).kernel_basis()
    e = ker.flat()
    return [ref_unpack_hom_vector(v, w, e[j :: ker.cols]) for j in range(ker.cols)]


def copies(v, w):
    """(x, start) for each copy (x, i) of w, start its slice's offset in
    the flat entries of a map v -> w."""
    out, off = [], 0
    for x, d in enumerate(w.dims):
        for _ in range(d):
            out.append((x, off))
            off += v.dims[x]
    return out


def from_flat(v, w, entries):
    """The map v -> w, built with check=False, whose flat entries are
    entries."""
    comps, o = [], 0
    for r, c in zip(w.dims, v.dims):
        comps.append(Matrix(v.field, r, c, entries[o : o + r * c]))
        o += r * c
    return RepMorphism(v, w, comps, check=False)


@SETTINGS
@given(semisimple_cases())
def test_the_hom_basis_is_read_copy_by_copy(case):
    v, w, _ = case
    for a, b in ((v, w), (w, v)):
        got, want = hom_basis(a, b), ref_hom_basis(a, b)
        assert got == want
        assert [hash(f) for f in got] == [hash(f) for f in want]


@SETTINGS
@given(semisimple_cases(), st.data())
def test_factor_through_a_semisimple_end_matches_the_reference(case, data):
    v, w, z = case
    basis = hom_basis(v, w)
    fs = basis + [data.draw(combination(basis, v, w)), RepMorphism.zero(v, w)]
    # twice round: the second pass reads every copy's answer off the memo on z
    for _ in range(2):
        for f in fs:
            got = factor_through(f, z)
            assert got == ref_factor(f, z, "left")
            if got is not None:
                assert got.source is z.target and got.target is w


@SETTINGS
@given(semisimple_cases(into_arrow=True), st.data())
def test_an_unnatural_map_into_a_semisimple_end_never_factors(case, data):
    v, w, z = case
    # a copy (x, i) whose slice r is natural exactly when r v_a = 0 for every
    # arrow a into x, and a row j of such a v_a that is not zero
    bad = [start + j for x, start in copies(v, w) for a in v.quiver.arrows
           if a.target == x for j, row in enumerate(v.map(a.id).to_lists()) if any(row)]
    k = bad[data.draw(st.integers(0, len(bad) - 1))]
    basis = hom_basis(v, w)
    entries = [e for c in data.draw(combination(basis, v, w)).components for e in c.flat()]
    # every copy natural but this one, whose slice gains a nonzero multiple
    # of the j-th unit row, which v_a maps to a nonzero multiple of its row j
    entries[k] += data.draw(scalars(v.field).filter(bool))
    f = from_flat(v, w, entries)
    assert not f.is_natural()
    for _ in range(2):
        assert factor_through(f, z) is None
        assert ref_factor(f, z, "left") is None
        assert factor_through(f, RepMorphism.identity(v)) is None


def _values(F):
    return range(F.modulus) if F.modulus else [Fraction(0), Fraction(1), Fraction(-1)]


def test_the_memo_on_z_stays_bounded():
    for F, q in itertools.product(FIELDS, QUIVERS):
        # 9 dimensions at vertex 0 give every field more than 256 nonzero
        # slices there; w has two copies of S_0 and one of S_1, if any
        dims = [9] + [1] * (q.vertex_count - 1)
        v = Rep(q, F, dims)
        w = Rep(q, F, ([2, 1] + [0] * q.vertex_count)[: q.vertex_count])
        z = RepMorphism.identity(v)
        n = sum(a * b for a, b in zip(v.dims, w.dims))
        slices = itertools.islice(itertools.product(_values(F), repeat=9), 1, 301)
        for k, s in enumerate(slices):
            # the slice in the first or the second copy of S_0
            entries = [F.zero] * n
            start = 9 * (k % 2)
            entries[start : start + 9] = s
            f = from_flat(v, w, entries)
            got = factor_through(f, z)
            assert len(z._memo) <= 256
            if k % 37 == 0:
                assert got == ref_factor(f, z, "left")
        assert len(z._memo) <= 256

"""Warm caches answer as cold ones.

Every memo of the package is a bounded functools.lru_cache keyed by
values: a result computed from several values (a factorization system, a
per-copy answer, a canonical sum, zero-map evidence, verified evidence)
is found again by any equal values, however they were built. Over F2,
F3, F5 and Q, on A2 and the one-loop quiver:

- factor_through, hom_basis and verify_evidence give the same answers
  with the caches warm as after cache_clear() of every cache of the
  package, on a general far end, a semisimple one (read one simple copy
  at a time) and a canonical sum of the handle, and on evidence that
  verifies and evidence that does not;
- a z' built separately from z, equal to it, reads z's systems and
  per-copy answers: it adds no miss to _factor_system or _copy_lift;
- two different z with the same ends each get their own answer, the one
  the block-matrix reference of rep_oracles gives.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat import approx, counterex, extfilt, matrix, rep, search, serialize
from approxcat.approx import (
    AddCategory,
    AddEvidence,
    factor_through,
    left_approx_add,
    verify_evidence,
)
from approxcat.matrix import Matrix
from approxcat.quiver import a2_quiver, loop_quiver
from approxcat.rep import Rep, RepMorphism, _copy_lift, _factor_system, hom_basis
from rep_oracles import ref_factor
from test_factor_props import FIELDS, combination, reps

QUIVERS = [a2_quiver(), loop_quiver(1)]
SETTINGS = settings(max_examples=60, deadline=None)
MODULES = [approx, counterex, extfilt, matrix, rep, search, serialize]


def clear_every_cache():
    """cache_clear() on every lru_cache a module of the package defines."""
    cleared = 0
    for mod in MODULES:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__:
                obj.cache_clear()
                cleared += 1
    return cleared


def test_every_cache_is_cleared():
    # the five caches of results computed from several values are among them
    assert clear_every_cache() >= 16
    names = {f"{m.__name__}.{n}" for m in MODULES for n, o in vars(m).items()
             if hasattr(o, "cache_clear")}
    for name in ("rep._factor_system", "rep._copy_lift", "approx._canonical_sum",
                 "approx._zero_map_evidence", "counterex._member_verified"):
        assert "approxcat." + name in names


def separately_built(f: RepMorphism) -> RepMorphism:
    """An equal copy of f with new components and ends."""
    def copy(r):
        return Rep(r.quiver, r.field, r.dims,
                   {a: Matrix(r.field, m.rows, m.cols, m.flat()) for a, m in r.maps.items()})
    return RepMorphism(copy(f.source), copy(f.target),
                       [Matrix(c.field, c.rows, c.cols, c.flat()) for c in f.components])


@st.composite
def cases(draw):
    """(v, handle, far ends): v a drawn rep, a handle of one or two drawn
    generators, and far ends for maps out of v: a drawn rep, a zero-map
    rep (a sum of simple copies) and a canonical sum of the handle."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    v = draw(reps(q, F))
    handle = AddCategory(draw(st.lists(reps(q, F), min_size=1, max_size=2)))
    semisimple = Rep(q, F, [draw(st.integers(0, 2)) for _ in range(q.vertex_count)])
    mults = tuple(draw(st.integers(0, 1)) for _ in handle.generators)
    ends = [draw(reps(q, F)), semisimple, handle.canonical_sum(mults)[0]]
    return v, handle, ends


def answers(v, handle, ends):
    """hom bases out of v, the factorizations of their elements through the
    left add-approximation of v, and verify_evidence on the identity of
    each far end that is a canonical sum and on its zero map."""
    cert = left_approx_add(v, handle)
    z, target = cert.morphism, cert.approximating
    out = []
    for w in ends:
        basis = hom_basis(v, w)
        out.append((basis, [factor_through(f, z) for f in basis]))
    for iso in (RepMorphism.identity(target), RepMorphism.zero(target, target)):
        out.append(verify_evidence(AddEvidence(cert.evidence.multiplicities, iso), target, handle))
    return out


@SETTINGS
@given(cases())
def test_warm_caches_answer_as_cold_ones(case):
    warm = answers(*case)
    assert answers(*case) == warm
    clear_every_cache()
    cold = answers(*case)
    assert cold == warm
    # the approximation's own identity evidence verifies; its zero map
    # verifies exactly when the target is zero
    target_zero = left_approx_add(case[0], case[1]).approximating.total_dim == 0
    assert cold[-2] is True and cold[-1] is target_zero


@SETTINGS
@given(cases())
def test_an_equal_z_reads_the_same_systems(case):
    v, handle, ends = case
    z = left_approx_add(v, handle).morphism
    maps = [f for w in ends for f in hom_basis(v, w)]
    first = [factor_through(f, z) for f in maps]
    twin = separately_built(z)
    assert twin == z and twin is not z and twin.source is not z.source
    before = _factor_system.cache_info().misses, _copy_lift.cache_info().misses
    assert [factor_through(f, twin) for f in maps] == first
    assert (_factor_system.cache_info().misses, _copy_lift.cache_info().misses) == before


@SETTINGS
@given(cases(), st.data())
def test_different_z_with_the_same_ends_answer_apart(case, data):
    v, handle, ends = case
    t = ends[0]
    basis = hom_basis(v, t)
    zs = [RepMorphism.zero(v, t), data.draw(combination(basis, v, t))]
    if basis:
        zs.append(basis[0])
    maps = [f for w in ends for f in hom_basis(v, w)] + zs
    for _ in range(2):  # the second round reads the caches
        for z in zs:
            for f in maps:
                assert factor_through(f, z) == ref_factor(f, z, "left")
    # a nonzero z factors through itself and not through the zero map
    for z in zs[1:]:
        if not z.is_zero():
            assert factor_through(z, z) is not None
            assert factor_through(z, zs[0]) is None

"""Property tests of the factor exchange by constructed isomorphisms.

filt_exchange swaps factors i and i+1 of a filtration when
Ext1(factor(i+1), factor(i)) vanishes, and checks the swap with the two
isomorphisms its construction already has, so it calls no iso_test: with
extfilt.iso_test made to raise, filt_exchange and filt_normalize must still
answer over F2, F3 and Q, also where a factor's endomorphisms lie past the
complete grid of iso_test. Outside that patch each swapped factor must be
isomorphic to the original it replaces, the steps away from the pair must
be unchanged, and a normal form must keep the generator counts of its input.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat import extfilt
from approxcat.approx import member_add
from approxcat.extfilt import FiltrationCertificate, OrderedFamily, filt_exchange, filt_normalize
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import (
    Filtration,
    Rep,
    RepMorphism,
    direct_sum_rep,
    ext1_dim,
    iso_test,
    subrep_from_bases,
)
from filt_oracles import Q_POOL, extension_chains

Q = FieldSpec.rationals()
FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), Q]
A2, LOOP = a2_quiver(), loop_quiver(1)
LOOP_EXIT = Quiver(2, [("alpha1", 0, 0), ("beta", 0, 1)])


def no_iso_test(*args):
    raise AssertionError("iso_test called")


def without_iso_test():
    return mock.patch.object(extfilt, "iso_test", no_iso_test)


@st.composite
def small_reps(draw, quiver, field):
    scalar = st.integers(0, field.modulus - 1) if field.modulus else st.sampled_from(Q_POOL)
    dims = [draw(st.integers(0, 2 if quiver == LOOP else 1)) for _ in range(quiver.vertex_count)]
    maps = {}
    for a in quiver.arrows:
        rows, cols = dims[a.target], dims[a.source]
        maps[a.id] = Matrix(field, rows, cols,
                            draw(st.lists(scalar, min_size=rows * cols, max_size=rows * cols)))
    return Rep(quiver, field, dims, maps)


@st.composite
def filtrations(draw):
    field = draw(st.sampled_from(FIELDS))
    quiver = draw(st.sampled_from([LOOP, LOOP_EXIT, A2]))
    layers = draw(st.lists(small_reps(quiver, field), min_size=2, max_size=3))
    return draw(extension_chains(layers))


def check_exchange(f, i):
    with without_iso_test():
        g = filt_exchange(f, i)
    assert iso_test(g.factor(i), f.factor(i + 1)) is not None
    assert iso_test(g.factor(i + 1), f.factor(i)) is not None
    assert all(g.steps[j] == f.steps[j] for j in range(f.depth) if j not in (i, i + 1))
    assert g.top == f.top


@settings(max_examples=150, deadline=None)
@given(filtrations())
def test_exchange_answers_without_iso_test(f):
    for i in range(f.depth - 1):
        if ext1_dim(f.factor(i + 1), f.factor(i)) == 0:
            check_exchange(f, i)


def ordered_families(field):
    """Families over A2 with Ext1(X_i, X_j) = 0 for i <= j."""
    s1, s2 = Rep.simple(A2, field, 0), Rep.simple(A2, field, 1)
    p1 = Rep(A2, field, [1, 1], {"a": Matrix(field, 1, 1, [1])})
    return [[s2, s1], [p1, s2], [s2, s1, p1]]


@st.composite
def certificates(draw):
    """A certificate over an ordered family whose layers, each one or two
    generator copies, come in any order."""
    field = draw(st.sampled_from(FIELDS))
    family = OrderedFamily(draw(st.sampled_from(ordered_families(field))))
    gens = st.sampled_from(family.generators)
    layers = [direct_sum_rep(draw(st.lists(gens, min_size=1, max_size=2)))
              for _ in range(draw(st.integers(2, 3)))]
    filt = draw(extension_chains(layers))
    evidence = tuple(member_add(filt.factor(j), family) for j in range(filt.depth))
    return FiltrationCertificate(filt, filt.top, family, evidence)


def counts(cert):
    return [sum(c) for c in zip(*(ev.multiplicities for ev in cert.factor_assignments))]


@settings(max_examples=100, deadline=None)
@given(certificates())
def test_normalize_answers_without_iso_test(cert):
    assert cert.verify()
    with without_iso_test():
        out = filt_normalize(cert)
    assert out.verify()
    assert out.member == cert.member
    assert counts(out) == counts(cert)
    assert out.depth <= len(cert.family.generators)


def test_factors_past_the_iso_grid_exchange():
    # over Q, S^3 below a loop with eigenvalues 1, 1, 2: Ext1 vanishes, and
    # End(S^3) has dimension 9, past the complete grid of iso_test
    x = Rep(LOOP, Q, [3])
    y = Rep(LOOP, Q, [3], {"alpha1": Matrix(Q, 3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 2])})
    m = direct_sum_rep([x, y])
    bases = [Matrix.identity(Q, 6).take_cols(range(3))]
    sub, incl = subrep_from_bases(m, bases)
    f = Filtration([RepMorphism.zero(Rep.zero(LOOP, Q), sub), incl])
    check_exchange(f, 0)


def test_exchanges_in_normalization_answer_without_iso_test():
    # factors (S1, S2) over F3 renormalized to (S2, S1), which exchanges them
    F = FieldSpec.prime(3)
    s1, s2 = Rep.simple(A2, F, 0), Rep.simple(A2, F, 1)
    family = OrderedFamily([s2, s1])
    m = direct_sum_rep([s1, s2])
    sub, incl = subrep_from_bases(m, [Matrix.identity(F, 1), Matrix(F, 1, 0)])
    f = Filtration([RepMorphism.zero(Rep.zero(A2, F), sub), incl])
    cert = FiltrationCertificate(f, m, family, (member_add(s1, family), member_add(s2, family)))
    with without_iso_test():
        out = filt_normalize(cert)
    assert [ev.multiplicities for ev in out.factor_assignments] == [(1, 0), (0, 1)]

"""Property tests of direct_sum_rep, the sum-only direct sum.

direct_sum_rep builds the sum's dimensions and block-diagonal arrow maps
and nothing else; direct_sum adds one injection and one projection per
summand on top of it. Over F2, F3 and Q, on A2, the one-loop and the
Kronecker quiver, with zero-dimensional summands and the empty sum, the
sum-only builder must equal direct_sum(...)[0], both by == and by key().
Since direct_sum now calls it, the sum is also checked against the
definition: the injections and projections direct_sum lays out are
natural, p_i i_j is the identity for i = j and zero otherwise, and the
i_i p_i add up to the identity.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.errors import FieldMismatchError, ShapeError
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import Rep, RepMorphism, compose, direct_sum, direct_sum_rep

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.rationals()]
QUIVERS = [a2_quiver(), loop_quiver(1), Quiver(2, [("a", 0, 1), ("b", 0, 1)])]
SETTINGS = settings(max_examples=80, deadline=None)


@st.composite
def reps(draw, q, F):
    # dimension 0 is drawn as often as any other, so zero summands are common
    dims = [draw(st.integers(0, 2)) for _ in range(q.vertex_count)]
    pool = [0, 1, 2, -1] if F.kind == "rationals" else list(range(F.modulus))
    maps = {}
    for a in q.arrows:
        rows, cols = dims[a.target], dims[a.source]
        entries = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
        maps[a.id] = Matrix(F, rows, cols, entries)
    return Rep(q, F, dims, maps)


@st.composite
def summands(draw):
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    return q, F, draw(st.lists(reps(q, F), max_size=4))


@SETTINGS
@given(summands())
def test_sum_only_equals_the_full_direct_sum(case):
    q, F, parts = case
    got = direct_sum_rep(parts, quiver=q, field=F)
    want, injs, projs = direct_sum(parts, quiver=q, field=F)
    assert got == want
    assert got.key() == want.key()
    assert len(injs) == len(projs) == len(parts)
    total = RepMorphism.zero(got, got)
    for i, (inj, proj) in enumerate(zip(injs, projs)):
        assert inj.is_natural() and proj.is_natural()
        for j, other in enumerate(injs):
            unit = RepMorphism.identity(parts[i]) if i == j else RepMorphism.zero(parts[j], parts[i])
            assert compose(proj, other) == unit
        total = total + compose(inj, proj)
    assert total == RepMorphism.identity(got)


@pytest.mark.parametrize("F", FIELDS, ids=lambda f: f.label)
@pytest.mark.parametrize("q", QUIVERS, ids=lambda q: f"{q.vertex_count}v{len(q.arrows)}a")
def test_empty_sum_is_the_zero_rep(q, F):
    got = direct_sum_rep([], quiver=q, field=F)
    assert got == direct_sum([], quiver=q, field=F)[0] == Rep.zero(q, F)
    assert got.key() == Rep.zero(q, F).key()


def test_empty_sum_needs_quiver_and_field():
    with pytest.raises(ShapeError):
        direct_sum_rep([])


def test_summands_must_share_the_field():
    q = a2_quiver()
    with pytest.raises(FieldMismatchError):
        direct_sum_rep([Rep.simple(q, FIELDS[0], 0), Rep.simple(q, FIELDS[1], 0)])

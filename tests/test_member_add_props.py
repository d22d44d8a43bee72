"""Property tests of add membership over families with zero arrow maps.

When every generator acts by zero, so does every canonical sum, and
member_add decides by a dimension count: m is a member exactly when its
maps are zero and its dims admit a multiplicity vector, and its evidence
is the first such vector with the identity of the canonical sum, which
equals m. The reference here is the
general search member_add runs for every other family: try the
multiplicity vectors in lexicographic order and certify the first whose
canonical sum iso_test confirms. Over F2, F3 and Q, on A2, the one-loop
and the Kronecker quiver, with the empty family, zero-dimensional
generators and repeated dims, both must serialize the same evidence, or
both answer None.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.approx import AddCategory, AddEvidence, _multiplicities, member_add
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import Rep, iso_test
from approxcat.serialize import evidence_to_jsonable

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.rationals()]
QUIVERS = [a2_quiver(), loop_quiver(1), Quiver(2, [("a", 0, 1), ("b", 0, 1)])]
SETTINGS = settings(max_examples=150, deadline=None)


def ref_member_add(m, handle):
    """The multiplicity search with an iso_test per candidate sum."""
    for mults in _multiplicities([g.dims for g in handle.generators], m.dims):
        total, _ = handle.canonical_sum(mults)
        iso = iso_test(m, total)
        if iso is not None:
            return AddEvidence(mults, iso)
    return None


@st.composite
def cases(draw):
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    n = q.vertex_count
    # a few dims vectors, zero included, so generators repeat dims and some
    # are zero-dimensional
    shapes = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=3))
    gens = [Rep(q, F, draw(st.sampled_from(shapes))) for _ in range(draw(st.integers(0, 3)))]
    counts = [draw(st.integers(0, 2)) for _ in gens]
    extra = [draw(st.integers(0, 1)) for _ in range(n)]
    dims = [sum(c * g.dims[x] for c, g in zip(counts, gens)) + e for x, e in enumerate(extra)]
    maps = {}
    if draw(st.booleans()):
        pool = [0, 1, -1, 2] if F.kind == "rationals" else list(range(F.modulus))
        for a in q.arrows:
            rows, cols = dims[a.target], dims[a.source]
            entries = draw(st.lists(st.sampled_from(pool), min_size=rows * cols,
                                    max_size=rows * cols))
            maps[a.id] = Matrix(F, rows, cols, entries)
    return Rep(q, F, dims, maps), AddCategory(gens, quiver=q, field=F)


def _serialized(ev):
    return None if ev is None else evidence_to_jsonable(ev)


@SETTINGS
@given(cases())
def test_zero_map_family_decided_by_dimension_count(case):
    m, handle = case
    assert _serialized(member_add(m, handle)) == _serialized(ref_member_add(m, handle))

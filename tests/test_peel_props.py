"""Property tests of the peel search over semisimple families.

Over a family whose generators all have zero arrow maps, an add(S)
subrepresentation of m is a product of subspaces of the joint kernels K_x
of the outgoing maps. `_peel_candidates` finds the candidates with
`SubrepSearch` over the zero-map representation on the K_x. The reference
is the separate kernel walk it replaced, kept below: subspace tables of the
K_x, grouped by dimension, shapes in graded lexicographic order, filtered
by dimension feasibility. Over F2, F3 and F5, on the one- and two-loop
quivers and A2, for families that are not vertex-simple, both must yield
the same inclusions in the same order, and under a tight budget both must
refuse with the same error class.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from approxcat import extfilt
from approxcat.approx import AddCategory, member_add
from approxcat.errors import ApproxcatError, BudgetExceededError
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import a2_quiver, loop_quiver
from approxcat.rep import Rep, RepMorphism
from approxcat.search import Budget, subspace_table

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5)]
QUIVERS = [loop_quiver(1), loop_quiver(2), a2_quiver()]
SETTINGS = settings(max_examples=150, deadline=None)


def ref_kernel_peel_candidates(m, handle, budget):
    """The inclusions of the semisimple peel search as the separate
    kernel walk built them."""
    if m.total_dim > budget.max_total_dim:
        raise BudgetExceededError(
            f"total dimension {m.total_dim} exceeds the budget {budget.max_total_dim}"
        )
    F = m.field
    q = m.quiver
    kernels = [extfilt._outgoing_kernel(m, x) for x in range(q.vertex_count)]
    tables = [subspace_table(F, kern.cols) for kern in kernels]
    count = 1
    for t in tables:
        count *= len(t)
    if count > budget.max_subspaces:
        raise BudgetExceededError(
            f"{count} subspace combinations exceed the budget {budget.max_subspaces}"
        )
    by_k = []
    for t in tables:
        groups = {}
        for e in t:
            groups.setdefault(e.k, []).append(e)
        by_k.append(groups)
    caps = [kern.cols for kern in kernels]
    total = m.total_dim
    for want in range(1, sum(caps) + 1):
        if want == total:
            continue
        for shape in itertools.product(*(range(c + 1) for c in caps)):
            if sum(shape) != want:
                continue
            if not extfilt._dims_feasible(handle, shape):
                continue
            pools = [by_k[x][shape[x]] for x in range(q.vertex_count)]
            for entries in itertools.product(*pools):
                comps = [kernels[x] @ entries[x].basis for x in range(q.vertex_count)]
                maps = {
                    a.id: Matrix.zeros(F, shape[a.target], shape[a.source])
                    for a in q.arrows
                }
                sub = Rep(q, F, list(shape), maps)
                yield RepMorphism(sub, m, comps, check=False)


@st.composite
def reps(draw, q, F):
    """Small representations whose maps are mostly zero, so that the joint
    kernels are often nonzero and proper, moved by a change of basis when
    the drawn one is invertible, so that the kernels are not spanned by
    coordinate vectors."""
    top = 3 if F.modulus == 5 else 4
    dims = [draw(st.integers(0, top)) for _ in range(q.vertex_count)]

    def entries(n, zero_weight):
        entry = st.one_of(*[st.just(0)] * zero_weight, st.integers(0, F.modulus - 1))
        return draw(st.lists(entry, min_size=n, max_size=n))

    change = []
    for d in dims:
        g = Matrix(F, d, d, entries(d * d, 0))
        change.append(g if g.is_invertible() else Matrix.identity(F, d))
    inverse = [g.solve(Matrix.identity(F, g.rows)) for g in change]
    maps = {}
    for a in q.arrows:
        rows, cols = dims[a.target], dims[a.source]
        maps[a.id] = (change[a.target] @ Matrix(F, rows, cols, entries(rows * cols, 2))
                      @ inverse[a.source])
    return Rep(q, F, dims, maps)


@st.composite
def cases(draw):
    """(m, handle): a family of one to three zero-map generators that is
    not vertex-simple, so the membership search peels."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    m = draw(reps(q, F))
    dim_vectors = st.lists(st.integers(0, 2), min_size=q.vertex_count,
                           max_size=q.vertex_count).filter(any)
    gens = [Rep(q, F, dims) for dims in draw(st.lists(dim_vectors, min_size=1, max_size=3))]
    handle = AddCategory(gens, quiver=q, field=F)
    assume(handle.kind() == (True, None))
    return m, handle


def outcome(candidates):
    """The list of yielded inclusions, or the class of the error raised."""
    try:
        return list(candidates)
    except ApproxcatError as err:
        return type(err)


@SETTINGS
@given(cases())
def test_peel_candidates_equal_the_kernel_walk(case):
    m, handle = case
    budget = Budget()
    got = outcome(extfilt._peel_candidates(m, handle, budget))
    assert got == outcome(ref_kernel_peel_candidates(m, handle, budget))
    assert isinstance(got, list)
    for incl in got:
        assert member_add(incl.source, handle) is not None
        assert RepMorphism(incl.source, m, incl.components).is_injective()


@SETTINGS
@given(cases(), st.integers(0, 8), st.integers(0, 400))
def test_tight_budgets_refuse_alike(case, max_total_dim, max_subspaces):
    m, handle = case
    budget = Budget(max_total_dim=max_total_dim, max_subspaces=max_subspaces)
    got = outcome(extfilt._peel_candidates(m, handle, budget))
    assert got == outcome(ref_kernel_peel_candidates(m, handle, budget))

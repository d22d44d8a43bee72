"""Property tests of filtration membership over vertex-simple families.

member_filt decides such families by the Loewy series. The reference here
is the search-based minimal depth the decision replaced: peel every proper
nonzero add(S) subrepresentation, found by the generic subrepresentation
search, and recurse on the quotient with the same depth memo; membership
in add(S) is the dimension count that families with zero arrow maps allow.
Over F2, F3 and F5, on the one- and two-loop quivers and A2, the reference,
the library's peel search (_peels) and member_filt must agree on
membership at every r, and every certificate must verify.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat import extfilt
from approxcat.approx import member_add
from approxcat.extfilt import OrderedFamily, member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import a2_quiver, loop_quiver
from approxcat.rep import Rep, cokernel, direct_sum
from approxcat.search import Budget, SubrepSearch

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5)]
QUIVERS = [loop_quiver(1), loop_quiver(2), a2_quiver()]
SETTINGS = settings(max_examples=80, deadline=None)


def ref_min_depth(m, handle, cap, budget, memo):
    """The search-based minimal depth: the smallest r <= cap with m in F_r,
    or None."""
    if cap < 1:
        return None
    if member_add(m, handle) is not None:
        return 1
    if cap <= 1:
        return None
    got = memo.get(m.key())
    if got is not None:
        tried, val = got
        if val is not None:
            return val if val <= cap else None
        if tried >= cap:
            return None
    best = None
    search = SubrepSearch(m, budget)
    for combo in search.tuples():
        if sum(e.k for e in combo) in (0, m.total_dim):
            continue
        sub, incl = search.build(combo)
        if member_add(sub, handle) is None:
            continue
        quot, _ = cokernel(incl)
        inner = ref_min_depth(quot, handle, cap - 1 if best is None else best - 2, budget, memo)
        if inner is not None and (best is None or inner + 1 < best):
            best = inner + 1
            if best == 2:
                break
    memo[m.key()] = (cap, best)
    return best


def vertex_simple_families(q, F):
    simples = [Rep.simple(q, F, x) for x in range(q.vertex_count)]
    doubled = direct_sum([simples[0], simples[0]])[0]
    families = [[], simples[:1], [simples[0], doubled], simples[::-1]]
    return [OrderedFamily(f, quiver=q, field=F) for f in families]


@st.composite
def cases(draw):
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    top = 2 if F.modulus == 5 else 3
    dims = [draw(st.integers(0, top)) for _ in range(q.vertex_count)]
    nilpotent = draw(st.booleans())
    maps = {}
    for a in q.arrows:
        rows, cols = dims[a.target], dims[a.source]
        entries = draw(st.lists(st.integers(0, F.modulus - 1),
                                min_size=rows * cols, max_size=rows * cols))
        if nilpotent and a.source == a.target:
            # strictly lower triangular loops act nilpotently together
            entries = [e if i > j else 0 for (i, j), e in
                       zip(((i, j) for i in range(rows) for j in range(cols)), entries)]
        maps[a.id] = Matrix(F, rows, cols, entries)
    family = draw(st.sampled_from(vertex_simple_families(q, F)))
    return Rep(q, F, dims, maps), family


@SETTINGS
@given(cases())
def test_member_filt_agrees_with_the_peel_search(case):
    m, family = case
    assert family.kind()[1] is not None
    budget = Budget()
    memo, decision = {}, {}
    for r in range(1, 5):
        want = ref_min_depth(m, family, r, budget, memo)
        assert (extfilt._peels(m, family, r, budget, decision) is not None) == (want is not None)
        cert = member_filt(m, family, r)
        assert (cert is not None) == (want is not None)
        if cert is not None:
            assert cert.member == m and cert.depth <= r
            assert cert.verify()

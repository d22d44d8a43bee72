"""Property tests that the subrepresentation search is exhaustive, by counting.

Every negative of the peel search and of member_ext rests on one claim:
SubrepSearch.tuples yields every arrow-stable subspace tuple, each once.
tests/search_oracles.py counts those tuples in closed form for two
families: a representation with zero arrow maps, per dimension vector, and
a nilpotent one-loop representation of Jordan type lam, per dimension, by
Birkhoff's formula (here after a unitriangular change of basis, which the
count does not see). The search must give each count, and no tuple of
canonical bases may come twice.
"""

import collections

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import Rep
from approxcat.search import Budget, SubrepSearch
from search_oracles import LOOP, jordan_counts, jordan_rep, partitions, zero_map_counts

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5)]
QUIVERS = [a2_quiver(), Quiver(2, [("a", 0, 1), ("b", 0, 1)]), loop_quiver(1), loop_quiver(2)]
SETTINGS = settings(max_examples=100, deadline=None)


def _tuples_by(rep: Rep, key) -> dict:
    """key(combo) -> number of stable tuples, once no basis tuple repeats."""
    combos = list(SubrepSearch(rep, Budget()).tuples())
    assert len({tuple(e.basis for e in combo) for combo in combos}) == len(combos)
    return dict(collections.Counter(key(combo) for combo in combos))


@st.composite
def zero_map_reps(draw):
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    dims = [draw(st.integers(0, 2 if F.modulus == 5 else 3)) for _ in range(q.vertex_count)]
    return Rep(q, F, dims)


@st.composite
def jordan_reps(draw):
    F = draw(st.sampled_from(FIELDS))
    lam = draw(st.sampled_from(list(partitions(draw(st.integers(0, 3 if F.modulus == 5 else 4))))))
    n = sum(lam)
    upper = draw(st.lists(st.integers(0, F.modulus - 1), min_size=n * n, max_size=n * n))
    p = Matrix(F, n, n, [int(i == j) or (e if i < j else 0)
                         for (i, j), e in zip(((i, j) for i in range(n) for j in range(n)), upper)])
    alpha = p @ jordan_rep(F, lam).map("alpha1") @ p.solve(Matrix.identity(F, n))
    return Rep(LOOP, F, [n], {"alpha1": alpha}), lam


@SETTINGS
@given(zero_map_reps())
def test_zero_map_rep_yields_every_subspace_tuple(m):
    counts = zero_map_counts(m.dims, m.field.modulus)
    assert _tuples_by(m, lambda combo: tuple(e.k for e in combo)) == counts


@SETTINGS
@given(jordan_reps())
def test_jordan_type_submodules_match_birkhoffs_count(case):
    m, lam = case
    counts = jordan_counts(lam, m.field.modulus)
    assert _tuples_by(m, lambda combo: combo[0].k) == counts

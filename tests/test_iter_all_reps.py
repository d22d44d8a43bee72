"""search.iter_all_reps enumerates in the order of the pooled reference
(ascending total dimension, then lexicographic dims and map entries, the
last arrow varying fastest), and makes the first arrow's matrices one at a
time: a one-arrow quiver keeps no pool."""

import pytest

from approxcat import search
from approxcat.fields import FieldSpec
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.search import iter_all_reps
from search_oracles import ref_iter_all_reps

F2, F3 = FieldSpec.prime(2), FieldSpec.prime(3)

CASES = [
    (a2_quiver(), F2, (2, 2)),
    (a2_quiver(), F3, (1, 2)),
    (loop_quiver(1), F2, (3,)),
    (loop_quiver(2), F2, (2,)),
    (Quiver(2, [("a", 0, 1), ("b", 0, 1)]), F2, (1, 2)),
    (Quiver(2, [("alpha1", 0, 0), ("beta", 0, 1)]), F3, (1, 1)),
    (Quiver(3, [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)]), F2, (1, 1, 2)),
    (Quiver(2, []), F2, (1, 2)),
]


@pytest.mark.parametrize("quiver, field, bound", CASES)
def test_order_is_the_pooled_product_order(quiver, field, bound):
    got = list(iter_all_reps(quiver, field, bound))
    assert got == list(ref_iter_all_reps(quiver, field, bound))
    assert len(set(got)) == len(got)


def test_one_arrow_keeps_no_pool(monkeypatch):
    made = []
    iter_matrices = search.iter_matrices

    def counted(field, rows, cols):
        for m in iter_matrices(field, rows, cols):
            made.append(m)
            yield m

    monkeypatch.setattr(search, "iter_matrices", counted)
    # 531 one-loop reps of dim <= 3 over F2, then the first of dim 4: one
    # matrix made per rep, not the 2^16 of dim 4 ahead of it
    reps = iter_all_reps(loop_quiver(1), F2, (4,))
    for count in range(1, 533):
        rep = next(reps)
        assert len(made) == count
    assert rep.dims == (4,)

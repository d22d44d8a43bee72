"""Property tests of the nilpotency decision before the radical series.

Let A be the total arrow operator of m: it acts on the sum of the m_x, with
block (t, s) the sum of m_a over the arrows a: s -> t. Then A^k is the sum
of the path maps of length k, so im A^k lies in rad_T^k(m) and a member of
some F_r has A nilpotent, with every loop map of trace 0. _radical_series
returns None at once when that fails, and builds the series otherwise.

The reference is the series loop with no such test (filt_oracles). Over
F2, F3, F5 and Q, on the one- and two-loop quivers, the loop-and-exit
quiver and a 2-cycle, _radical_series must equal it: None for the same
reps, identical terms otherwise. Where no two paths of one length share
both ends (all these quivers but the two-loop one), A^k is a block matrix
of single path maps, so A is nilpotent exactly when m is a member: there a
non-member must be refused before any term is built.
"""

from fractions import Fraction
from itertools import accumulate
from unittest import mock

from filt_oracles import ref_radical_series
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat import extfilt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, loop_quiver
from approxcat.rep import Rep

F2, F3, F5, Q = (FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5),
                 FieldSpec.rationals())
POOLS = {F2: [0, 1], F3: [0, 1, 2], F5: [0, 1, 2, 3, 4],
         Q: [0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]}
ONE_LOOP = loop_quiver(1)
TWO_LOOPS = loop_quiver(2)
LOOP_EXIT = Quiver(2, [("alpha1", 0, 0), ("beta", 0, 1)])
TWO_CYCLE = Quiver(2, [("a", 0, 1), ("b", 1, 0)])
# quivers on which no two paths of one length share both ends
EXACT = (ONE_LOOP, LOOP_EXIT, TWO_CYCLE)


@st.composite
def reps(draw):
    """A rep with random maps, or a nilpotent one (every map strictly
    lowers a global basis order, then each vertex changes basis by a
    unitriangular matrix), or a nilpotent one with one entry perturbed."""
    field = draw(st.sampled_from(sorted(POOLS, key=lambda f: f.label)))
    quiver = draw(st.sampled_from([ONE_LOOP, TWO_LOOPS, LOOP_EXIT, TWO_CYCLE]))
    pool = POOLS[field]
    top = 4 if quiver.vertex_count == 1 else 2
    dims = [draw(st.integers(0, top)) for _ in range(quiver.vertex_count)]
    mode = draw(st.sampled_from(["random", "nilpotent", "perturbed"]))
    offs = list(accumulate(dims, initial=0))
    maps = {}
    for a in quiver.arrows:
        rows, cols = dims[a.target], dims[a.source]
        entries = draw(st.lists(st.sampled_from(pool), min_size=rows * cols,
                                max_size=rows * cols))
        if mode != "random":
            entries = [e if offs[a.target] + k // cols > offs[a.source] + k % cols else 0
                       for k, e in enumerate(entries)]
        maps[a.id] = Matrix(field, rows, cols, entries)
    if mode != "random":
        base = []
        for d in dims:
            upper = draw(st.lists(st.sampled_from(pool), min_size=d * d, max_size=d * d))
            base.append(Matrix(field, d, d, [1 if i == j else upper[i * d + j] if i < j else 0
                                              for i in range(d) for j in range(d)]))
        inverse = [p.solve(Matrix.identity(field, p.rows)) for p in base]
        maps = {a.id: base[a.target] @ maps[a.id] @ inverse[a.source] for a in quiver.arrows}
    if mode == "perturbed":
        arrows = [a for a in quiver.arrows if dims[a.source] and dims[a.target]]
        if arrows:
            a = draw(st.sampled_from(arrows))
            mat = maps[a.id]
            k = draw(st.integers(0, mat.rows * mat.cols - 1))
            e = list(mat.flat())
            e[k] = draw(st.sampled_from(pool))
            maps[a.id] = Matrix(field, mat.rows, mat.cols, e)
    support = frozenset(draw(st.sampled_from(
        [range(quiver.vertex_count), range(quiver.vertex_count), [0]])))
    return Rep(quiver, field, dims, maps), support


def _refused_unbuilt(m, support) -> bool:
    """Whether _radical_series returns None without building a term."""
    with mock.patch.object(Matrix, "image_basis", side_effect=AssertionError("a term was built")):
        return extfilt._radical_series(m, support) is None


@settings(max_examples=400, deadline=None)
@given(reps())
def test_series_equals_the_unconditional_series(case):
    m, support = case
    want = ref_radical_series(m, support)
    assert extfilt._radical_series(m, support) == want
    if want is not None:
        assert extfilt._nilpotent(m)
    elif m.quiver in EXACT:
        assert not extfilt._nilpotent(m) or any(
            d for x, d in enumerate(m.dims) if x not in support)
        assert _refused_unbuilt(m, support)


def _one_loop(field, rows):
    return Rep(ONE_LOOP, field, [len(rows)], {"alpha1": Matrix.from_rows(field, rows)})


def _squaring_case(m):
    """m has trace-zero loop maps and a non-nilpotent A with A^2 = I, so
    only the squaring step refuses it, before any term is built."""
    assert all(m.map(a.id).trace() == 0 for a in m.quiver.arrows if a.source == a.target)
    assert not extfilt._nilpotent(m)
    assert ref_radical_series(m, range(m.quiver.vertex_count)) is None
    assert _refused_unbuilt(m, frozenset(range(m.quiver.vertex_count)))


def test_swap_over_f2_is_refused_by_squaring():
    _squaring_case(_one_loop(F2, [[0, 1], [1, 0]]))


def test_trace_zero_diagonal_over_q_is_refused_by_squaring():
    _squaring_case(_one_loop(Q, [[1, 0], [0, -1]]))


def test_two_cycle_of_order_two_is_refused_by_squaring():
    one = Matrix.from_rows(F3, [[1]])
    _squaring_case(Rep(TWO_CYCLE, F3, [1, 1], {"a": one, "b": one}))


def test_nonzero_loop_trace_is_refused_before_any_product():
    m = _one_loop(F5, [[1, 0], [0, 0]])
    with mock.patch.object(Matrix, "__matmul__", side_effect=AssertionError("a product was taken")):
        assert not extfilt._nilpotent(m)
    assert ref_radical_series(m, {0}) is None


def test_cancelling_parallel_loops_fall_through_to_the_series():
    """Two loops acting by X and -X: A = 0 is nilpotent, yet X is not, so
    m is in no F_r and the series itself must stall."""
    x = Matrix.from_rows(F3, [[0, 1], [1, 0]])
    m = Rep(TWO_LOOPS, F3, [2], {"alpha1": x, "alpha2": -x})
    assert extfilt._nilpotent(m)
    assert extfilt._radical_series(m, {0}) is None
    assert ref_radical_series(m, {0}) is None


def test_acyclic_quiver_skips_the_test():
    a2 = Quiver(2, [("a", 0, 1)])
    m = Rep(a2, F2, [1, 1], {"a": Matrix.from_rows(F2, [[1]])})
    with mock.patch.object(extfilt, "_nilpotent", side_effect=AssertionError("tested")):
        assert extfilt._radical_series(m, {0, 1}) == ref_radical_series(m, {0, 1})

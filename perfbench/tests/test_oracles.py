"""The plain-integer oracles agree with approxcat on small cases."""

import itertools
import random

import pytest

from approxcat.approx import AddCategory, factor_through, left_approx_ext, member_add
from approxcat.extfilt import OrderedFamily, member_ext, member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import a2_quiver, loop_quiver
from approxcat.rep import Rep, hom_basis
from approxcat.search import iter_all_reps

from perfbench import oracles
from perfbench.workloads import DIM4_INDEX_SIZES

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


@pytest.mark.parametrize("field,dim", [(F2, 3), (F3, 2)])
def test_power_vanishes_is_filtration_membership(field, dim):
    q = loop_quiver(1)
    s = Rep.simple(q, field, 0)
    for v in iter_all_reps(q, field, (dim,)):
        alpha = v.map("alpha1").to_lists()
        for r in range(1, dim + 2):
            expected = member_filt(v, [s], r) is not None
            assert oracles.power_vanishes(alpha, r, field.modulus) == expected


def test_f2_index_matches_general_index_and_class_sizes():
    sizes = {}
    for bits in range(1 << 16):
        k = oracles.f2_nilpotency_index(bits, 4)
        sizes[k] = sizes.get(k, 0) + 1
        if bits % 97 == 0:
            assert k == oracles.nilpotency_index(oracles.bits_to_rows(bits, 4), 2)
    assert sizes == DIM4_INDEX_SIZES


def test_bits_order_is_the_enumeration_order():
    mats = [m.to_lists() for m in itertools.islice(
        (v.map("alpha1") for v in iter_all_reps(loop_quiver(1), F2, (2,)) if v.dims == (2,)), 16
    )]
    assert mats == [oracles.bits_to_rows(b, 2) for b in range(16)]


def test_a2_depth_one_is_a_zero_arrow_and_depth_two_always_holds():
    q = a2_quiver()
    family = OrderedFamily([Rep.simple(q, F2, 1), Rep.simple(q, F2, 0)])
    for v in iter_all_reps(q, F2, (2, 2)):
        zero = oracles.is_zero(v.map("a").to_lists())
        assert (member_filt(v, family, 1) is not None) == zero
        assert member_filt(v, family, 2) is not None


def test_rank():
    rng = random.Random(0)
    for p in (2, 3, 5):
        for _ in range(50):
            r, c = rng.randint(0, 4), rng.randint(0, 4)
            rows = [[rng.randrange(p) for _ in range(c)] for _ in range(r)]
            field = FieldSpec.prime(p)
            m = Matrix(field, r, c, [x for row in rows for x in row])
            assert oracles.rank(rows, p) == m.rank()


def test_add_and_ext_membership_oracles_of_the_cli_workload():
    q = a2_quiver()
    for field in (F2, F3):
        s1, s2 = Rep.simple(q, field, 0), Rep.simple(q, field, 1)
        p1 = Rep(q, field, [1, 1], {"a": Matrix(field, 1, 1, [1])})
        projs = AddCategory([p1, s2])
        x, y = AddCategory([s1]), AddCategory([s2])
        for v in iter_all_reps(q, field, (2, 2)):
            a = v.map("a").to_lists()
            injective = oracles.rank(a, field.modulus) == v.dims[0]
            assert (member_add(v, projs) is not None) == injective
            assert (member_ext(v, x, y) is not None) == oracles.is_zero(a)
            assert member_ext(v, y, x) is not None


def test_factors_accepts_factorizations_and_rejects_a_wrong_one():
    q = a2_quiver()
    x = AddCategory([Rep.simple(q, F3, 0)])
    y = AddCategory([Rep.simple(q, F3, 1)])
    target = Rep(q, F3, [2, 1], {"a": Matrix(F3, 1, 2, [0, 0])})
    rejected = 0
    for m in iter_all_reps(q, F3, (1, 1)):
        approx = left_approx_ext(m, x, y).morphism
        z = [c.to_lists() for c in approx.components]
        for f in hom_basis(m, target):
            g = factor_through(f, approx)
            f_comps = [c.to_lists() for c in f.components]
            g_comps = [c.to_lists() for c in g.components]
            assert oracles.factors(g_comps, z, f_comps, 3)
            for comp in g_comps:
                if comp and comp[0]:
                    comp[0][0] = (comp[0][0] + 1) % 3
                    break
            rejected += not oracles.factors(g_comps, z, f_comps, 3)
    assert rejected > 0


def test_matmul_keeps_the_column_count_through_an_empty_inner_dimension():
    assert oracles.matmul([[], []], [], 3, m=2) == [[0, 0], [0, 0]]

"""Property test of iso_test under a change of basis, over F3, F5 and Q.

w is v with every vertex space given a random invertible change of basis
g_x, so w.map(a) = g_t v.map(a) g_s^-1 for an arrow a: s -> t, and g is an
isomorphism v -> w. On the arrow quiver A2, the one-loop quiver and the
Kronecker quiver, up to total dimension 4, iso_test must then return an
isomorphism: a natural, invertible morphism from v to w.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import Rep, iso_test

Q = FieldSpec.rationals()
FIELDS = {"F3": FieldSpec.prime(3), "F5": FieldSpec.prime(5), "Q": Q}
QUIVERS = [a2_quiver(), loop_quiver(1), Quiver(2, [("a", 0, 1), ("b", 0, 1)])]
Q_NONZERO = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]


def scalars(field, nonzero=False):
    if field == Q:
        return st.sampled_from(Q_NONZERO if nonzero else [0, 0] + Q_NONZERO)
    return st.integers(1 if nonzero else 0, field.modulus - 1)


def entries(draw, field, count, nonzero=False):
    return draw(st.lists(scalars(field, nonzero), min_size=count, max_size=count))


@st.composite
def invertible(draw, field, n):
    """P L U: a permutation, a unit lower and an invertible upper
    triangular matrix, which between them reach every invertible matrix."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    below, above = entries(draw, field, n * n), entries(draw, field, n * n)
    diagonal = entries(draw, field, n, nonzero=True)
    perm = draw(st.permutations(range(n)))
    lower = Matrix(field, n, n, [
        1 if i == j else below[i * n + j] if i > j else 0 for i, j in cells])
    upper = Matrix(field, n, n, [
        diagonal[i] if i == j else above[i * n + j] if i < j else 0 for i, j in cells])
    p = Matrix(field, n, n, [1 if j == perm[i] else 0 for i, j in cells])
    return p @ lower @ upper


@st.composite
def rebased_pairs(draw, field):
    quiver = draw(st.sampled_from(QUIVERS))
    dims = []
    for _ in range(quiver.vertex_count):
        dims.append(draw(st.integers(0, 4 - sum(dims))))
    maps = {
        a.id: Matrix(field, dims[a.target], dims[a.source],
                     entries(draw, field, dims[a.target] * dims[a.source]))
        for a in quiver.arrows
    }
    g = [draw(invertible(field, d)) for d in dims]
    rebased = {
        a.id: g[a.target] @ maps[a.id] @ g[a.source].solve(Matrix.identity(field, dims[a.source]))
        for a in quiver.arrows
    }
    return Rep(quiver, field, dims, maps), Rep(quiver, field, dims, rebased)


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_iso_test_finds_a_change_of_basis(label):
    field = FIELDS[label]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(rebased_pairs(field))
    def check(pair):
        v, w = pair
        f = iso_test(v, w)
        assert f is not None
        assert f.source == v and f.target == w
        assert f.is_natural() and f.is_iso()

    check()

"""Property tests of Quiver.is_acyclic and Quiver.paths_from, and of the
order of dimension vectors in approxcat.search.

is_acyclic asks graphlib for a topological order, and paths_from walks
arrows_from in quiver order. The references are the bodies they had
before, kept below: an iterative three-colour DFS, and a walk that sorts
each vertex's outgoing arrows by their position in the quiver. On random
quivers with loops, parallel arrows and several components both must
agree. _dim_vectors must give the order of the kept _compositions walk:
by total, then lexicographic.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.errors import ApproxcatError
from approxcat.quiver import Quiver
from approxcat.search import _dim_vectors

SETTINGS = settings(max_examples=300, deadline=None)


def ref_is_acyclic(q):
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * q.vertex_count
    out = [q.arrows_from(v) for v in range(q.vertex_count)]
    for start in range(q.vertex_count):
        if color[start] != WHITE:
            continue
        stack = [(start, 0)]
        color[start] = GRAY
        while stack:
            v, i = stack.pop()
            if i < len(out[v]):
                stack.append((v, i + 1))
                w = out[v][i].target
                if color[w] == GRAY:
                    return False
                if color[w] == WHITE:
                    color[w] = GRAY
                    stack.append((w, 0))
            else:
                color[v] = BLACK
    return True


def ref_paths_from(q, start):
    if not ref_is_acyclic(q):
        raise ApproxcatError("paths_from needs an acyclic quiver")
    order = {a.id: i for i, a in enumerate(q.arrows)}
    paths = [((), start)]
    frontier = [((), start)]
    while frontier:
        nxt = []
        for path, end in frontier:
            for a in sorted(q.arrows_from(end), key=lambda a: order[a.id]):
                nxt.append((path + (a.id,), a.target))
        paths.extend(nxt)
        frontier = nxt
    return paths


def ref_compositions(total, caps):
    n = len(caps)
    if n == 0:
        if total == 0:
            yield ()
        return

    def rec(i, remaining):
        if i == n - 1:
            if remaining <= caps[i]:
                yield (remaining,)
            return
        for v in range(min(remaining, caps[i]) + 1):
            for rest in rec(i + 1, remaining - v):
                yield (v,) + rest

    yield from rec(0, total)


@st.composite
def quivers(draw):
    n = draw(st.integers(0, 5))
    if n == 0:
        return Quiver(0, [])
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=7))
    return Quiver(n, [(f"x{k}", s, t) for k, (s, t) in enumerate(ends)])


@SETTINGS
@given(quivers())
def test_acyclicity_and_paths_equal_the_dfs(q):
    assert q.is_acyclic == ref_is_acyclic(q)
    for v in range(q.vertex_count):
        if q.is_acyclic:
            assert q.paths_from(v) == ref_paths_from(q, v)
        else:
            with pytest.raises(ApproxcatError, match="acyclic"):
                q.paths_from(v)


def test_dim_vectors_equal_the_compositions_order():
    for n in range(4):
        for caps in itertools.product(range(4), repeat=n):
            want = [v for t in range(sum(caps) + 1) for v in ref_compositions(t, caps)]
            assert _dim_vectors(caps) == want

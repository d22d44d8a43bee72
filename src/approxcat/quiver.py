"""Finite quivers: vertices 0..n-1 and labelled arrows, possibly with loops
and parallel arrows. Acyclicity (loops count as cycles) gates the projective
constructions elsewhere. Quivers are interned: Quiver(...) checks its
arguments and returns the one live quiver with that key(), so equality and
hashing are identity."""

import weakref
from typing import NamedTuple

from .errors import ApproxcatError, ShapeError, _need


class Arrow(NamedTuple):
    id: str
    source: int
    target: int


class Quiver:
    __slots__ = ("vertex_count", "arrows", "_by_id", "_acyclic", "__weakref__")

    def __new__(cls, vertex_count: int, arrows):
        if type(vertex_count) is not int or vertex_count < 0:
            raise ShapeError(f"vertex count must be a non-negative int, got {vertex_count!r}")
        arrs = tuple([Arrow(str(aid), s, t) for aid, s, t in arrows])
        # checked before the lookup: True == 1 would find the quiver with end 1
        if any(type(e) is not int or not 0 <= e < vertex_count for a in arrs for e in a[1:]):
            raise ShapeError(f"arrow ends must be ints in range({vertex_count}), got {arrs!r}")
        self = _QUIVERS.get((vertex_count, arrs))
        if self is None:
            by_id = {}
            for a in arrs:
                if a.id in by_id:
                    raise ApproxcatError(f"duplicate arrow id {a.id!r}")
                by_id[a.id] = a
            self = _QUIVERS[vertex_count, arrs] = object.__new__(cls)
            for slot, value in zip(cls.__slots__, (vertex_count, arrs, by_id, None)):
                object.__setattr__(self, slot, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Quiver is immutable")

    def __reduce__(self):
        return Quiver, self.key()

    def arrow(self, aid: str) -> Arrow:
        try:
            return self._by_id[aid]
        except KeyError:
            raise ApproxcatError(f"no arrow {aid!r}") from None

    def arrows_from(self, v: int):
        return tuple(a for a in self.arrows if a.source == v)

    @property
    def is_acyclic(self) -> bool:
        if self._acyclic is None:
            object.__setattr__(self, "_acyclic", self._compute_acyclic())
        return self._acyclic

    def _compute_acyclic(self) -> bool:
        # imported here: a module-level import would cost every CLI start
        import graphlib

        preds = {v: [] for v in range(self.vertex_count)}
        for a in self.arrows:
            preds[a.target].append(a.source)
        try:
            # a loop is a cycle of length one, which graphlib refuses too
            graphlib.TopologicalSorter(preds).prepare()
        except graphlib.CycleError:
            return False
        return True

    def paths_from(self, start: int):
        """All directed paths out of start as tuples of arrow ids, including
        the empty path. Ordered by length, then lexicographically by the
        positions of the arrows used. Requires an acyclic quiver."""
        if not self.is_acyclic:
            raise ApproxcatError("paths_from needs an acyclic quiver")
        paths = [((), start)]
        frontier = [((), start)]
        while frontier:
            nxt = []
            for path, end in frontier:
                for a in self.arrows_from(end):
                    nxt.append((path + (a.id,), a.target))
            paths.extend(nxt)
            frontier = nxt
        return paths

    def __repr__(self):
        arrs = ", ".join(f"{a.id}:{a.source}->{a.target}" for a in self.arrows)
        return f"Quiver({self.vertex_count}; {arrs})"

    def key(self):
        return (self.vertex_count, self.arrows)

    def to_jsonable(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "arrows": [{"id": a.id, "source": a.source, "target": a.target} for a in self.arrows],
        }

    @staticmethod
    def from_jsonable(data: dict) -> "Quiver":
        """Read the to_jsonable form: JSON integers for the vertex count
        and the arrow ends, strings for the arrow ids."""
        arrows = [
            (_need(a, "id", str), _need(a, "source", int), _need(a, "target", int))
            for a in _need(data, "arrows", list)
        ]
        return Quiver(_need(data, "vertices", int), arrows)


# the live quivers by key(): identity, not a memo, so it keeps none alive
# and needs no bound
_QUIVERS = weakref.WeakValueDictionary()


def a2_quiver() -> Quiver:
    """The two-vertex quiver with a single arrow 0 -> 1."""
    return Quiver(2, [("a", 0, 1)])


def loop_quiver(n_loops: int = 1) -> Quiver:
    """One vertex with n loops."""
    return Quiver(1, [(f"alpha{i}", 0, 0) for i in range(1, n_loops + 1)])

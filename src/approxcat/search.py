"""Exhaustive search support over prime fields: enumeration of all
subspaces of F_p^n (canonical echelon order), arrow-stable
subrepresentation iteration, whole-representation enumeration, and the
budget guard that keeps these loops from hanging.

Subspace tables carry, besides the basis matrix, the full vector set and a
coordinate lookup for the span. Stability checks and subrepresentation
construction then run on precomputed arrow action tables instead of
repeated linear solves, which is what makes the big exhaustive sweeps
affordable.
"""

import itertools
import os
from dataclasses import dataclass

from .errors import ApproxcatError, BudgetExceededError, RationalFieldUnsupportedError
from .fields import PRIME, FieldSpec
from .matrix import Matrix
from .quiver import Quiver
from .rep import Rep, RepMorphism


@dataclass(frozen=True)
class Budget:
    max_total_dim: int = 8
    max_subspaces: int = 1_000_000


def budget_limit(text: str) -> int:
    """A budget limit given as text: a non-negative integer, else ValueError."""
    value = int(text)
    if value < 0:
        raise ValueError(f"budget limits are non-negative, got {value}")
    return value


def default_budget() -> Budget:
    """Defaults, overridable through the environment."""
    limits = {}
    for name, var in (
        ("max_total_dim", "APPROXCAT_MAX_TOTAL_DIM"),
        ("max_subspaces", "APPROXCAT_MAX_SUBSPACES"),
    ):
        text = os.environ.get(var)
        if text is not None:
            try:
                limits[name] = budget_limit(text)
            except ValueError:
                raise ApproxcatError(
                    f"{var} must be a non-negative integer, got {text!r}"
                ) from None
    return Budget(**limits)


def _require_prime(field: FieldSpec, what: str):
    if field.kind != PRIME:
        raise RationalFieldUnsupportedError(
            f"{what} enumerates subspaces and needs a finite prime field"
        )


def gaussian_binomial(n: int, k: int, p: int) -> int:
    num = 1
    den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspace_count(n: int, p: int) -> int:
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


class SubspaceEntry:
    """One subspace of F_p^dim: column basis matrix, its vectors as a set of
    tuples, and coordinates of every span vector in the basis."""

    __slots__ = ("k", "basis", "vectors", "coords", "basis_vectors")

    def __init__(self, k, basis, vectors, coords, basis_vectors):
        self.k = k
        self.basis = basis
        self.vectors = vectors
        self.coords = coords
        self.basis_vectors = basis_vectors


_subspace_cache: dict = {}


def subspace_table(field: FieldSpec, dim: int):
    """All subspaces of F_p^dim in canonical order: dimension ascending,
    then echelon pivot sets and free entries lexicographically."""
    _require_prime(field, "subspace_table")
    key = (field.modulus, dim)
    cached = _subspace_cache.get(key)
    if cached is not None:
        return cached
    p = field.modulus
    elems = list(range(p))
    out = []
    for k in range(dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            pivot_set = set(pivots)
            free_cells = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, dim)
                if j not in pivot_set
            ]
            for assignment in itertools.product(elems, repeat=len(free_cells)):
                rows = [[0] * dim for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, j), val in zip(free_cells, assignment):
                    rows[i][j] = val
                basis_vectors = [tuple(r) for r in rows]
                span = {}
                for coeffs in itertools.product(elems, repeat=k):
                    vec = tuple(
                        sum(c * bv[t] for c, bv in zip(coeffs, basis_vectors)) % p
                        for t in range(dim)
                    )
                    if vec not in span:
                        span[vec] = coeffs
                basis = (
                    Matrix.from_rows(field, rows).transpose()
                    if k
                    else Matrix(field, dim, 0)
                )
                out.append(SubspaceEntry(k, basis, frozenset(span), span, basis_vectors))
    _subspace_cache[key] = out
    return out


def _compositions(total: int, caps):
    """All tuples 0 <= v[i] <= caps[i] with sum(v) == total, lexicographic."""
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


class SubrepSearch:
    """Enumerates the arrow-stable subrepresentations of one representation
    over a prime field, cheapest (smallest total dimension) first.

    The stable subspace tuples and the built subrepresentations come in the
    same canonical order, so callers may run a cheap decision pass over
    tuples and rebuild only the chosen one.
    """

    def __init__(self, rep: Rep, budget: Budget):
        _require_prime(rep.field, "subrepresentation enumeration")
        if rep.total_dim > budget.max_total_dim:
            raise BudgetExceededError(
                f"total dimension {rep.total_dim} exceeds the budget {budget.max_total_dim}"
            )
        p = rep.field.modulus
        count = 1
        for d in rep.dims:
            count *= subspace_count(d, p)
        if count > budget.max_subspaces:
            raise BudgetExceededError(
                f"{count} candidate subspace tuples exceed the budget {budget.max_subspaces}"
            )
        self.rep = rep
        q = rep.quiver
        self.tables = [subspace_table(rep.field, rep.dims[x]) for x in range(q.vertex_count)]
        self.act = self._act_tables(rep)
        self.by_k = []
        for x in range(q.vertex_count):
            groups: dict = {}
            for e in self.tables[x]:
                groups.setdefault(e.k, []).append(e)
            self.by_k.append(groups)

    @staticmethod
    def _act_tables(rep: Rep):
        p = rep.field.modulus
        tables = {}
        for a in rep.quiver.arrows:
            ds, dt = rep.dims[a.source], rep.dims[a.target]
            m = rep.map(a.id)
            cols = [tuple(m.entry(i, j) for i in range(dt)) for j in range(ds)]
            table = {}
            for vec in itertools.product(range(p), repeat=ds):
                table[vec] = tuple(
                    sum(c * col[i] for c, col in zip(vec, cols)) % p for i in range(dt)
                )
            tables[a.id] = table
        return tables

    def _stable(self, combo) -> bool:
        for a in self.rep.quiver.arrows:
            target_vectors = combo[a.target].vectors
            table = self.act[a.id]
            for bv in combo[a.source].basis_vectors:
                if table[bv] not in target_vectors:
                    return False
        return True

    def tuples(self):
        """Stable tuples of SubspaceEntry in canonical order."""
        rep = self.rep
        n = rep.quiver.vertex_count
        for total in range(rep.total_dim + 1):
            for dim_vec in _compositions(total, rep.dims):
                pools = [self.by_k[x].get(dim_vec[x]) for x in range(n)]
                if any(pool is None for pool in pools):
                    continue
                for combo in itertools.product(*pools):
                    if self._stable(combo):
                        yield combo

    def build(self, combo):
        """(sub, incl) for a stable tuple, assembled from span coordinates."""
        rep = self.rep
        F = rep.field
        dims = [e.k for e in combo]
        maps = {}
        for a in rep.quiver.arrows:
            src, tgt = combo[a.source], combo[a.target]
            table = self.act[a.id]
            cols = [tgt.coords[table[bv]] for bv in src.basis_vectors]
            entries = [cols[j][i] for i in range(tgt.k) for j in range(src.k)]
            maps[a.id] = Matrix(F, tgt.k, src.k, entries)
        sub = Rep(rep.quiver, F, dims, maps)
        incl = RepMorphism(sub, rep, [e.basis for e in combo], check=False)
        return sub, incl

    def subreps(self):
        for combo in self.tuples():
            yield self.build(combo)


def iter_subreps(rep: Rep, budget: Budget):
    """All subrepresentations of rep, smallest total dimension first."""
    return SubrepSearch(rep, budget).subreps()


def iter_matrices(field: FieldSpec, rows: int, cols: int):
    """All rows x cols matrices over a prime field, lexicographic entries."""
    _require_prime(field, "matrix enumeration")
    for entries in itertools.product(range(field.modulus), repeat=rows * cols):
        yield Matrix(field, rows, cols, entries)


def iter_all_reps(quiver: Quiver, field: FieldSpec, max_dims):
    """Every representation with dims[x] <= max_dims[x], by ascending total
    dimension then lexicographic dims and map entries."""
    _require_prime(field, "representation enumeration")
    max_dims = tuple(max_dims)
    total_cap = sum(max_dims)
    for total in range(total_cap + 1):
        for dims in _compositions(total, max_dims):
            arrow_shapes = [(a.id, dims[a.target], dims[a.source]) for a in quiver.arrows]
            pools = [list(iter_matrices(field, r, c)) for (_, r, c) in arrow_shapes]
            for maps_combo in itertools.product(*pools):
                maps = {aid: m for (aid, _, _), m in zip(arrow_shapes, maps_combo)}
                yield Rep(quiver, field, dims, maps)

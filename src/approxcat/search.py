"""Exhaustive search support over prime fields: enumeration of all
subspaces of F_p^n (canonical echelon order), arrow-stable
subrepresentation iteration, whole-representation enumeration, and the
budget guard that keeps these loops from hanging.

Subspace tables carry, besides the basis matrix, a coordinate lookup for
every vector of the span. Stability checks and subrepresentation
construction then run on precomputed arrow action tables instead of
repeated linear solves, which is what makes the big exhaustive sweeps
affordable. The tables are kept in a bounded lru_cache (subspace_table),
shared by every search over the same field and dimension.
"""

import itertools
import os
from functools import lru_cache

from .errors import ApproxcatError, BudgetExceededError, RationalFieldUnsupportedError
from .fields import PRIME, FieldSpec
from .matrix import Matrix
from .quiver import Quiver
from .rep import FrozenValue, Rep, RepMorphism


class Budget(FrozenValue):
    __slots__ = _fields = ("max_total_dim", "max_subspaces")

    def __init__(self, max_total_dim: int = 8, max_subspaces: int = 1_000_000):
        object.__setattr__(self, "max_total_dim", max_total_dim)
        object.__setattr__(self, "max_subspaces", max_subspaces)


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
    """One subspace of F_p^dim: column basis matrix, and coordinates of
    every span vector in the basis, keyed by the vector as a tuple."""

    __slots__ = ("k", "basis", "coords", "basis_vectors")

    def __init__(self, k, basis, coords, basis_vectors):
        self.k = k
        self.basis = basis
        self.coords = coords
        self.basis_vectors = basis_vectors


@lru_cache(maxsize=32)
def subspace_table(field: FieldSpec, dim: int):
    """All subspaces of F_p^dim in canonical order: dimension ascending,
    then echelon pivot sets and free entries lexicographically. Kept in a
    bounded lru_cache and shared by every search, so callers must not
    change the list."""
    _require_prime(field, "subspace_table")
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
                out.append(SubspaceEntry(k, basis, span, basis_vectors))
    return out


def _dim_vectors(caps):
    """All tuples 0 <= v[i] <= caps[i], by sum, then lexicographic."""
    return sorted(itertools.product(*(range(c + 1) for c in caps)), key=sum)


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
        """(arrow, table) for each arrow with a nonzero map, the table
        sending every source vector to its image. A zero map keeps every
        tuple stable and induces a zero map, which Rep fills in."""
        p = rep.field.modulus
        tables = []
        for a in rep.quiver.arrows:
            ds, dt = rep.dims[a.source], rep.dims[a.target]
            m = rep.map(a.id)
            if m.is_zero():
                continue
            cols = list(zip(*m.to_lists()))  # column j of the dt x ds map
            table = {}
            for vec in itertools.product(range(p), repeat=ds):
                table[vec] = tuple(
                    sum(c * col[i] for c, col in zip(vec, cols)) % p for i in range(dt)
                )
            tables.append((a, table))
        return tables

    def _stable(self, combo) -> bool:
        for a, table in self.act:
            target_coords = combo[a.target].coords
            for bv in combo[a.source].basis_vectors:
                if table[bv] not in target_coords:
                    return False
        return True

    def tuples(self):
        """Stable tuples of SubspaceEntry in canonical order."""
        rep = self.rep
        n = rep.quiver.vertex_count
        for dim_vec in _dim_vectors(rep.dims):
            pools = [self.by_k[x][dim_vec[x]] for x in range(n)]
            for combo in itertools.product(*pools):
                if self._stable(combo):
                    yield combo

    def build(self, combo):
        """(sub, incl) for a stable tuple, assembled from span coordinates."""
        rep = self.rep
        F = rep.field
        dims = [e.k for e in combo]
        maps = {}
        for a, table in self.act:
            src, tgt = combo[a.source], combo[a.target]
            cols = [tgt.coords[table[bv]] for bv in src.basis_vectors]
            entries = [cols[j][i] for i in range(tgt.k) for j in range(src.k)]
            maps[a.id] = Matrix(F, tgt.k, src.k, entries)
        sub = Rep(rep.quiver, F, dims, maps)
        incl = RepMorphism._make(sub, rep, [e.basis for e in combo])
        return sub, incl


def iter_subreps(rep: Rep, budget: Budget):
    """All subrepresentations of rep, smallest total dimension first."""
    search = SubrepSearch(rep, budget)
    return (search.build(combo) for combo in search.tuples())


def iter_matrices(field: FieldSpec, rows: int, cols: int):
    """All rows x cols matrices over a prime field, lexicographic entries
    (each in range(p), so already canonical)."""
    _require_prime(field, "matrix enumeration")
    for entries in itertools.product(range(field.modulus), repeat=rows * cols):
        yield Matrix._trusted(field, rows, cols, entries)


def iter_all_reps(quiver: Quiver, field: FieldSpec, max_dims):
    """Every representation with dims[x] <= max_dims[x], by ascending total
    dimension then lexicographic dims and map entries."""
    _require_prime(field, "representation enumeration")
    ids = [a.id for a in quiver.arrows]
    for dims in _dim_vectors(max_dims):
        shapes = [(dims[a.target], dims[a.source]) for a in quiver.arrows]
        # the first arrow varies slowest, so its matrices are made one at a
        # time; only the later arrows, which product re-reads, keep a pool
        heads = iter_matrices(field, *shapes[0]) if shapes else [None]
        pools = [tuple(iter_matrices(field, r, c)) for r, c in shapes[1:]]
        for head in heads:
            for tail in itertools.product(*pools):
                yield Rep(quiver, field, dims, dict(zip(ids, (head, *tail))))

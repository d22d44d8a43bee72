"""Finite-dimensional quiver representations over an exact field, morphisms,
and the homological toolbox: Hom and Ext^1 bases, kernels, cokernels, images,
direct sums, pushouts, short exact sequences, extensions from cocycles, and
projective covers for acyclic quivers.

Ext^1 is computed from the two-term complex

    0 -> Hom(V, W) -> sum_x Hom(V_x, W_x) --d--> sum_a Hom(V_s(a), W_t(a)) -> Ext^1(V, W) -> 0

which is exact because path algebras of quivers are hereditary. The matrix of
d is the same naturality system whose kernel is Hom, so both invariants come
from one elimination.
"""

import itertools
import random
from bisect import bisect_right
from functools import lru_cache
from operator import mul

from .errors import (
    ApproxcatError,
    FieldMismatchError,
    IsoInconclusiveError,
    NonAcyclicQuiverError,
    ShapeError,
)
from .fields import PRIME, FieldSpec
from .matrix import Matrix, block_diag, hstack, vstack
from .quiver import Quiver


class FrozenValue:
    """Base of the immutable record classes: an instance equals another of
    its own class with equal _fields, hashes over them and refuses
    assignment. Each subclass sets its slots in its own __init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class Rep:
    """A representation: a dimension per vertex and a matrix per arrow.

    The matrix for arrow a: s -> t has shape dims[t] x dims[s] and acts on
    column vectors. Missing arrows in the maps argument default to zero.
    The constructor checks its arguments; a rep the library computes from
    validated ones is built by Rep._make, which checks nothing.
    """

    __slots__ = ("quiver", "field", "dims", "maps", "_key")

    def __init__(self, quiver: Quiver, field: FieldSpec, dims, maps=None):
        dims = tuple(dims)
        if len(dims) != quiver.vertex_count:
            raise ShapeError(f"need {quiver.vertex_count} dimensions, got {len(dims)}")
        if any(type(d) is not int or d < 0 for d in dims):
            raise ShapeError(f"dimensions must be non-negative ints, got {dims!r}")
        maps = dict(maps or {})
        full = {}
        for a in quiver.arrows:
            m = maps.pop(a.id, None)
            if m is None:
                m = Matrix.zeros(field, dims[a.target], dims[a.source])
            if m.field != field:
                raise FieldMismatchError(f"map {a.id} over {m.field.label}, rep over {field.label}")
            if (m.rows, m.cols) != (dims[a.target], dims[a.source]):
                raise ShapeError(
                    f"map {a.id} is {m.rows}x{m.cols}, expected {dims[a.target]}x{dims[a.source]}"
                )
            full[a.id] = m
        if maps:
            raise ApproxcatError(f"maps for unknown arrows: {sorted(maps)}")
        _set_quiver(self, quiver)
        _set_field(self, field)
        _set_dims(self, dims)
        _set_maps(self, full)
        _set_key(self, None)

    @staticmethod
    def _make(quiver: Quiver, field: FieldSpec, dims, maps: dict) -> "Rep":
        """A rep from parts computed from validated values: maps holds a
        matrix over field for every arrow, of the shape dims gives it."""
        r = object.__new__(Rep)
        _set_quiver(r, quiver)
        _set_field(r, field)
        _set_dims(r, tuple(dims))
        _set_maps(r, maps)
        _set_key(r, None)
        return r

    def __setattr__(self, name, value):
        raise AttributeError("Rep is immutable")

    @staticmethod
    def zero(quiver: Quiver, field: FieldSpec) -> "Rep":
        return _zero_map_rep(quiver, field, [0] * quiver.vertex_count)

    @staticmethod
    def simple(quiver: Quiver, field: FieldSpec, vertex: int) -> "Rep":
        dims = [0] * quiver.vertex_count
        dims[vertex] = 1
        return Rep(quiver, field, dims)

    def map(self, aid: str) -> Matrix:
        return self.maps[aid]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero_rep(self) -> bool:
        return self.total_dim == 0

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Rep)
            and self.quiver is other.quiver
            and self.field is other.field
            and self.dims == other.dims
            and self.maps == other.maps
        )

    def __hash__(self):
        return hash(self.key())

    def key(self):
        """Hashable structural identity, usable as a memo key."""
        if self._key is None:
            k = (
                self.quiver.key(),
                self.field.label,
                self.dims,
                tuple(self.maps[a.id].key() for a in self.quiver.arrows),
            )
            _set_key(self, k)
        return self._key

    def __repr__(self):
        return f"Rep(dims={self.dims})"


def _zero_map_rep(quiver: Quiver, field: FieldSpec, dims) -> Rep:
    """The rep on dims, non-negative ints one per vertex, with every arrow
    map zero, built by Rep._make."""
    maps = {a.id: Matrix.zeros(field, dims[a.target], dims[a.source]) for a in quiver.arrows}
    return Rep._make(quiver, field, dims, maps)


class RepMorphism:
    """A natural family of linear maps between two representations of the
    same quiver: component(x) has shape target.dims[x] x source.dims[x] and
    target.map(a) @ f_s == f_t @ source.map(a) for every arrow a: s -> t.

    _memo holds the factorization systems built for this morphism, one
    per (side, far end) (see _factor): lists of rows in the coordinates of
    the hom space of the factored morphism's ends, and the unit rows that
    read those coordinates. It is set on first use and freed with the
    morphism. The hom kernels those systems start from depend only on the
    ends, so they are not kept here but in the bounded _hom_kernel cache,
    shared by every morphism and read by hom_basis and hom_dim too. The
    loop-and-exit stage's morphisms are shared through counterex's bounded
    memo, so a system kept on one of them lives as long as its stage;
    refute and RefutationWitness.verify keep none there. A certificate
    read shares equal reps, never morphisms, so a read morphism's systems
    go with it.

    The constructor checks shapes and fields, and naturality unless
    check=False; a morphism the library computes from validated values is
    built by RepMorphism._make, which checks nothing."""

    __slots__ = ("source", "target", "components", "_memo")

    def __init__(self, source: Rep, target: Rep, components, check: bool = True):
        if source.quiver is not target.quiver:
            raise ShapeError("morphism between representations of different quivers")
        if source.field is not target.field:
            raise FieldMismatchError("morphism between different fields")
        components = tuple(components)
        if len(components) != source.quiver.vertex_count:
            raise ShapeError("one component per vertex required")
        for x, c in enumerate(components):
            if (c.rows, c.cols) != (target.dims[x], source.dims[x]):
                raise ShapeError(
                    f"component {x} is {c.rows}x{c.cols}, "
                    f"expected {target.dims[x]}x{source.dims[x]}"
                )
            if c.field is not source.field:
                raise FieldMismatchError("component over wrong field")
        _set_source(self, source)
        _set_target(self, target)
        _set_components(self, components)
        _set_memo(self, None)
        if check and not self.is_natural():
            raise ShapeError("components are not natural (do not commute with arrow maps)")

    @staticmethod
    def _make(source: Rep, target: Rep, components) -> "RepMorphism":
        """A morphism from natural components of the right shapes over the
        ends' field, computed from validated values."""
        f = object.__new__(RepMorphism)
        _set_source(f, source)
        _set_target(f, target)
        _set_components(f, tuple(components))
        _set_memo(f, None)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("RepMorphism is immutable")

    def is_natural(self) -> bool:
        """Whether the components commute with every arrow map. The
        constructor has checked the shapes, so this is the only property a
        morphism built with check=False can lack."""
        for a in self.source.quiver.arrows:
            lhs = self.target.map(a.id) @ self.components[a.source]
            rhs = self.components[a.target] @ self.source.map(a.id)
            if lhs != rhs:
                return False
        return True

    def component(self, x: int) -> Matrix:
        return self.components[x]

    @staticmethod
    def identity(rep: Rep) -> "RepMorphism":
        return RepMorphism._make(rep, rep, [Matrix.identity(rep.field, d) for d in rep.dims])

    @staticmethod
    def zero(source: Rep, target: Rep) -> "RepMorphism":
        comps = [Matrix.zeros(source.field, t, s) for t, s in zip(target.dims, source.dims)]
        return RepMorphism._make(source, target, comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def is_injective(self) -> bool:
        return all(c.rank() == c.cols for c in self.components)

    def is_surjective(self) -> bool:
        return all(c.rank() == c.rows for c in self.components)

    def is_iso(self) -> bool:
        return all(c.is_invertible() for c in self.components)

    def inverse(self) -> "RepMorphism":
        if not self.is_iso():
            raise ApproxcatError("not invertible")
        comps = [c.solve(Matrix.identity(c.field, c.rows)) for c in self.components]
        return RepMorphism(self.target, self.source, comps)

    def __eq__(self, other):
        return (
            isinstance(other, RepMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.source.key(), self.target.key(), self.components))

    def __repr__(self):
        return f"RepMorphism({self.source.dims} -> {self.target.dims})"

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ShapeError("morphism sum needs equal ends")
        comps = [a + b for a, b in zip(self.components, other.components)]
        return RepMorphism._make(self.source, self.target, comps)

    def scale(self, c) -> "RepMorphism":
        return RepMorphism._make(self.source, self.target, [m.scale(c) for m in self.components])


def compose(g: RepMorphism, f: RepMorphism) -> RepMorphism:
    """g after f."""
    if f.target != g.source:
        raise ShapeError("composition mismatch")
    comps = [gc @ fc for gc, fc in zip(g.components, f.components)]
    return RepMorphism._make(f.source, g.target, comps)


_set_quiver, _set_field, _set_dims, _set_maps, _set_key = (
    getattr(Rep, slot).__set__ for slot in Rep.__slots__)
_set_source, _set_target, _set_components, _set_memo = (
    getattr(RepMorphism, slot).__set__ for slot in RepMorphism.__slots__)


class ShortExactSeq:
    """A pair (i: X -> Z, p: Z -> Y) intended to be short exact. The
    constructor only checks composability; exactness is the job of
    ses_verify, which certificate code always calls."""

    __slots__ = ("i", "p")

    def __init__(self, i: RepMorphism, p: RepMorphism):
        if i.target != p.source:
            raise ShapeError("middle terms disagree")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("ShortExactSeq is immutable")

    @property
    def sub(self) -> Rep:
        return self.i.source

    @property
    def mid(self) -> Rep:
        return self.i.target

    @property
    def quot(self) -> Rep:
        return self.p.target

    def __eq__(self, other):
        return isinstance(other, ShortExactSeq) and self.i == other.i and self.p == other.p

    def __hash__(self):
        return hash((self.i, self.p))

    def __repr__(self):
        return f"SES({self.sub.dims} -> {self.mid.dims} -> {self.quot.dims})"


class Filtration:
    """A chain 0 = M_0 -> M_1 -> ... -> M_r of injective morphisms, stored
    as the steps M_j -> M_j+1. Factor j is coker(step j) = M_j+1 / M_j;
    each step's cokernel is computed on first use and kept here."""

    __slots__ = ("steps", "_cokernels")

    def __init__(self, steps):
        steps = tuple(steps)
        if not steps:
            raise ShapeError("filtration needs at least one step")
        if not steps[0].source.is_zero_rep():
            raise ShapeError("filtration must start at the zero representation")
        for j, s in enumerate(steps):
            if not s.is_injective():
                raise ShapeError(f"filtration step {j} is not injective")
            if j and steps[j - 1].target != s.source:
                raise ShapeError(f"filtration steps {j - 1} and {j} do not chain")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_cokernels", [None] * len(steps))

    def __setattr__(self, name, value):
        raise AttributeError("Filtration is immutable")

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def terms(self):
        return (self.steps[0].source,) + tuple(s.target for s in self.steps)

    @property
    def top(self) -> Rep:
        return self.steps[-1].target

    def step_cokernel(self, j: int):
        """(factor j, projection M_j+1 -> factor j): cokernel(step j)."""
        got = self._cokernels[j]
        if got is None:
            got = self._cokernels[j] = cokernel(self.steps[j])
        return got

    def factor(self, j: int) -> Rep:
        return self.step_cokernel(j)[0]

    def factors(self):
        return [self.factor(j) for j in range(self.depth)]


# Hom and Ext via the naturality system


def _hom_offsets(v: Rep, w: Rep):
    offs = []
    n = 0
    for x in range(v.quiver.vertex_count):
        offs.append(n)
        n += w.dims[x] * v.dims[x]
    return offs, n


def _hom_system(v: Rep, w: Rep) -> Matrix:
    """Matrix of f |-> (f_t v_a - w_a f_s)_a on the vertexwise hom spaces,
    components vectorized row-major, arrows in quiver order."""
    if v.quiver != w.quiver or v.field != w.field:
        raise FieldMismatchError("hom system needs a common quiver and field")
    F = v.field
    offs, n = _hom_offsets(v, w)
    out = []
    for a in v.quiver.arrows:
        s, t = a.source, a.target
        va, wa = v.map(a.id).flat(), w.map(a.id).flat()
        vs, vt, ws = v.dims[s], v.dims[t], w.dims[s]
        for i in range(w.dims[t]):
            for j in range(vs):
                row = [F.zero] * n
                for k in range(vt):
                    row[offs[t] + i * vt + k] += va[k * vs + j]
                for k in range(ws):
                    row[offs[s] + k * vs + j] -= wa[i * ws + k]
                out.extend(row)
    p = F.modulus
    rows = _ext_row_layout(v, w)[1]
    return Matrix._trusted(F, rows, n, [x % p for x in out] if p else out)


def _unpack_hom_vector(v: Rep, w: Rep, col) -> RepMorphism:
    """The morphism whose vectorized components are the sequence col."""
    F, comps, o = v.field, [], 0
    for r, c in zip(w.dims, v.dims):
        comps.append(Matrix._trusted(F, r, c, col[o : o + r * c]))
        o += r * c
    return RepMorphism._make(v, w, comps)


@lru_cache(maxsize=256)
def _hom_kernel(v: Rep, w: Rep) -> Matrix:
    """The kernel basis of the hom system of (v, w), whose columns are the
    vectorized hom_basis(v, w). hom_basis, hom_dim and _factor_system all
    read it here, since they meet the same few hom spaces many times (every
    candidate of one member in refute and RefutationWitness.verify, every z
    of a factorization); ext1_* build their own system, whose rref they
    need and not its kernel."""
    return _hom_system(v, w).kernel_basis()


def hom_basis(v: Rep, w: Rep):
    """Deterministic basis of Hom(v, w) as a list of morphisms."""
    ker = _hom_kernel(v, w)
    e = ker.flat()
    return [_unpack_hom_vector(v, w, e[j :: ker.cols]) for j in range(ker.cols)]


def hom_dim(v: Rep, w: Rep) -> int:
    return _hom_kernel(v, w).cols


def _ext_row_layout(v: Rep, w: Rep):
    """Offsets of the per-arrow blocks inside the cocycle coordinate space."""
    offs = {}
    n = 0
    for a in v.quiver.arrows:
        offs[a.id] = n
        n += w.dims[a.target] * v.dims[a.source]
    return offs, n


def ext1_basis(v: Rep, w: Rep):
    """Basis of Ext^1(v, w) as cocycles: dicts mapping arrow ids to matrices
    g_a of shape w.dims[t] x v.dims[s].

    Representatives are the standard-basis cocycles at the coordinates not
    hit by the coboundary image (the non-pivot coordinates of the reduced
    image span), so the output is canonical.
    """
    F = v.field
    a = _hom_system(v, w)
    _, piv = a.transpose().rref()
    pivot_set = set(piv)
    offs, total = _ext_row_layout(v, w)
    out = []
    for r in range(total):
        if r in pivot_set:
            continue
        blocks = {}
        for arr in v.quiver.arrows:
            rows_, cols_ = w.dims[arr.target], v.dims[arr.source]
            base = offs[arr.id]
            entries = [F.one if base + k == r else F.zero for k in range(rows_ * cols_)]
            blocks[arr.id] = Matrix._trusted(F, rows_, cols_, entries)
        out.append(blocks)
    return out


def ext1_dim(v: Rep, w: Rep) -> int:
    a = _hom_system(v, w)
    return a.rows - a.rank()


def euler_form(v: Rep, w: Rep) -> int:
    """sum_x v_x w_x - sum_a v_s(a) w_t(a); equals dim Hom - dim Ext^1."""
    total = sum(vd * wd for vd, wd in zip(v.dims, w.dims))
    for a in v.quiver.arrows:
        total -= v.dims[a.source] * w.dims[a.target]
    return total


def _cocycle_combination(basis, coeffs):
    """The cocycle sum_j coeffs[j] * basis[j] over cocycles from ext1_basis.
    An arrow that no nonzero term reaches is left out, which
    extension_from_cocycle reads as a zero block."""
    cocycle = {}
    for c, elt in zip(coeffs, basis):
        if c != 0:
            for aid, block in elt.items():
                term = block.scale(c)
                cocycle[aid] = cocycle[aid] + term if aid in cocycle else term
    return cocycle


def _morphism_combination(basis, coeffs):
    """The morphism sum_j coeffs[j] * basis[j] over morphisms with common
    ends, or None when every coefficient is zero."""
    out = None
    for c, b in zip(coeffs, basis):
        if c != 0:
            term = b.scale(c)
            out = term if out is None else out + term
    return out


def extension_from_cocycle(v: Rep, w: Rep, cocycle) -> ShortExactSeq:
    """The extension 0 -> w -> E -> v -> 0 with E_a = [[w_a, g_a], [0, v_a]]
    in the block decomposition E_x = w_x + v_x (sub first). Arrows missing
    from the cocycle contribute a zero block."""
    if v.quiver != w.quiver or v.field != w.field:
        raise FieldMismatchError("extension needs a common quiver and field")
    F = v.field
    q = v.quiver
    dims = [w.dims[x] + v.dims[x] for x in range(q.vertex_count)]
    maps = {}
    for a in q.arrows:
        s, t = a.source, a.target
        g = cocycle.get(a.id)
        if g is None:
            g = Matrix.zeros(F, w.dims[t], v.dims[s])
        if (g.rows, g.cols) != (w.dims[t], v.dims[s]):
            raise ShapeError(f"cocycle block {a.id} has shape {g.rows}x{g.cols}")
        top = hstack([w.map(a.id), g])
        bot = hstack([Matrix.zeros(F, v.dims[t], w.dims[s]), v.map(a.id)])
        maps[a.id] = vstack([top, bot])
    mid = Rep._make(q, F, dims, maps)
    i_comps = [
        vstack([Matrix.identity(F, w.dims[x]), Matrix.zeros(F, v.dims[x], w.dims[x])])
        for x in range(q.vertex_count)
    ]
    p_comps = [
        hstack([Matrix.zeros(F, v.dims[x], w.dims[x]), Matrix.identity(F, v.dims[x])])
        for x in range(q.vertex_count)
    ]
    return ShortExactSeq(RepMorphism._make(w, mid, i_comps), RepMorphism._make(mid, v, p_comps))


# kernels, cokernels, images, sums


def kernel(f: RepMorphism):
    """(K, incl) with incl: K -> source the kernel of f."""
    return subrep_from_bases(f.source, [c.kernel_basis() for c in f.components])


def cokernel(f: RepMorphism):
    """(C, proj) with proj: target -> C the cokernel of f. The projection
    rows are the canonical left-kernel basis of each component, so equal
    inputs give literally equal cokernels. Those rows are the identity on
    the free columns of the transposed component, so the map induced on an
    arrow a: s -> t is proj_t @ w_a read at the free columns of vertex s."""
    w = f.target
    q, F = w.quiver, w.field
    comps_t = [c.transpose() for c in f.components]
    projs = [t.kernel_basis().transpose() for t in comps_t]
    free = [sorted(set(range(t.cols)).difference(t.rref()[1])) for t in comps_t]
    maps = {a.id: (projs[a.target] @ w.map(a.id)).take_cols(free[a.source]) for a in q.arrows}
    c = Rep._make(q, F, [p.rows for p in projs], maps)
    proj = RepMorphism._make(w, c, projs)
    if not proj.is_natural():
        raise ApproxcatError("cokernel maps are not induced; naturality broken")
    return c, proj


def image(f: RepMorphism):
    """(I, incl, proj): the image of f with incl: I -> target injective and
    proj: source -> I surjective, f == incl after proj."""
    im, incl = subrep_from_bases(f.target, [c.image_basis() for c in f.components])
    projs = [b.solve(c) for b, c in zip(incl.components, f.components)]
    return im, incl, RepMorphism._make(f.source, im, projs)


def direct_sum_rep(reps, quiver: Quiver | None = None, field: FieldSpec | None = None) -> Rep:
    """The direct sum S of reps alone, with block-diagonal arrow maps, for
    callers that read no injection or projection. An empty list needs
    explicit quiver and field and yields the zero representation."""
    reps = list(reps)
    if not reps:
        if quiver is None or field is None:
            raise ShapeError("empty direct sum needs quiver and field")
        return Rep.zero(quiver, field)
    q, F = reps[0].quiver, reps[0].field
    for r in reps[1:]:
        if r.quiver != q or r.field != F:
            raise FieldMismatchError("direct sum needs a common quiver and field")
    dims = [sum(r.dims[x] for r in reps) for x in range(q.vertex_count)]
    maps = {a.id: block_diag(F, [r.map(a.id) for r in reps]) for a in q.arrows}
    return Rep._make(q, F, dims, maps)


def direct_sum(reps, quiver: Quiver | None = None, field: FieldSpec | None = None):
    """(S, injections, projections): direct_sum_rep(reps) with one
    injection and one projection per summand."""
    reps = list(reps)
    s = direct_sum_rep(reps, quiver, field)
    q, F, dims = s.quiver, s.field, s.dims
    injections, projections = [], []
    offsets = [0] * q.vertex_count
    for r in reps:
        inj_comps, proj_comps = [], []
        for n, d, off in zip(dims, r.dims, offsets):
            inj = [F.zero] * (n * d)
            proj = [F.zero] * (d * n)
            for j in range(d):
                inj[(off + j) * d + j] = F.one
                proj[j * n + off + j] = F.one
            inj_comps.append(Matrix._trusted(F, n, d, inj))
            proj_comps.append(Matrix._trusted(F, d, n, proj))
        offsets = [off + d for off, d in zip(offsets, r.dims)]
        injections.append(RepMorphism._make(r, s, inj_comps))
        projections.append(RepMorphism._make(s, r, proj_comps))
    return s, injections, projections


# exactness, splitting, pushout


def ses_verify(s: ShortExactSeq) -> bool:
    """Exactness of 0 -> sub -> mid -> quot -> 0: i injective, p surjective,
    p after i zero, and dims sub + quot = mid vertexwise (which then forces
    im(i) = ker(p))."""
    if not s.i.is_injective():
        return False
    if not s.p.is_surjective():
        return False
    if not compose(s.p, s.i).is_zero():
        return False
    for x in range(s.mid.quiver.vertex_count):
        if s.sub.dims[x] + s.quot.dims[x] != s.mid.dims[x]:
            return False
    return True


def _factor(f: RepMorphism, z: RepMorphism, side: str):
    """h with h z = f (side "left", f and z out of a common source) or with
    z h = f (side "right", into a common target); None when f does not
    factor. The linear system depends only on z and the far end w of f, so
    it is eliminated once per (side, w) and memoized on z. Each call reads
    f's coordinates f' in the hom basis of its ends off the flat entries of
    f, checks that they give f back, then applies the system's obstruction
    rows and lift rows to f'."""
    w = f.target if side == "left" else f.source
    memo = z._memo
    if memo is None:
        memo = {}
        _set_memo(z, memo)
    key = (side, w.key())
    system = memo.get(key)
    if system is None:
        system = memo[key] = _factor_system(z, w, side)
    units, others, residual, obstruction, lift = system
    F = w.field
    vec = [x for c in f.components for x in c.flat()]
    coords = [vec[u] for u in units]
    # a morphism built with check=False need not be natural: then
    # vec f != K' f' and it has no factorization
    if _apply_rows(residual, coords, F) != [vec[i] for i in others]:
        return None
    if any(_apply_rows(obstruction, coords, F)):
        return None
    src, dst = (z.target, f.target) if side == "left" else (f.source, z.source)
    return _unpack_hom_vector(src, dst, _apply_rows(lift, coords, F))


def _apply_rows(rows, vec, F: FieldSpec) -> list:
    """The entries of rows times the column vec, canonical for F: one
    `% p` per entry over F_p, nothing over Q."""
    p = F.modulus
    out = [sum(map(mul, row, vec), F.zero) for row in rows]
    return [x % p for x in out] if p else out


def _factor_system(z: RepMorphism, w: Rep, side: str):
    """The system for h z = f on the left (z h = f on the right), in the
    coordinates of Hom(m, w) (of Hom(w, m)), where f lives:
    (units, others, residual, obstruction, lift).

    The columns b_j of K, the kernel of h's ends, are the hom basis of
    Hom(z.target, w) (of Hom(w, z.source)), and column j of A is vec(b_j z)
    (vec(z b_j)), each row a combination of rows of K with z's entries as
    coefficients. Every column is natural, so A = K' A' for K' the kernel
    of f's ends and A' the rows of A at K''s unit rows (units), one per
    basis element. K' is injective, so A and A' have the same pivot
    columns and the same solution with free variables zero, and only A' is
    built. One rref of [A' | I] gives E = its right part and the pivots
    among A''s columns, rank of them. For f with f' = vec f at the units,
    f factors exactly when residual (K''s rows at the other rows) maps f'
    to vec f there and the rows of obstruction = E[rank:] kill f'; then
    the rows of lift = K[:, pivots] E[:rank] map f' to vec h, h = K s for
    the solution s of A' s = f'."""
    left = side == "left"
    src, dst = (z.target, w) if left else (w, z.source)
    f_src, f_dst = (z.source, w) if left else (w, z.target)
    F = w.field
    ker, f_ker = _hom_kernel(src, dst), _hom_kernel(f_src, f_dst)
    ke, k, kk = ker.flat(), ker.cols, f_ker.cols
    units = f_ker._unit_rows()  # a kernel basis is in unit form
    offs, f_offs = _hom_offsets(src, dst)[0], _hom_offsets(f_src, f_dst)[0]
    zflat = [zx.flat() for zx in z.components]
    out = []
    for u in units:
        # the unit row's cell (i, l) of the row-major block of f's vertex x
        x = bisect_right(f_offs, u) - 1
        i, l = divmod(u - f_offs[x], f_src.dims[x])
        ze, zc, c, o = zflat[x], z.components[x].cols, src.dims[x], offs[x]
        if left:  # entry (i, l) of b_x z_x is sum_t b_x[i, t] z_x[t, l]
            cell = [(ze[t * zc + l], o + i * c + t) for t in range(c)]
        else:  # entry (i, l) of z_x b_x is sum_t z_x[i, t] b_x[t, l]
            cell = [(ze[i * zc + t], o + t * c + l) for t in range(zc)]
        row = [F.zero] * k
        for coef, m in cell:
            if coef:
                row = [s + coef * t for s, t in zip(row, ke[m * k : m * k + k])]
        out += row
    p = F.modulus
    a = Matrix._trusted(F, kk, k, [x % p for x in out] if p else out)
    R, pivots = hstack([a, Matrix.identity(F, kk)]).rref()
    rank = sum(pc < k for pc in pivots)
    re, width = R.flat(), k + kk
    E = [re[r * width + k : (r + 1) * width] for r in range(kk)]
    lift = []
    for i in range(ker.rows):
        row = [F.zero] * kk
        for r in range(rank):
            coef = ke[i * k + pivots[r]]
            if coef:
                row = [s + coef * t for s, t in zip(row, E[r])]
        lift.append([x % p for x in row] if p else row)
    fe, unit_set = f_ker.flat(), set(units)
    others = [i for i in range(f_ker.rows) if i not in unit_set]
    residual = [fe[i * kk : (i + 1) * kk] for i in others]
    return units, others, residual, E[rank:], lift


def is_split(s: ShortExactSeq):
    """A section sigma: quot -> mid with p sigma = id, or None. Found by
    solving for coefficients over a basis of Hom(quot, mid), so sigma is a
    genuine morphism, not just a vertexwise splitting."""
    return _factor(RepMorphism.identity(s.quot), s.p, "right")


def pushout(f: RepMorphism, g: RepMorphism):
    """Pushout of A <-f- K -g-> B: returns (Z, a, b, proj) with a: A -> Z,
    b: B -> Z, a f = b g, computed as the cokernel proj: A + B -> Z of
    (f, -g): K -> A + B, so a and b are proj after the injections."""
    if f.source != g.source:
        raise ShapeError("pushout legs need a common source")
    A, B = f.target, g.target
    s, injs, _ = direct_sum([A, B])
    comps = [
        vstack([f.component(x), g.component(x).scale(-1)])
        for x in range(A.quiver.vertex_count)
    ]
    h = RepMorphism._make(f.source, s, comps)
    z, proj = cokernel(h)
    return z, compose(proj, injs[0]), compose(proj, injs[1]), proj


def factor_through_cokernel(proj: RepMorphism, u: RepMorphism) -> RepMorphism:
    """Given a surjection proj: S -> Z and u: S -> T that kills ker(proj),
    the unique w: Z -> T with w proj = u."""
    comps = []
    for x in range(proj.source.quiver.vertex_count):
        sol_t = proj.component(x).transpose().solve(u.component(x).transpose())
        if sol_t is None:
            raise ApproxcatError("morphism does not kill the kernel of the projection")
        comps.append(sol_t.transpose())
    # w is natural: w_t Z_a proj_s = w_t proj_t S_a = u_t S_a = T_a u_s =
    # T_a w_s proj_s for every arrow a: s -> t, as proj and u are natural,
    # and proj_s is surjective, so w_t Z_a = T_a w_s
    return RepMorphism._make(proj.target, u.target, comps)


# projectives (acyclic quivers only)


def _path_basis(quiver: Quiver, vertex: int):
    """For each vertex x, the paths vertex -> x in paths_from order: the
    basis of the projective at vertex, evaluated at x."""
    basis = [[] for _ in range(quiver.vertex_count)]
    for p, end in quiver.paths_from(vertex):
        basis[end].append(p)
    return basis


def projective(quiver: Quiver, field: FieldSpec, vertex: int) -> Rep:
    """The projective at a vertex: basis at x is the set of paths
    vertex -> x, arrows act by appending. Needs an acyclic quiver, otherwise
    there are infinitely many paths."""
    if not quiver.is_acyclic:
        raise NonAcyclicQuiverError("projectives need an acyclic quiver")
    basis = _path_basis(quiver, vertex)
    index = [{p: i for i, p in enumerate(paths)} for paths in basis]
    dims = [len(paths) for paths in basis]
    maps = {}
    for a in quiver.arrows:
        rows, cols = dims[a.target], dims[a.source]
        e = [field.zero] * (rows * cols)
        for p in basis[a.source]:
            e[index[a.target][p + (a.id,)] * cols + index[a.source][p]] = field.one
        maps[a.id] = Matrix._trusted(field, rows, cols, e)
    return Rep._make(quiver, field, dims, maps)


def _path_eval(m: Rep, start: int, path) -> Matrix:
    """Compose arrow maps along a path out of start; the empty path gives
    the identity at start."""
    acc = Matrix.identity(m.field, m.dims[start])
    for aid in path:
        acc = m.map(aid) @ acc
    return acc


def projective_epi(m: Rep):
    """(P, pi) with P projective and pi: P -> m surjective. P is the sum
    over vertices i of projective(i)^dims m_i; pi evaluates paths on m."""
    q, F = m.quiver, m.field
    if not q.is_acyclic:
        raise NonAcyclicQuiverError("projective cover needs an acyclic quiver")
    projs = {i: projective(q, F, i) for i in range(q.vertex_count) if m.dims[i]}
    summands = [(i, b) for i in range(q.vertex_count) for b in range(m.dims[i])]
    if not summands:
        z = Rep.zero(q, F)
        return z, RepMorphism.zero(z, m)
    p = direct_sum_rep([projs[i] for i, _ in summands])
    # evals[i][j]: the paths i -> j evaluated on m, once per path
    evals = {i: [[_path_eval(m, i, pth) for pth in paths] for paths in _path_basis(q, i)]
             for i in projs}
    comps = []
    for j in range(q.vertex_count):
        cols = [e.take_cols([b]) for i, b in summands for e in evals[i][j]]
        comps.append(hstack(cols) if cols else Matrix(F, m.dims[j], 0))
    # pi is natural: on the summand of a path basis vector it is the path's
    # evaluation, and an arrow appends itself to the path on both sides
    return p, RepMorphism._make(p, m, comps)


# subrepresentations


def subrep_from_bases(rep: Rep, bases):
    """(U, incl) for an arrow-stable family of full-column-rank bases over
    rep's field, one per vertex with rep's dimension as its row count; each
    arrow map of U solves incl's naturality equation, so it is not rechecked."""
    q, F = rep.quiver, rep.field
    dims = [b.cols for b in bases]
    maps = {}
    for a in rep.quiver.arrows:
        ua = bases[a.target].solve(rep.map(a.id) @ bases[a.source])
        if ua is None:
            raise ShapeError("bases are not arrow-stable")
        maps[a.id] = ua
    u = Rep._make(q, F, dims, maps)
    return u, RepMorphism._make(u, rep, bases)


def preimage_subrep(f: RepMorphism, incl: RepMorphism):
    """(U, incl') with U = f^-1 of the subrepresentation incl: W0 -> target,
    as a subrepresentation of the source."""
    if incl.target != f.target:
        raise ShapeError("preimage needs a subrepresentation of the target")
    return kernel(compose(cokernel(incl)[1], f))


# isomorphism testing


def iso_test(v: Rep, w: Rep):
    """An isomorphism v -> w, or None when provably none exists.

    Procedure: compare dimension vectors and the ranks of the arrow maps,
    which an isomorphism preserves; try cheap candidates (structural
    equality, single basis morphisms, a fixed number of seeded random
    combinations); then decide completely, either by enumerating the finite
    hom space (prime field, at most 2^16 elements) or by evaluating the
    product of component determinants on an integer grid large enough to
    detect the zero polynomial (rationals, hom dimension at most 4). Over a
    prime field whose hom space is past that bound, unequal dimensions of
    Hom(v, w), End(v) and End(w) still prove v and w non-isomorphic. Raises
    IsoInconclusiveError when no complete method is in budget, never
    returning an unsound None.
    """
    if v.quiver != w.quiver or v.field != w.field:
        raise FieldMismatchError("iso_test needs a common quiver and field")
    if v.dims != w.dims:
        return None
    if v.total_dim == 0:
        return RepMorphism.zero(v, w)
    if v == w:
        return RepMorphism.identity(v)
    if any(v.map(a.id).rank() != w.map(a.id).rank() for a in v.quiver.arrows):
        return None
    F = v.field
    basis = hom_basis(v, w)
    h = len(basis)
    if h == 0:
        return None
    for b in basis:
        if b.is_iso():
            return b

    def coefficient_tuples():
        # 48 seeded draws first, then a complete grid: the finite hom space
        # over F_p; over the rationals a polynomial check, since det of a
        # combination has per-variable degree <= total_dim, so vanishing on
        # {0..total_dim}^h means no combination is invertible
        rng = random.Random(0xA11CE)
        lo, hi = (0, F.modulus) if F.kind == PRIME else (-3, 4)
        for _ in range(48):
            yield [rng.randrange(lo, hi) for _ in range(h)]
        if F.kind == PRIME:
            if F.modulus ** h > 2 ** 16:
                if hom_dim(v, v) != h or hom_dim(w, w) != h:
                    # no more candidates, so None: isomorphic reps have
                    # dim End(v) = dim Hom(v, w) = dim End(w)
                    return
                raise IsoInconclusiveError(
                    f"hom space of size {F.modulus}^{h} exceeds the exhaustive bound"
                )
            yield from itertools.product(range(F.modulus), repeat=h)
            return
        d = v.total_dim
        if h > 4 or (d + 1) ** h > 2 ** 16:
            raise IsoInconclusiveError(f"rational iso search infeasible for hom dimension {h}")
        yield from itertools.product(range(d + 1), repeat=h)

    for coeffs in coefficient_tuples():
        m = _morphism_combination(basis, coeffs)
        if m is not None and m.is_iso():
            return m
    return None

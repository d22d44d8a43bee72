"""Test-only oracles for the representation layer: extension classes,
the Yoneda dimension identity and arrow stability of subspace families,
each checked by a direct computation that the library does not use; for
the matrix layer, linear solving by reduction of [A | b] alone; hom
vectors unpacked block by block through Matrix._trusted; and the
factorization system built from block matrices."""

from approxcat.errors import ApproxcatError
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix, block_diag, hstack
from approxcat.quiver import Quiver
from approxcat.rep import (
    Rep,
    RepMorphism,
    ShortExactSeq,
    _ext_row_layout,
    _hom_system,
    hom_dim,
    projective,
)


def ref_solve(a: Matrix, b: Matrix):
    """Matrix.solve as it was before solutions were read by selection: the
    RREF of [A | b], None when a pivot falls in b, else b's reduced entries
    at the pivot rows and zero at every free variable."""
    R, pivots = hstack([a, b]).rref()
    if pivots and pivots[-1] >= a.cols:
        return None
    n, k, e = a.cols, b.cols, R.flat()
    out = [a.field.zero] * (n * k)
    for r, pc in enumerate(pivots):
        base = r * (n + k) + n
        out[pc * k : (pc + 1) * k] = e[base : base + k]
    return Matrix._trusted(a.field, n, k, out)


def ref_unpack_hom_vector(v: Rep, w: Rep, col) -> RepMorphism:
    """rep._unpack_hom_vector as it was before Matrix._blocks: each
    component built from its slice of col through Matrix._trusted, which
    checks the shape and, over F2, packs the entries into bit rows."""
    F, comps, o = v.field, [], 0
    for r, c in zip(w.dims, v.dims):
        comps.append(Matrix._trusted(F, r, c, col[o : o + r * c]))
        o += r * c
    return RepMorphism._make(v, w, comps)


def ref_factor_system(z: RepMorphism, w: Rep, side: str):
    """The factorization system as rep._factor_system built it in the
    ambient coordinates of f, with no hom basis of f's ends: the kernel of
    the hom system of h's ends computed afresh, and A = D K with D block
    diagonal over the vertices. On the row-major vec of an r x c block b_x,
    vec(b z)_x = diag(z_x^T, ..., z_x^T) vec b_x (r copies) and
    vec(z b)_x = (z_x kron I_c) vec b_x. One rref of [A | I_n] gives
    (lift, obstruction) as row lists over vec f, n = len(vec f)."""
    left = side == "left"
    src, dst = (z.target, w) if left else (w, z.source)
    F = w.field
    ker = _hom_system(src, dst).kernel_basis()
    k = ker.cols
    ops = []
    for zx, r, c in zip(z.components, dst.dims, src.dims):
        if left:
            ops.append(block_diag(F, [zx.transpose()] * r))
        else:
            ops.append(Matrix._trusted(F, zx.rows * c, r * c, [
                zx.flat()[i * r + t] if l == u else F.zero
                for i in range(zx.rows) for l in range(c) for t in range(r) for u in range(c)]))
    a = block_diag(F, ops) @ ker
    n = a.rows
    R, pivots = hstack([a, Matrix.identity(F, n)]).rref()
    rank = sum(pc < k for pc in pivots)
    E = R.take_cols(range(k, k + n))
    lift = ker.take_cols(pivots[:rank]) @ E.take_rows(range(rank))
    return lift.to_lists(), E.take_rows(range(rank, n)).to_lists()


def ref_factor(f: RepMorphism, z: RepMorphism, side: str):
    """factor_through (side "left") or factor_through_right ("right") read
    off ref_factor_system: None when an obstruction row does not kill
    vec f, else the morphism whose vec is lift times vec f."""
    left = side == "left"
    w = f.target if left else f.source
    src, dst = (z.target, f.target) if left else (f.source, z.source)
    F = w.field
    lift, obstruction = ref_factor_system(z, w, side)
    vec = Matrix.column(F, [x for c in f.components for x in c.flat()])
    if obstruction and not (Matrix.from_rows(F, obstruction) @ vec).is_zero():
        return None
    h = (Matrix.from_rows(F, lift) @ vec).flat() if lift else ()
    comps, o = [], 0
    for r, c in zip(dst.dims, src.dims):
        comps.append(Matrix(F, r, c, h[o : o + r * c]))
        o += r * c
    return RepMorphism(src, dst, comps)


def _vec_cocycle(v: Rep, w: Rep, blocks) -> Matrix:
    offs, total = _ext_row_layout(v, w)
    F = v.field
    entries = [F.zero] * total
    for a in v.quiver.arrows:
        m = blocks.get(a.id)
        if m is None:
            continue
        base = offs[a.id]
        entries[base : base + len(m.flat())] = m.flat()
    return Matrix._trusted(F, total, 1, entries)


def cocycles_equivalent(v: Rep, w: Rep, c1, c2) -> bool:
    """Whether two cocycles differ by a coboundary, i.e. define the same
    extension class."""
    diff = _vec_cocycle(v, w, c1) - _vec_cocycle(v, w, c2)
    return _hom_system(v, w).solve(diff) is not None


def ses_class_cocycle(s: ShortExactSeq):
    """A cocycle representing the class of a verified short exact sequence
    0 -> sub -> mid -> quot -> 0, extracted from vertexwise splittings."""
    F = s.mid.field
    q = s.mid.quiver
    sections = []
    retractions = []
    for x in range(q.vertex_count):
        px = s.p.component(x)
        ix = s.i.component(x)
        sec = px.solve(Matrix.identity(F, px.rows))
        if sec is None:
            raise ApproxcatError("not vertexwise surjective; run ses_verify first")
        ret_t = ix.transpose().solve(Matrix.identity(F, ix.cols))
        if ret_t is None:
            raise ApproxcatError("not vertexwise injective; run ses_verify first")
        sections.append(sec)
        retractions.append(ret_t.transpose())
    blocks = {}
    for a in q.arrows:
        sx, tx = a.source, a.target
        za, va = s.mid.map(a.id), s.quot.map(a.id)
        blocks[a.id] = retractions[tx] @ (za @ sections[sx] - sections[tx] @ va)
    return blocks


def yoneda_dim_check(quiver: Quiver, field: FieldSpec, vertex: int, m: Rep) -> bool:
    """dim Hom(P(vertex), m) must equal dims m[vertex]."""
    return hom_dim(projective(quiver, field, vertex), m) == m.dims[vertex]


def subrep_stable(rep: Rep, bases) -> bool:
    """Whether per-vertex column spans are closed under the arrow maps."""
    for a in rep.quiver.arrows:
        got = rep.map(a.id) @ bases[a.source]
        if bases[a.target].solve(got) is None:
            return False
    return True

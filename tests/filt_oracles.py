"""Test-only oracles for the filtration layer, each a direct computation
that the library no longer makes, and a builder of filtrations with given
factors."""

from fractions import Fraction

from hypothesis import strategies as st

from approxcat.approx import member_add
from approxcat.errors import CertificateError
from approxcat.extfilt import FiltrationCertificate, _certify, _chain_steps, _peel_candidates
from approxcat.matrix import Matrix, hstack
from approxcat.rep import (
    Filtration,
    Rep,
    RepMorphism,
    _cocycle_combination,
    cokernel,
    compose,
    ext1_basis,
    extension_from_cocycle,
    preimage_subrep,
    subrep_from_bases,
)

# small rationals, so that products of Q entries stay small
Q_POOL = [0, 0, 1, -1, 2, Fraction(1, 2)]


def ref_radical_series(m, support):
    """The radical series rad_T^k(m), T = support, built term by term until
    it reaches 0 or stops shrinking, with no nilpotency test first: R_0 is
    m's dimension vector, every later term a tuple of per-vertex bases (the
    library's shape, a tuple of tuples), and None when the series stalls at
    a nonzero term."""
    F, dims = m.field, m.dims
    if any(d for x, d in enumerate(dims) if x not in support):
        return None
    series, term, size = [], dims, sum(dims)
    while size:
        parts = [[] for _ in dims]
        for a in m.quiver.arrows:
            parts[a.target].append(m.map(a.id) @ term[a.source] if series else m.map(a.id))
        nxt = tuple(hstack(p).image_basis() if p else Matrix.zeros(F, d, 0)
                    for p, d in zip(parts, dims))
        nsize = sum(b.cols for b in nxt)
        if nsize == size:
            return None
        series.append(term)
        term, size = nxt, nsize
    return tuple(series)


def ref_peel_depth(m, handle, cap, budget, memo):
    """Minimal r <= cap with m in F_r(add handle), or None, as the peel
    search decided before one walk both decided and built: every candidate
    is tried, for the least depth, and memo holds per representation
    (deepest cap tried, minimal depth or None within that cap)."""
    if cap < 1:
        return None
    if member_add(m, handle) is not None:
        return 1
    if cap <= 1:
        return None
    got = memo.get(m)
    if got is None or (got[1] is None and got[0] < cap):
        best = None
        for incl in _peel_candidates(m, handle, budget):
            quot, _ = cokernel(incl)
            inner = ref_peel_depth(quot, handle, cap - 1 if best is None else best - 2, budget, memo)
            if inner is not None and (best is None or inner + 1 < best):
                best = inner + 1
                if best == 2:
                    break
        got = memo[m] = (cap, best)
    return got[1] if got[1] is not None and got[1] <= cap else None


def ref_member_filt(m, family, r, budget):
    """member_filt over a family that is not vertex-simple as it was built
    by decide-then-peel: the minimal depth first (ref_peel_depth), then a
    second walk that decides add membership of each quotient again and
    peels the first candidate whose quotient has a depth within the layers
    left, lifting the peels as the library does."""
    memo = {}
    if ref_peel_depth(m, family, r, budget, memo) is None:
        return None
    projs = [Matrix.identity(m.field, d) for d in m.dims]
    terms, cur = [], m
    while member_add(cur, family) is None:
        for incl in _peel_candidates(cur, family, budget):
            quot, proj = cokernel(incl)
            if ref_peel_depth(quot, family, r - 1, budget, memo) is not None:
                break
        else:
            raise CertificateError("membership decision and construction disagree")
        projs = [p @ c for p, c in zip(proj.components, projs)]
        terms.append(subrep_from_bases(m, [c.kernel_basis() for c in projs]))
        cur, r = quot, r - 1
    bottom = RepMorphism.zero(Rep.zero(m.quiver, m.field), m)
    steps = _chain_steps(bottom.source, bottom, terms) + [terms[-1][1] if terms else bottom]
    return _certify(Filtration(steps), m, family)


def ref_certify(filt, member, family):
    """The certificate of filt as it was built before factors over a family
    with zero arrow maps were read from dimensions: a cokernel of every
    step, then add membership of that factor."""
    evidence = []
    for step in filt.steps:
        ev = member_add(cokernel(step)[0], family)
        if ev is None:
            raise CertificateError("a filtration factor failed add membership")
        evidence.append(ev)
    return FiltrationCertificate(filt, member, family, tuple(evidence))


def ref_refine_layers(filt, family):
    """The layer refinement of filt_normalize as it was before layer counts
    were read off dimensions: a cokernel of every step, then add membership
    of that factor, whose multiplicities decide the layer."""
    gens = family.generators
    steps, indices, iso = [], [], None
    for j, step in enumerate(filt.steps):
        factor, q_j = filt.step_cokernel(j)
        if iso is not None:
            step = compose(step, iso)
        ev = member_add(factor, family)
        if ev is None:
            raise CertificateError("input filtration has a factor outside add of the family")
        effective = [
            i for i, c in enumerate(ev.multiplicities) if c > 0 and gens[i].total_dim > 0
        ]
        iso = None if effective else step
        if len(effective) == 1:
            steps.append(step)
            indices.append(effective[0])
        if len(effective) <= 1:
            continue
        total, _ = family.canonical_sum(ev.multiplicities)
        psi = compose(ev.iso, q_j)
        F = total.field
        cols = [0] * total.quiver.vertex_count
        mids = []
        for i in range(effective[-1]):
            cols = [k + d * ev.multiplicities[i] for k, d in zip(cols, gens[i].dims)]
            if i in effective:
                bases = [Matrix.identity(F, d).take_cols(range(k)) for d, k in zip(total.dims, cols)]
                mids.append(preimage_subrep(psi, subrep_from_bases(total, bases)[1]))
        steps.extend(_chain_steps(step.source, step, mids))
        steps.append(mids[-1][1])
        indices.extend(effective)
    if not steps:
        return Filtration([iso]), [None]
    if iso is not None:
        steps[-1] = compose(iso, steps[-1])
    return Filtration(steps), indices


@st.composite
def extension_chains(draw, layers):
    """A filtration 0 = M_0 < M_1 < ... < M_k whose factor j is layers[j]:
    M_(j+1) is the extension of layers[j] by M_j with a drawn combination of
    the ext1_basis as its cocycle, and the top is moved by a drawn change of
    basis at each vertex (the identity where the drawn matrix is singular)."""
    F = layers[0].field
    scalar = st.integers(0, F.modulus - 1) if F.modulus else st.sampled_from(Q_POOL)
    cur, steps = Rep.zero(layers[0].quiver, F), []
    for layer in layers:
        basis = ext1_basis(layer, cur)
        coeffs = draw(st.lists(scalar, min_size=len(basis), max_size=len(basis)))
        ses = extension_from_cocycle(layer, cur, _cocycle_combination(basis, coeffs))
        steps.append(ses.i)
        cur = ses.mid
    change = []
    for d in cur.dims:
        g = Matrix(F, d, d, draw(st.lists(scalar, min_size=d * d, max_size=d * d)))
        change.append(g if g.is_invertible() else Matrix.identity(F, d))
    inverse = [g.solve(Matrix.identity(F, g.rows)) for g in change]
    top = Rep(cur.quiver, F, cur.dims, {
        a.id: change[a.target] @ cur.map(a.id) @ inverse[a.source] for a in cur.quiver.arrows})
    steps[-1] = RepMorphism(steps[-1].source, top,
                            [g @ c for g, c in zip(change, steps[-1].components)])
    return Filtration(steps)

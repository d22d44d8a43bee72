"""Test-only oracles for the filtration layer, each a direct computation
that the library no longer makes."""

from approxcat.matrix import Matrix, hstack


def ref_radical_series(m, support):
    """The radical series rad_T^k(m), T = support, built term by term until
    it reaches 0 or stops shrinking, with no nilpotency test first: R_0 is
    m's dimension vector, every later term a list of per-vertex bases, and
    None when the series stalls at a nonzero term."""
    F, dims = m.field, m.dims
    if any(d for x, d in enumerate(dims) if x not in support):
        return None
    series, term, size = [], dims, sum(dims)
    while size:
        parts = [[] for _ in dims]
        for a in m.quiver.arrows:
            parts[a.target].append(m.map(a.id) @ term[a.source] if series else m.map(a.id))
        nxt = [hstack(p).image_basis() if p else Matrix.zeros(F, d, 0)
               for p, d in zip(parts, dims)]
        nsize = sum(b.cols for b in nxt)
        if nsize == size:
            return None
        series.append(term)
        term, size = nxt, nsize
    return series

"""Exhaustive check of the multiplicity enumeration behind member_add,
member_filt's feasibility test and fr_enumerate.

Every list of up to three generators on two vertices with dimension
entries 0..2, every target dimension vector up to (4, 4), bounded and
not: _multiplicities must yield exactly the vectors of a brute-force walk
over the box, in the box's lexicographic order. Zero-dimensional
generators get multiplicity 0, so the box gives them that count alone.
"""

import itertools

from approxcat.approx import _multiplicities

TOP = 4
GEN_DIMS = list(itertools.product(range(3), repeat=2))
TARGETS = list(itertools.product(range(TOP + 1), repeat=2))


def box(gens):
    """(c, sum_i c_i * gens[i]) over the box, in lexicographic order of c;
    no count above TOP fits a nonzero generator into a target <= (TOP, TOP)."""
    ranges = [range(TOP + 1) if any(g) else range(1) for g in gens]
    out = []
    for c in itertools.product(*ranges):
        total = [0, 0]
        for ci, g in zip(c, gens):
            total[0] += ci * g[0]
            total[1] += ci * g[1]
        out.append((c, tuple(total)))
    return out


def test_multiplicities_match_a_brute_force_box():
    cases = 0
    for n in range(4):
        for gens in itertools.product(GEN_DIMS, repeat=n):
            cands = box(gens)
            for d0, d1 in TARGETS:
                exact = [c for c, t in cands if t == (d0, d1)]
                below = [c for c, (t0, t1) in cands if t0 <= d0 and t1 <= d1]
                assert list(_multiplicities(gens, (d0, d1))) == exact, (gens, (d0, d1))
                assert list(_multiplicities(gens, (d0, d1), bounded=True)) == below, (gens, (d0, d1))
                cases += 2
    assert cases == 41000

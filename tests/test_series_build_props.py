"""Property tests of filtration certificates over vertex-simple families.

member_filt builds such a certificate from one radical series of m: the
quotient m/U peeled so far has Loewy length the number of series terms
R_k not inside U, and once that length reaches the remaining depth, term j
is R_j + U. The reference is the construction it replaced, kept below: peel
each quotient with its own series (rad_T^(r-1) of the quotient, or the
first candidate above its Loewy length), compose the projections, and take
the kernel of each composite. Over F2, F3 and F5, on the one- and two-loop
quivers and A2, for r = 1..5 (past the Loewy length too), both must give
the same serialized certificate, and membership must be the Loewy law.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat import extfilt
from approxcat.approx import member_add
from approxcat.errors import CertificateError
from approxcat.extfilt import FiltrationCertificate, OrderedFamily, member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix, hstack
from approxcat.quiver import a2_quiver, loop_quiver
from approxcat.rep import (
    Filtration,
    Rep,
    RepMorphism,
    cokernel,
    direct_sum,
    subrep_from_bases,
)
from approxcat.serialize import certificate_to_jsonable

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5)]
QUIVERS = [loop_quiver(1), loop_quiver(2), a2_quiver()]
SETTINGS = settings(max_examples=120, deadline=None)


def ref_radical_series(m, support):
    F = m.field
    series, term = [], [Matrix.identity(F, d) for d in m.dims]
    while any(b.cols for b in term):
        series.append(term)
        parts = [[Matrix.zeros(F, d, 0) if x in support else term[x]]
                 for x, d in enumerate(m.dims)]
        for a in m.quiver.arrows:
            parts[a.target].append(m.map(a.id) @ term[a.source])
        nxt = [hstack(p).image_basis() for p in parts]
        if sum(b.cols for b in nxt) == sum(b.cols for b in term):
            return None
        term = nxt
    return series


def ref_peel(m, support, r):
    series = ref_radical_series(m, support)
    if len(series) >= r:
        bases = series[r - 1]
    else:
        bases = [Matrix.zeros(m.field, d, 0) for d in m.dims]
        for x in sorted(support, reverse=True):
            kern = extfilt._outgoing_kernel(m, x)
            if kern.cols:
                bases[x] = kern.take_cols([0])
                break
    sub = Rep(m.quiver, m.field, [b.cols for b in bases])
    return cokernel(RepMorphism(sub, m, bases, check=False))[1]


def ref_build(m, family, r):
    """The certificate as built before the series was shared: one series
    per peeled quotient, terms from composite projections."""
    support = family.kind()[1]
    projs = [Matrix.identity(m.field, d) for d in m.dims]
    terms = []
    cur = m
    while member_add(cur, family) is None:
        proj = ref_peel(cur, support, r)
        projs = [p @ c for p, c in zip(proj.components, projs)]
        terms.append(subrep_from_bases(m, [c.kernel_basis() for c in projs]))
        cur, r = proj.target, r - 1
    terms.append((m, RepMorphism.identity(m)))
    zero = Rep.zero(m.quiver, m.field)
    filt = Filtration(extfilt._chain_steps(zero, RepMorphism.zero(zero, m), terms))
    evidence = []
    for j in range(filt.depth):
        ev = member_add(filt.factor(j), family)
        if ev is None:
            raise CertificateError("a filtration factor failed add membership")
        evidence.append(ev)
    return FiltrationCertificate(filt, m, family, tuple(evidence))


def vertex_simple_families(q, F):
    simples = [Rep.simple(q, F, x) for x in range(q.vertex_count)]
    doubled = direct_sum([simples[0], simples[0]])[0]
    families = [[], simples[:1], [simples[0], doubled], simples[::-1]]
    return [OrderedFamily(f, quiver=q, field=F) for f in families]


@st.composite
def nilpotent_reps(draw, q, F, top):
    """Strictly lower triangular loops, arbitrary maps between vertices."""
    dims = [draw(st.integers(0, top)) for _ in range(q.vertex_count)]
    maps = {}
    for a in q.arrows:
        rows, cols = dims[a.target], dims[a.source]
        entries = draw(st.lists(st.integers(0, F.modulus - 1),
                                min_size=rows * cols, max_size=rows * cols))
        if a.source == a.target:
            entries = [e if k // cols > k % cols else 0 for k, e in enumerate(entries)]
        maps[a.id] = Matrix(F, rows, cols, entries)
    return Rep(q, F, dims, maps)


@st.composite
def cases(draw):
    """A direct sum of one to three small nilpotent representations, in
    any order, moved by a change of basis when the drawn one is invertible;
    the summands make r past the Loewy length peel first candidates that
    leave a quotient of full length."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    top = 3 if F.modulus == 2 else 2
    parts = [draw(nilpotent_reps(q, F, top)) for _ in range(draw(st.integers(1, 3)))]
    m = direct_sum(parts)[0]
    change = []
    for d in m.dims:
        g = Matrix(F, d, d, draw(st.lists(st.integers(0, F.modulus - 1),
                                          min_size=d * d, max_size=d * d)))
        change.append(g if g.is_invertible() else Matrix.identity(F, d))
    inverse = [g.solve(Matrix.identity(F, g.rows)) for g in change]
    maps = {a.id: change[a.target] @ m.map(a.id) @ inverse[a.source] for a in q.arrows}
    m = Rep(q, F, m.dims, maps)
    family = draw(st.sampled_from(vertex_simple_families(q, F)))
    return m, family


def dump(cert):
    return None if cert is None else json.dumps(certificate_to_jsonable(cert), sort_keys=True)


@SETTINGS
@given(cases())
def test_one_series_certificates_equal_the_per_quotient_build(case):
    m, family = case
    support = family.kind()[1]
    assert support is not None
    series = ref_radical_series(m, support)
    for r in range(1, 6):
        cert = member_filt(m, family, r)
        assert (cert is not None) == (series is not None and len(series) <= r)
        if cert is not None:
            assert dump(cert) == dump(ref_build(m, family, r))
            assert cert.verify()


def test_full_length_quotient_after_a_first_candidate_peel():
    # S + J2 on the loop over F3 at r = 3: the first peel takes the S
    # summand, and the quotient J2 has Loewy length 2, so the next term is
    # rad(m) + U, not rad(m) alone
    F = FieldSpec.prime(3)
    q = loop_quiver(1)
    s = Rep.simple(q, F, 0)
    j2 = Rep(q, F, [2], {"alpha1": Matrix(F, 2, 2, [0, 0, 1, 0])})
    m = direct_sum([s, j2])[0]
    family = OrderedFamily([s])
    cert = member_filt(m, family, 3)
    assert [t.dims for t in cert.filtration.terms] == [(0,), (1,), (2,), (3,)]
    assert dump(cert) == dump(ref_build(m, family, 3))

"""What a handle keeps, what verify_evidence may skip, and what a
certificate remembers.

- A handle's canonical sums and zero-map evidence are kept in two
  bounded caches of 256 entries keyed by (handle, vector), and nothing of
  them is part of the handle's ==, hash or repr. member_add and
  certificate construction read the zero-map evidence by dims through one
  method, and dims that no multiplicity vector gives still make a
  certificate refuse.
- ext1_dim is read as hom_dim - euler_form through the hom kernel cache:
  over F2, F3, F5 and Q, on A2, the Kronecker and the one-loop quiver, it
  equals rows - rank of the hom system and the length of ext1_basis.
- verify_evidence answers an identity iso between equal ends without the
  full check. The reference is that full check: the structural tests,
  then is_natural() and is_iso(). Both must agree on constructed evidence
  (identity, or a change of basis onto the canonical sum) and on the same
  evidence with one entry tampered, and on identity components between
  unequal ends, which must be refused.
- FiltrationCertificate.verify records its answer on the object. The
  record is never serialized: a certificate from member_filt or
  filt_normalize re-serializes byte-identically, its JSON read starts
  with no record, and a one-entry tamper of a step component or an
  evidence iso in that JSON is judged afresh even after the original was
  verified. A one-entry change can leave a valid certificate (an
  off-diagonal entry of an identity iso between zero-map reps gives
  another iso), so every tamper must agree with a from-scratch
  reference, and the tampers that provably break a certificate (a unit
  column of a step emptied, so the step is not injective; a diagonal
  entry of an identity iso zeroed, so it is singular) must verify False.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.approx import (
    AddCategory,
    AddEvidence,
    _canonical_sum,
    member_add,
    verify_evidence,
)
from approxcat.errors import ApproxcatError, CertificateError
from approxcat.extfilt import FiltrationCertificate, _certify, filt_normalize, member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import (
    Filtration,
    Rep,
    RepMorphism,
    _hom_system,
    cokernel,
    direct_sum_rep,
    ext1_basis,
    ext1_dim,
)
from approxcat.serialize import (
    certificate_from_jsonable,
    certificate_to_jsonable,
    verify_certificate,
)

Q = FieldSpec.rationals()
FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), Q]
A2 = a2_quiver()
QUIVERS = [A2, Quiver(2, [("a", 0, 1), ("b", 0, 1)]), loop_quiver(1)]
SETTINGS = settings(max_examples=120, deadline=None)


def _pool(F):
    return [0, 1, -1, 2, Fraction(1, 2)] if F.kind == "rationals" else list(range(F.modulus))


def _matrix(draw, F, rows, cols):
    entries = draw(st.lists(st.sampled_from(_pool(F)), min_size=rows * cols,
                            max_size=rows * cols))
    return Matrix(F, rows, cols, entries)


def _rep(draw, q, F, dims, zero=False):
    maps = {} if zero else {
        a.id: _matrix(draw, F, dims[a.target], dims[a.source]) for a in q.arrows}
    return Rep(q, F, dims, maps)


def _invertible(draw, F, n):
    """L U with L unit lower triangular and U upper triangular with a
    nonzero diagonal: always invertible."""
    pool, nonzero = _pool(F), [x for x in _pool(F) if x]
    low = [draw(st.sampled_from(pool)) if i > j else int(i == j)
           for i in range(n) for j in range(n)]
    up = [draw(st.sampled_from(nonzero if i == j else pool)) if i <= j else 0
          for i in range(n) for j in range(n)]
    return Matrix(F, n, n, low) @ Matrix(F, n, n, up)


def _bump(F, x):
    """x + 1 in F."""
    return F.coerce(x + 1)


# the handle's caches


def test_canonical_sum_is_built_once_and_memo_is_bounded():
    F = FieldSpec.prime(3)
    gens = [Rep.simple(A2, F, 1), Rep.simple(A2, F, 0)]
    handle = AddCategory(gens)
    first = handle.canonical_sum((2, 1))
    assert handle.canonical_sum([2, 1]) is first
    assert first[0] == direct_sum_rep([gens[0], gens[0], gens[1]])
    assert first[1] == (0, 0, 1)
    with pytest.raises(ApproxcatError):
        handle.canonical_sum((1,))
    for c in range(300):
        handle.canonical_sum((c % 20, c // 20))
        assert _canonical_sum.cache_info().currsize <= 256
    # the cache is no part of the handle's value
    fresh = AddCategory(gens)
    assert handle == fresh and hash(handle) == hash(fresh) and repr(handle) == repr(fresh)


def test_zero_map_evidence_is_shared_per_dims():
    F = FieldSpec.prime(2)
    handle = AddCategory([Rep.simple(A2, F, 1), Rep.simple(A2, F, 0)])
    m, n = Rep(A2, F, [2, 1]), Rep(A2, F, [2, 1])
    ev = member_add(m, handle)
    assert ev is member_add(n, handle)
    assert ev.member == m and ev.multiplicities == (1, 2)
    assert ev.iso.target == handle.canonical_sum((1, 2))[0]
    assert verify_evidence(ev, m, handle)
    assert member_add(Rep(A2, F, [1, 1], {"a": Matrix(F, 1, 1, [1])}), handle) is None
    # member_add and certificate construction read one evidence by dims
    assert handle.zero_map_evidence([2, 1]) is ev
    semisimple = AddCategory([Rep(A2, F, [1, 1])])
    assert semisimple.zero_map_evidence((2, 1)) is None
    m = Rep(A2, F, [2, 1])
    with pytest.raises(CertificateError):
        _certify(Filtration([RepMorphism.zero(Rep.zero(A2, F), m)]), m, semisimple)
    with pytest.raises(ApproxcatError):
        AddCategory([Rep(A2, F, [1, 1], {"a": Matrix(F, 1, 1, [1])})]).zero_map_evidence((1, 1))


# ext1_dim read through the hom kernel


@st.composite
def rep_pairs(draw):
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    n = q.vertex_count
    return tuple(_rep(draw, q, F, [draw(st.integers(0, 3)) for _ in range(n)])
                 for _ in range(2))


@SETTINGS
@given(rep_pairs())
def test_ext1_dim_is_corank_of_the_hom_system(pair):
    v, w = pair
    a = _hom_system(v, w)
    assert ext1_dim(v, w) == a.rows - a.rank() == len(ext1_basis(v, w))


# the identity shortcut of verify_evidence


def ref_verify_add(evidence, member, handle) -> bool:
    """verify_evidence's add branch with no shortcut: the structural tests,
    then the full is_natural() and is_iso()."""
    iso, mults, gens = evidence.iso, evidence.multiplicities, handle.generators
    if iso.source != member or len(mults) != len(gens) or any(c < 0 for c in mults):
        return False
    if tuple(sum(c * g.dims[x] for c, g in zip(mults, gens))
             for x in range(len(member.dims))) != member.dims:
        return False
    summands = [g for g, c in zip(gens, mults) if g.total_dim for _ in range(c)]
    if iso.target != direct_sum_rep(summands, handle.quiver, handle.field):
        return False
    return iso.is_natural() and iso.is_iso()


def test_identity_components_between_unequal_ends_are_refused():
    F = FieldSpec.prime(3)
    handle = AddCategory([Rep.simple(A2, F, 1), Rep.simple(A2, F, 0)])
    member = Rep(A2, F, [1, 1], {"a": Matrix(F, 1, 1, [2])})
    total, _ = handle.canonical_sum((1, 1))
    assert member.dims == total.dims and member != total
    iso = RepMorphism(member, total, [Matrix.identity(F, 1)] * 2, check=False)
    evidence = AddEvidence((1, 1), iso)
    assert not ref_verify_add(evidence, member, handle)
    assert not verify_evidence(evidence, member, handle)


@st.composite
def evidence_cases(draw):
    """(evidence, member, handle): onto a canonical sum of generators that
    may act by zero or not, an identity, a change of basis, or identity
    components from another rep of the same dims; then maybe one entry of
    one component tampered."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    n, zero = q.vertex_count, draw(st.booleans())
    gens = [_rep(draw, q, F, [draw(st.integers(0, 2)) for _ in range(n)], zero)
            for _ in range(draw(st.integers(1, 2)))]
    handle = AddCategory(gens)
    mults = tuple(draw(st.integers(0, 2)) for _ in gens)
    total, _ = handle.canonical_sum(mults)
    way = draw(st.sampled_from(["identity", "basis", "other"]))
    if way == "identity":
        member, comps = total, [Matrix.identity(F, d) for d in total.dims]
    elif way == "basis":
        # member_a = g_t^-1 total_a g_s, so g: member -> total is natural
        comps = [_invertible(draw, F, d) for d in total.dims]
        inv = [g.solve(Matrix.identity(F, g.rows)) for g in comps]
        member = Rep(q, F, total.dims, {a.id: inv[a.target] @ total.map(a.id) @ comps[a.source]
                                        for a in q.arrows})
    else:
        member, comps = _rep(draw, q, F, total.dims), [Matrix.identity(F, d) for d in total.dims]
    cells = [(x, i) for x, c in enumerate(comps) for i in range(c.rows * c.cols)]
    if cells and draw(st.booleans()):
        x, i = draw(st.sampled_from(cells))
        e = list(comps[x].flat())
        e[i] = _bump(F, e[i])
        comps[x] = Matrix(F, comps[x].rows, comps[x].cols, e)
    return AddEvidence(mults, RepMorphism(member, total, comps, check=False)), member, handle


@SETTINGS
@given(evidence_cases())
def test_verify_evidence_agrees_with_the_full_check(case):
    evidence, member, handle = case
    assert verify_evidence(evidence, member, handle) == ref_verify_add(evidence, member, handle)


# the verified record of a filtration certificate


def ref_verify_certificate(data) -> bool:
    """A from-scratch verdict on a filtration certificate's JSON: every step
    natural, the chain ending at the member, every factor's evidence checked
    in full by ref_verify_add."""
    try:
        cert = certificate_from_jsonable(data)
    except ApproxcatError:
        return False
    filt = cert.filtration
    if filt.top != cert.member or len(cert.factor_assignments) != filt.depth:
        return False
    if not all(step.is_natural() for step in filt.steps):
        return False
    return all(isinstance(ev, AddEvidence) and ref_verify_add(ev, cokernel(step)[0], cert.family)
               for step, ev in zip(filt.steps, cert.factor_assignments))


def _entry_paths(data):
    """(path, kind) of every entry of every step component and evidence iso
    component, kind saying where it sits."""
    out = []
    for j, step in enumerate(data["filtration"]["steps"]):
        for x, block in enumerate(step["components"]):
            for r, row in enumerate(block):
                out += [(("filtration", "steps", j, "components", x, r, c), "step")
                        for c in range(len(row))]
    for j, ev in enumerate(data["factor_assignments"]):
        for x, block in enumerate(ev["iso"]["components"]):
            for r, row in enumerate(block):
                out += [(("factor_assignments", j, "iso", "components", x, r, c), "iso")
                        for c in range(len(row))]
    return out


def _set(data, path, value):
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _get(data, path):
    for key in path:
        data = data[key]
    return data


def _breaking(data, path, kind):
    """Whether zeroing the entry at path provably breaks the certificate:
    the only nonzero entry of a step column (the step stops being
    injective), or a diagonal 1 of an identity iso component (it becomes
    singular)."""
    block = _get(data, path[:-2])
    r, c = path[-2:]
    if kind == "step":
        return _get(data, path) != 0 and all(row[c] == 0 for i, row in enumerate(block) if i != r)
    return r == c and all(v == int(i == k) for i, row in enumerate(block) for k, v in enumerate(row))


@st.composite
def certificates(draw):
    """A member_filt certificate for a rep of A2 with family (S2, S1), or
    its normal form, or one for a rep of the one-loop quiver with family
    [S] (which has Ext1(S, S) != 0, so no normal form), over F2, F3, F5 or
    Q."""
    F = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        q, family = A2, [Rep.simple(A2, F, 1), Rep.simple(A2, F, 0)]
        dims = [draw(st.integers(0, 2)), draw(st.integers(0, 2))]
    else:
        q = loop_quiver(1)
        family, dims = [Rep.simple(q, F, 0)], [draw(st.integers(0, 3))]
    m = _rep(draw, q, F, dims)
    cert = member_filt(m, family, 4)
    if cert is None:  # a loop map that is not nilpotent
        cert = member_filt(Rep(q, F, dims), family, 4)
    return filt_normalize(cert) if q is A2 and draw(st.booleans()) else cert


@settings(max_examples=60, deadline=None)
@given(certificates())
def test_verified_record_is_in_process_only(cert):
    text = json.dumps(certificate_to_jsonable(cert), sort_keys=True)
    assert cert.verify() is True and cert._verified is True
    assert json.dumps(certificate_to_jsonable(cert), sort_keys=True) == text
    read = certificate_from_jsonable(json.loads(text))
    assert read._verified is None
    assert json.dumps(certificate_to_jsonable(read), sort_keys=True) == text
    # the record is no part of the value
    fresh = FiltrationCertificate(cert.filtration, cert.member, cert.family,
                                  cert.factor_assignments)
    assert fresh._verified is None
    assert fresh == cert and hash(fresh) == hash(cert) and repr(fresh) == repr(cert)
    data = json.loads(text)
    broken = 0
    for path, kind in _entry_paths(data):
        F = cert.member.field
        value = F.entry_to_json(_bump(F, F.coerce(_get(data, path))))
        tampered = _set(data, path, value)
        assert verify_certificate(tampered) == ref_verify_certificate(tampered)
        if _breaking(data, path, kind):
            assert verify_certificate(_set(data, path, 0)) is False
            broken += 1
    assert broken or not _entry_paths(data)

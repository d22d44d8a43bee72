"""Warm caches answer as cold ones.

Every memo of the package is a bounded functools.lru_cache keyed by
values: a result computed from several values (a factorization system, a
per-copy answer, a canonical sum, zero-map evidence, verified evidence)
is found again by any equal values, however they were built. Over F2,
F3, F5 and Q, on A2 and the one-loop quiver:

- factor_through, hom_basis and verify_evidence give the same answers
  with the caches warm as after cache_clear() of every cache of the
  package, on a general far end, a semisimple one (read one simple copy
  at a time) and a canonical sum of the handle, and on evidence that
  verifies and evidence that does not;
- a z' built separately from z, equal to it, reads z's systems and
  per-copy answers: it adds no miss to _factor_system or _copy_lift;
- two different z with the same ends each get their own answer, the one
  the block-matrix reference of rep_oracles gives;
- every rep, morphism and evidence in the JSON of a certificate of each
  kind, read by each of the three cached readers over each field and
  quiver, gives the same value (or the same refusal) warm as after
  cache_clear(), and so do the certificate and verify_certificate; a
  one-entry tamper of cached data, equal to it as a Python value but of
  another JSON type, is parsed afresh and verifies False.

Hom bases, semisimple summand splits and rep JSON forms are built once
per distinct input (rep._hom_basis, rep._simple_summands and
serialize._rep_text). Over F2, F3, F5 and Q, on A2, linear A3 and the
one-loop quiver:

- hom_basis, _simple_summands, rep_to_jsonable, morphism_to_jsonable and
  certificate_to_jsonable give the same answers warm as after
  cache_clear() of every cache of the package, and the same as a form
  written afresh by the reference below, on reps of one dimension vector
  with different maps;
- a rep built through Rep(...), through Rep._make and read from JSON
  finds the entries another of them left: no cache adds a miss;
- a caller that changes the list hom_basis returns, or any entry of a
  dict a writer returns, leaves the next call's answer unchanged.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat import approx, counterex, extfilt, matrix, rep, search, serialize
from approxcat.approx import (
    AddCategory,
    AddEvidence,
    factor_through,
    left_approx_add,
    verify_evidence,
)
from approxcat.errors import ApproxcatError
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import (
    Rep,
    RepMorphism,
    _copy_lift,
    _factor_system,
    _hom_basis,
    _simple_summands,
    hom_basis,
)
from approxcat.serialize import (
    _rep_text,
    certificate_from_jsonable,
    certificate_to_jsonable,
    config_from_jsonable,
    evidence_from_jsonable,
    morphism_from_jsonable,
    morphism_to_jsonable,
    rep_from_jsonable,
    rep_to_jsonable,
    verify_certificate,
)
from rep_oracles import ref_factor
from test_factor_props import FIELDS, combination, reps
from test_round_trip_props import A3, values
from test_semisimple_hom_props import ref_hom_basis

QUIVERS = [a2_quiver(), loop_quiver(1)]
SETTINGS = settings(max_examples=60, deadline=None)
MODULES = [approx, counterex, extfilt, matrix, rep, search, serialize]


def clear_every_cache():
    """cache_clear() on every lru_cache a module of the package defines."""
    cleared = 0
    for mod in MODULES:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__:
                obj.cache_clear()
                cleared += 1
    return cleared


def test_every_cache_is_cleared():
    # the five caches of results computed from several values, and the
    # three that build a value once per distinct input, are among them
    assert clear_every_cache() >= 19
    names = {f"{m.__name__}.{n}" for m in MODULES for n, o in vars(m).items()
             if hasattr(o, "cache_clear")}
    for name in ("rep._factor_system", "rep._copy_lift", "approx._canonical_sum",
                 "approx._zero_map_evidence", "counterex._member_verified",
                 "rep._hom_basis", "rep._simple_summands", "serialize._rep_text"):
        assert "approxcat." + name in names


def separately_built(f: RepMorphism) -> RepMorphism:
    """An equal copy of f with new components and ends."""
    def copy(r):
        return Rep(r.quiver, r.field, r.dims,
                   {a: Matrix(r.field, m.rows, m.cols, m.flat()) for a, m in r.maps.items()})
    return RepMorphism(copy(f.source), copy(f.target),
                       [Matrix(c.field, c.rows, c.cols, c.flat()) for c in f.components])


@st.composite
def cases(draw):
    """(v, handle, far ends): v a drawn rep, a handle of one or two drawn
    generators, and far ends for maps out of v: a drawn rep, a zero-map
    rep (a sum of simple copies) and a canonical sum of the handle."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    v = draw(reps(q, F))
    handle = AddCategory(draw(st.lists(reps(q, F), min_size=1, max_size=2)))
    semisimple = Rep(q, F, [draw(st.integers(0, 2)) for _ in range(q.vertex_count)])
    mults = tuple(draw(st.integers(0, 1)) for _ in handle.generators)
    ends = [draw(reps(q, F)), semisimple, handle.canonical_sum(mults)[0]]
    return v, handle, ends


def answers(v, handle, ends):
    """hom bases out of v, the factorizations of their elements through the
    left add-approximation of v, and verify_evidence on the identity of
    each far end that is a canonical sum and on its zero map."""
    cert = left_approx_add(v, handle)
    z, target = cert.morphism, cert.approximating
    out = []
    for w in ends:
        basis = hom_basis(v, w)
        out.append((basis, [factor_through(f, z) for f in basis]))
    for iso in (RepMorphism.identity(target), RepMorphism.zero(target, target)):
        out.append(verify_evidence(AddEvidence(cert.evidence.multiplicities, iso), target, handle))
    return out


@SETTINGS
@given(cases())
def test_warm_caches_answer_as_cold_ones(case):
    warm = answers(*case)
    assert answers(*case) == warm
    clear_every_cache()
    cold = answers(*case)
    assert cold == warm
    # the approximation's own identity evidence verifies; its zero map
    # verifies exactly when the target is zero
    target_zero = left_approx_add(case[0], case[1]).approximating.total_dim == 0
    assert cold[-2] is True and cold[-1] is target_zero


@SETTINGS
@given(cases())
def test_an_equal_z_reads_the_same_systems(case):
    v, handle, ends = case
    z = left_approx_add(v, handle).morphism
    maps = [f for w in ends for f in hom_basis(v, w)]
    first = [factor_through(f, z) for f in maps]
    twin = separately_built(z)
    assert twin == z and twin is not z and twin.source is not z.source
    before = _factor_system.cache_info().misses, _copy_lift.cache_info().misses
    assert [factor_through(f, twin) for f in maps] == first
    assert (_factor_system.cache_info().misses, _copy_lift.cache_info().misses) == before


@SETTINGS
@given(cases(), st.data())
def test_different_z_with_the_same_ends_answer_apart(case, data):
    v, handle, ends = case
    t = ends[0]
    basis = hom_basis(v, t)
    zs = [RepMorphism.zero(v, t), data.draw(combination(basis, v, t))]
    if basis:
        zs.append(basis[0])
    maps = [f for w in ends for f in hom_basis(v, w)] + zs
    for _ in range(2):  # the second round reads the caches
        for z in zs:
            for f in maps:
                assert factor_through(f, z) == ref_factor(f, z, "left")
    # a nonzero z factors through itself and not through the zero map
    for z in zs[1:]:
        if not z.is_zero():
            assert factor_through(z, z) is not None
            assert factor_through(z, zs[0]) is None


READERS = (rep_from_jsonable, morphism_from_jsonable, evidence_from_jsonable)
# the keys under which a certificate's JSON holds integers that the cached
# readers parse: dimensions, matrix entries and multiplicities
TYPED = ("dims", "maps", "components", "multiplicities")


def parts(node):
    """Every object in a JSON tree that one of READERS could parse: a rep,
    a morphism, a piece of evidence (or a handle, which they refuse)."""
    if isinstance(node, dict):
        if node.keys() & {"dims", "source", "kind"}:
            yield node
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from parts(child)


def int_leaves(node, typed=False, path=()):
    """The path of every int (not bool) below one of the TYPED keys."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if typed and type(node) is int:
            yield path
        return
    for key, child in items:
        yield from int_leaves(child, typed or key in TYPED, path + (key,))


def read_outcome(read, quiver, field, data):
    """What read gives for data: a value, or the class of its refusal."""
    try:
        return read(quiver, field, data)
    except ApproxcatError as exc:
        return type(exc)


@st.composite
def certificates(draw):
    """(JSON of a drawn certificate, its quiver): approximation,
    filtration and refutation certificates over F2, F3, F5 and Q, on A2,
    the one-loop quiver and their neighbours of test_round_trip_props."""
    cases = [value for value, write, _ in draw(values()) if write is certificate_to_jsonable]
    data = json.loads(json.dumps(certificate_to_jsonable(draw(st.sampled_from(cases)))))
    if "quiver" in data:
        return data, Quiver.from_jsonable(data["quiver"])
    return data, config_from_jsonable(data["config"]).quiver()


@SETTINGS
@given(certificates(), st.data())
def test_a_cached_read_answers_as_a_fresh_one(case, data):
    cert, quiver = case
    reads = [(read, q, field, part) for part in parts(cert) for read in READERS
             for q in [quiver] + [q for q in QUIVERS if q is not quiver] for field in FIELDS]
    warm_cert = certificate_from_jsonable(cert)
    assert verify_certificate(cert) is True
    warm = [read_outcome(*r) for r in reads]
    for r, answer in zip(reads, warm):
        assert read_outcome(*r) == answer
        serialize._read.cache_clear()
        assert read_outcome(*r) == answer
    clear_every_cache()
    assert certificate_from_jsonable(cert) == warm_cert
    assert verify_certificate(cert) is True
    # with the certificate cached again, one integer becomes a float or a
    # bool: equal as a Python value, refused by the typed readers
    path = data.draw(st.sampled_from(list(int_leaves(cert))))
    tampered = json.loads(json.dumps(cert))
    node = tampered
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    node[path[-1]] = data.draw(st.sampled_from([float(old)] + [bool(old)] * (old in (0, 1))))
    assert tampered == cert
    misses = serialize._read.cache_info().misses
    assert verify_certificate(tampered) is False
    assert serialize._read.cache_info().misses > misses


WRITE_QUIVERS = QUIVERS + [A3]
WRITE_CACHES = (_hom_basis, _simple_summands, _rep_text)


def ref_rep_json(r):
    """rep_to_jsonable's form of r, written afresh."""
    return {"dims": list(r.dims),
            "maps": {a.id: r.map(a.id).to_jsonable() for a in r.quiver.arrows}}


def ref_morphism_json(f):
    return {"source": ref_rep_json(f.source), "target": ref_rep_json(f.target),
            "components": [c.to_jsonable() for c in f.components]}


def ref_simple_summands(w):
    if w.total_dim < 2 or any(not m.is_zero() for m in w.maps.values()):
        return None
    return tuple(x for x, d in enumerate(w.dims) for _ in range(d))


@st.composite
def writes(draw):
    """(reps, certificate): a drawn rep v, the rep of v's dims whose arrows
    act by zero (a sum of simples, equal to v only when v's maps are zero),
    another drawn rep, and a drawn certificate of test_round_trip_props."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(WRITE_QUIVERS))
    v = draw(reps(q, F))
    cases = [value for value, write, _ in draw(values()) if write is certificate_to_jsonable]
    return [v, Rep(q, F, v.dims), draw(reps(q, F))], draw(st.sampled_from(cases))


def written(rs, cert):
    """What the three caches give for rs and cert: each rep's summand split
    and JSON form, the hom basis of each ordered pair with its morphisms'
    JSON forms, and the certificate's JSON form."""
    out = [(_simple_summands(r), rep_to_jsonable(r)) for r in rs]
    for v in rs:
        for w in rs:
            basis = hom_basis(v, w)
            out.append((basis, [morphism_to_jsonable(f) for f in basis]))
    return out + [certificate_to_jsonable(cert)]


@SETTINGS
@given(writes())
def test_warm_writes_answer_as_cold_ones(case):
    rs, cert = case
    warm = written(rs, cert)
    assert written(rs, cert) == warm
    clear_every_cache()
    assert written(rs, cert) == warm
    for r in rs:
        assert _simple_summands(r) == ref_simple_summands(r)
        assert rep_to_jsonable(r) == ref_rep_json(r)
    for v in rs:
        for w in rs:
            basis = hom_basis(v, w)
            assert basis == ref_hom_basis(v, w) and type(basis) is list
            assert all(f.source is v and f.target is w for f in basis)
            assert [morphism_to_jsonable(f) for f in basis] == [
                ref_morphism_json(f) for f in basis]
    data = json.loads(json.dumps(certificate_to_jsonable(cert)))
    assert certificate_from_jsonable(data) == cert


def built_three_ways(r):
    """Reps equal to r: through Rep(...), through Rep._make and read from
    r's JSON form."""
    maps = {a: Matrix(r.field, m.rows, m.cols, m.flat()) for a, m in r.maps.items()}
    return [Rep(r.quiver, r.field, r.dims, maps),
            Rep._make(r.quiver, r.field, r.dims, dict(maps)),
            rep_from_jsonable(r.quiver, r.field, json.loads(json.dumps(ref_rep_json(r))))]


@SETTINGS
@given(writes(), st.permutations(range(3)))
def test_equal_reps_built_three_ways_find_the_same_entries(case, order):
    rs = case[0]
    ways = [built_three_ways(r) for r in rs]
    first, *others = [[w[i] for w in ways] for i in order]
    assert first == rs and all(o == rs for o in others)
    warm = written(first, case[1])
    misses = [c.cache_info().misses for c in WRITE_CACHES]
    for built in others:
        assert written(built, case[1]) == warm
        for v in built:
            for w in built:
                assert all(f.source is v and f.target is w for f in hom_basis(v, w))
    assert [c.cache_info().misses for c in WRITE_CACHES] == misses


def change_an_entry(data, path):
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1


@SETTINGS
@given(writes(), st.data())
def test_a_caller_cannot_change_a_cached_answer(case, data):
    rs, cert = case
    v, w = rs[0], rs[2]
    want = hom_basis(v, w)
    basis = hom_basis(v, w)
    basis.append(RepMorphism.zero(v, w))
    basis.reverse()
    assert hom_basis(v, w) == want
    for write, value in ((rep_to_jsonable, v), (morphism_to_jsonable, RepMorphism.identity(w)),
                         (certificate_to_jsonable, cert)):
        text = json.dumps(write(value), sort_keys=True)
        out = write(value)
        change_an_entry(out, data.draw(st.sampled_from(list(int_leaves(out)))))
        assert json.dumps(write(value), sort_keys=True) == text

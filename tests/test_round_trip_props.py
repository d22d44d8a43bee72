"""Property test: every certificate and every piece of evidence read back
from its JSON is the value that was written.

The value read back must equal the original, hash alike, have the same
repr and write the same bytes again. Over F2, F3, F5 and Q this covers
approximation certificates (left and right add approximations of a drawn
representation on A2 or the one-loop quiver, and left_approx into a
three-level handle tree of the simples of linear A3), filtration
certificates (member_filt over semisimple families on A2 and the one-loop
quiver, and filt_normalize over (S2, S1) on A2), refutation witnesses of
drawn loop-and-exit members, and the add and ext membership evidence of
those members. A filtration certificate read back once compared unequal
to itself, hashed apart and had a repr holding a memory address, because
Filtration was not a value.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.approx import (
    AddCategory,
    ExtCategory,
    left_approx,
    left_approx_add,
    member_add,
    right_approx_add,
)
from approxcat.counterex import (
    LoopQuiverConfig,
    assemble_member,
    build_standard,
    refute,
    standard_handle,
)
from approxcat.extfilt import OrderedFamily, filt_normalize, member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import Rep, RepMorphism, direct_sum_rep, ext1_basis, hom_basis
from approxcat.serialize import (
    certificate_from_jsonable,
    certificate_to_jsonable,
    evidence_from_jsonable,
    evidence_to_jsonable,
)
from filt_oracles import extension_chains

Q = FieldSpec.rationals()
FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), Q]
A2, A3, LOOP = a2_quiver(), Quiver(3, [("a", 0, 1), ("b", 1, 2)]), loop_quiver(1)


def scalars(F):
    if F.kind == "rationals":
        return st.sampled_from([0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3)])
    return st.sampled_from([0, 0, 1, F.modulus - 1])


@st.composite
def reps(draw, q, F, max_dim=2):
    dims = [draw(st.integers(0, max_dim)) for _ in range(q.vertex_count)]
    maps = {}
    for a in q.arrows:
        rows, cols = dims[a.target], dims[a.source]
        entries = draw(st.lists(scalars(F), min_size=rows * cols, max_size=rows * cols))
        maps[a.id] = Matrix(F, rows, cols, entries)
    return Rep(q, F, dims, maps)


def certificate(value):
    return value, certificate_to_jsonable, certificate_from_jsonable


def evidence(value, member):
    def read(data):
        return evidence_from_jsonable(member.quiver, member.field, data)
    return value, evidence_to_jsonable, read


@st.composite
def approximations(draw, F):
    """An approximation certificate and the add evidence member_add gives
    its far end."""
    kind = draw(st.sampled_from(["left", "right", "nested"]))
    if kind == "nested":
        x1, x2, x3 = draw(st.permutations([Rep.simple(A3, F, x) for x in range(3)]))
        handle = ExtCategory(AddCategory([x1]), ExtCategory(AddCategory([x2]), AddCategory([x3])))
        return [certificate(left_approx(draw(reps(A3, F, max_dim=1)), handle))]
    q = draw(st.sampled_from([A2, LOOP]))
    m = draw(reps(q, F))
    handle = AddCategory([draw(reps(q, F, max_dim=1)) for _ in range(draw(st.integers(1, 2)))])
    cert = (left_approx_add if kind == "left" else right_approx_add)(m, handle)
    return [certificate(cert),
            evidence(member_add(cert.approximating, handle), cert.approximating)]


@st.composite
def filtrations(draw, F):
    """member_filt certificates of a drawn extension chain at every depth
    that has one, and on A2 their filt_normalize outputs over (S2, S1)."""
    q = draw(st.sampled_from([A2, LOOP]))
    simples = [Rep.simple(q, F, x) for x in range(q.vertex_count)]
    families = [simples, simples[::-1]] if q is A2 else [simples]
    if F.modulus:
        # S+S on the loop, S1+S2 on A2: not vertex-simple, so decided by
        # the peel search, which needs F_p
        families.append([direct_sum_rep(simples * (3 - q.vertex_count))])
    gens = draw(st.sampled_from(families))
    layers = [direct_sum_rep(draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2)))
              for _ in range(draw(st.integers(1, 2)))]
    m = draw(extension_chains(layers)).top
    out = []
    for r in (1, 2, 3):
        cert = member_filt(m, gens, r)
        if cert is not None:
            out.append(certificate(cert))
            if q is A2:
                out.append(certificate(filt_normalize(cert, OrderedFamily(simples[::-1]))))
    return out


@st.composite
def refutations(draw, F):
    """A witness against a candidate into a drawn loop-and-exit member, the
    ext evidence of the member and the add evidence of its ends."""
    cfg = LoopQuiverConfig(2, F)
    s1_mult = draw(st.integers(0, 2))
    m_mult = draw(st.integers(0 if s1_mult else 1, 1))
    handle = standard_handle(cfg)
    sub, _ = handle.left.canonical_sum((s1_mult,))
    quot, _ = handle.right.canonical_sum((m_mult,))
    n = len(ext1_basis(quot, sub))
    member, ev = assemble_member(cfg, s1_mult, m_mult,
                                 draw(st.lists(scalars(F), min_size=n, max_size=n)))
    s2 = build_standard(cfg)[1]
    basis = hom_basis(s2, member)
    phi = draw(st.sampled_from(basis)) if basis else RepMorphism.zero(s2, member)
    return [certificate(refute(phi, ev)), evidence(ev, member),
            evidence(ev.sub_evidence, ev.ses.sub), evidence(ev.quot_evidence, ev.ses.quot)]


@st.composite
def values(draw):
    F = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from([approximations, filtrations, refutations]))
    return draw(kind(F))


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(values())
def test_a_value_read_back_is_the_value_written(cases):
    for value, write, read in cases:
        data = json.loads(dumps(write(value)))
        back = read(data)
        assert back == value and value == back
        assert hash(back) == hash(value)
        assert repr(back) == repr(value)
        assert dumps(write(back)) == dumps(data)

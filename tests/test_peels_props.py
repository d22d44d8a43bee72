"""Property test of the peel search over families that are not
vertex-simple.

member_filt decides such a family by one walk (_peels) that stops at the
first candidate whose quotient peels down to add(S) in the depth left, and
lifts its certificate from the peels that walk returns. The reference is
the decide-then-peel path it replaced (ref_member_filt in filt_oracles): a
search for the minimal depth, then a second walk that decides each
quotient again. On the one-loop quiver over [J2], [S + S] and [J2, S], and
on A2 over [P1, S1], [P1] and [S1 + S2], over F2, F3 and F5, both must
serialize to the same bytes at every r = 1..4, or both answer None, and
every certificate must verify. The members are extension chains of the
family's generators, which lie in F_k, and drawn representations, which
mostly do not.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from approxcat.extfilt import OrderedFamily, member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import a2_quiver, loop_quiver
from approxcat.rep import Rep, direct_sum_rep
from approxcat.search import Budget
from approxcat.serialize import certificate_to_jsonable
from filt_oracles import extension_chains, ref_member_filt

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5)]
A2, LOOP = a2_quiver(), loop_quiver(1)


def families(quiver, F):
    """The families of the property on quiver, none of them vertex-simple."""
    if quiver == LOOP:
        s = Rep.simple(LOOP, F, 0)
        j2 = Rep(LOOP, F, [2], {"alpha1": Matrix(F, 2, 2, [0, 0, 1, 0])})
        return [[j2], [direct_sum_rep([s, s])], [j2, s]]
    s1, s2 = Rep.simple(A2, F, 0), Rep.simple(A2, F, 1)
    p1 = Rep(A2, F, [1, 1], {"a": Matrix(F, 1, 1, [1])})
    return [[p1, s1], [p1], [direct_sum_rep([s1, s2])]]


@st.composite
def drawn_reps(draw, quiver, F):
    """A representation with drawn dimensions and maps; on the one loop
    the map is strictly lower triangular, so nilpotent, half the time."""
    top = (3 if F.modulus == 5 else 4) if quiver == LOOP else (2 if F.modulus == 5 else 3)
    dims = [draw(st.integers(0, top)) for _ in range(quiver.vertex_count)]
    nilpotent = draw(st.booleans())
    maps = {}
    for a in quiver.arrows:
        rows, cols = dims[a.target], dims[a.source]
        entries = draw(st.lists(st.integers(0, F.modulus - 1),
                                min_size=rows * cols, max_size=rows * cols))
        if nilpotent and a.source == a.target:
            entries = [0 if k // cols <= k % cols else e for k, e in enumerate(entries)]
        maps[a.id] = Matrix(F, rows, cols, entries)
    return Rep(quiver, F, dims, maps)


@st.composite
def cases(draw):
    """(m, family): a drawn rep, or m an extension chain of two or three
    layers of one or two generator copies plus, when it fits, a generator
    summand (which gives the peel search more than one candidate to take),
    at most 5, 4 or 3 dimensions in all over F2, F3 or F5, so that add
    membership's isomorphism tests stay small."""
    F = draw(st.sampled_from(FIELDS))
    quiver = draw(st.sampled_from([LOOP, A2]))
    gens = draw(st.sampled_from(families(quiver, F)))
    if draw(st.booleans()):
        return draw(drawn_reps(quiver, F)), OrderedFamily(gens)
    cap, layers, total = {2: 5, 3: 4, 5: 3}[F.modulus], [], 0
    for _ in range(draw(st.integers(2, 3))):
        layer = direct_sum_rep(draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2)))
        if total + layer.total_dim <= cap:
            layers.append(layer)
            total += layer.total_dim
    top = draw(extension_chains(layers or [Rep.zero(quiver, F)])).top
    extra = [g for g in draw(st.lists(st.sampled_from(gens), max_size=1))
             if total + g.total_dim <= cap]
    return direct_sum_rep([top, *extra]), OrderedFamily(gens)


def several_peels():
    """J2 + S + S over [S + S] on the one loop over F2: each of the three
    planes of ker alpha that contain im alpha is a peel whose quotient lies
    in add(S + S), so the first and the last of them differ."""
    (j2,), ss, _ = families(LOOP, FIELDS[0])
    s = Rep.simple(LOOP, FIELDS[0], 0)
    return direct_sum_rep([j2, s, s]), OrderedFamily(ss)


def dump(cert):
    return None if cert is None else json.dumps(certificate_to_jsonable(cert), sort_keys=True)


@settings(max_examples=120, deadline=None)
@given(cases())
@example(several_peels())
def test_one_walk_builds_the_decide_then_peel_certificate(case):
    m, family = case
    assert family.kind()[1] is None
    for r in (1, 2, 3, 4):
        cert = member_filt(m, family, r)
        assert dump(cert) == dump(ref_member_filt(m, family, r, Budget()))
        if cert is not None:
            assert cert.member == m and cert.depth <= r
            assert cert.verify()

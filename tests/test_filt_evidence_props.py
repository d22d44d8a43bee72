"""Property test of filtration evidence read from dimensions.

Over a family with zero arrow maps, every factor of a filtration that
member_filt or filt_normalize builds acts by zero: a peel lies in the joint
kernels of the outgoing maps, each radical layer is killed by rad_T, and a
merged run of one generator splits. So the certificate reads each factor's
add evidence off the dimension difference of its step and takes no step
cokernel. The reference is the construction this replaced (ref_certify in
filt_oracles): a cokernel of every step, then add membership of that
factor. Over F2, F3, F5 and Q, on the one-loop, loop-and-exit and A2
quivers, for vertex-simple families, for semisimple families that are not
vertex-simple (decided by the peel search over F_p within the budget) and
for filt_normalize outputs, both must serialize to the same bytes and the
certificate must verify. member_filt over [S] on the one loop and over
[S2, S1] on A2 must not call Filtration.step_cokernel at all.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.extfilt import OrderedFamily, filt_normalize, member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import Filtration, Rep, direct_sum_rep
from approxcat.serialize import certificate_to_jsonable
from filt_oracles import extension_chains, ref_certify

Q = FieldSpec.rationals()
FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), Q]
A2, LOOP = a2_quiver(), loop_quiver(1)
LOOP_EXIT = Quiver(2, [("alpha1", 0, 0), ("beta", 0, 1)])


def families(quiver, field):
    """The semisimple families on quiver: vertex-simple ones over every
    field, the others, which the peel search decides, over F_p only."""
    simples = [Rep.simple(quiver, field, x) for x in range(quiver.vertex_count)]
    if quiver == LOOP:
        s, ss = simples[0], direct_sum_rep(simples * 2)
        return [[s], [s, ss]] + ([[ss]] if field != Q else [])
    return [simples, simples[::-1], simples[:1]] + (
        [[direct_sum_rep(simples)]] if field != Q else [])


@st.composite
def cases(draw):
    """A member of F_k over a drawn family: an extension chain of k <= 3
    layers, each one or two generator copies, at most 6 dimensions in all
    so that the peel search stays within its budget."""
    field = draw(st.sampled_from(FIELDS))
    quiver = draw(st.sampled_from([LOOP, LOOP_EXIT, A2]))
    gens = draw(st.sampled_from(families(quiver, field)))
    layers, total = [], 0
    for _ in range(draw(st.integers(1, 3))):
        layer = direct_sum_rep(draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2)))
        if total + layer.total_dim <= 6:
            layers.append(layer)
            total += layer.total_dim
    filt = draw(extension_chains(layers or [Rep.zero(quiver, field)]))
    return filt.top, OrderedFamily(gens)


def dump(cert):
    return json.dumps(certificate_to_jsonable(cert), sort_keys=True)


def check(cert):
    assert dump(cert) == dump(ref_certify(cert.filtration, cert.member, cert.family))
    assert cert.verify()


@settings(max_examples=250, deadline=None)
@given(cases())
def test_evidence_from_dimensions_equals_the_cokernel_build(case):
    m, family = case
    # on A2 every semisimple factor lies in add(S2, S1), an Ext-ordered family
    ordered = (OrderedFamily([Rep.simple(A2, m.field, 1), Rep.simple(A2, m.field, 0)])
               if m.quiver == A2 else None)
    for r in (1, 2, 3, 4):
        cert = member_filt(m, family, r)
        if cert is None:
            continue
        check(cert)
        if ordered is not None:
            check(filt_normalize(cert, ordered))


def test_member_filt_takes_no_step_cokernel(monkeypatch):
    F = FieldSpec.prime(3)
    s = Rep.simple(LOOP, F, 0)
    j3 = Rep(LOOP, F, [3], {"alpha1": Matrix(F, 3, 3, [0, 0, 0, 1, 0, 0, 0, 1, 0])})
    s1, s2 = Rep.simple(A2, F, 0), Rep.simple(A2, F, 1)
    p1 = Rep(A2, F, [1, 1], {"a": Matrix(F, 1, 1, [1])})
    calls = []
    kept = Filtration.step_cokernel
    monkeypatch.setattr(Filtration, "step_cokernel",
                        lambda self, j: calls.append(j) or kept(self, j))
    certs = [member_filt(direct_sum_rep([j3, s]), [s], 3),
             member_filt(direct_sum_rep([p1, s1]), [s2, s1], 2)]
    assert [c.depth for c in certs] == [3, 2]
    assert calls == []
    monkeypatch.undo()
    for cert in certs:
        check(cert)

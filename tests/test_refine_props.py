"""Property test of the layer refinement that starts filt_normalize.

Over a semisimple family with Ext1(X_i, X_i) = 0 every representation of
dims c * dims(X_i) is X_i^c, so _refine_layers reads a layer's counts off
its dimension difference and takes a step cokernel only for a layer whose
counts mix generators; other families decide every layer by add
membership. The reference is the refinement that decided every layer so
(ref_refine_layers in filt_oracles). Over F2, F3, F5 and Q, on A2, linear
A3 and the loop-and-exit quiver, for Ext-ordered families (semisimple ones
with a zero-dimensional or a repeated generator, and (P1, S2) on A2, which
is not semisimple), on extension chains with identity steps inserted and
on member_filt certificates, both must give the same steps and indices,
or both refuse a factor outside add; filt_normalize must give the same
bytes with either.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat import extfilt
from approxcat.errors import CertificateError
from approxcat.extfilt import (
    FiltrationCertificate,
    OrderedFamily,
    _check_ext_hypothesis,
    _refine_layers,
    filt_normalize,
    member_filt,
)
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver
from approxcat.rep import Filtration, Rep, RepMorphism, direct_sum_rep
from approxcat.serialize import certificate_to_jsonable
from filt_oracles import extension_chains, ref_refine_layers

Q = FieldSpec.rationals()
FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), Q]
A2 = a2_quiver()
A3 = Quiver(3, [("a", 0, 1), ("b", 1, 2)])
LOOP_EXIT = Quiver(2, [("alpha1", 0, 0), ("beta", 0, 1)])


def _rep(quiver, field, dims, maps):
    return Rep(quiver, field, dims, {
        aid: Matrix(field, dims[quiver.arrow(aid).target], dims[quiver.arrow(aid).source], m)
        for aid, m in maps.items()})


def families(quiver, field):
    """(Ext-ordered families, representations outside add of some of them)."""
    s = [Rep.simple(quiver, field, x) for x in range(quiver.vertex_count)]
    zero = Rep.zero(quiver, field)
    if quiver == A2:
        p1 = _rep(A2, field, [1, 1], {"a": [1]})
        return ([[s[1], s[0]], [s[1], s[1], s[0]], [zero, s[1], s[0]], [p1, s[1]]],
                [p1, s[0], direct_sum_rep([s[0], s[1]])])
    if quiver == A3:
        return ([[s[2], s[1], s[0]], [zero, s[2], s[1], s[0]], [s[2], direct_sum_rep([s[0], s[2]])]],
                [_rep(A3, field, [0, 1, 1], {"b": [1]}), _rep(A3, field, [1, 1, 0], {"a": [1]})])
    return [[s[1]], [zero, s[1]], [s[1], s[1]]], [s[0], _rep(LOOP_EXIT, field, [1, 1], {"beta": [1]})]


@st.composite
def cases(draw):
    """(filtration, family, depth): an extension chain of at most three
    layers, each one or two generator copies and now and then a
    representation outside add, at most 5 dimensions in all, with identity
    steps inserted; and a depth for member_filt of its top."""
    field = draw(st.sampled_from(FIELDS))
    quiver = draw(st.sampled_from([A2, A3, LOOP_EXIT]))
    fams, outside = families(quiver, field)
    gens = draw(st.sampled_from(fams))
    layers, total = [], 0
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)) == 0:
            layer = draw(st.sampled_from(outside))
        else:
            layer = direct_sum_rep(draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2)))
        if total + layer.total_dim <= 5:
            layers.append(layer)
            total += layer.total_dim
    filt = draw(extension_chains(layers or [Rep.zero(quiver, field)]))
    steps = list(filt.steps)
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, len(steps)))
        term = steps[j].source if j < len(steps) else steps[-1].target
        steps.insert(j, RepMorphism.identity(term))
    return Filtration(steps), OrderedFamily(gens), draw(st.integers(1, 4))


def dump(cert):
    return json.dumps(certificate_to_jsonable(cert), sort_keys=True)


def check(filt, family):
    try:
        want = ref_refine_layers(filt, family)
    except CertificateError:
        with pytest.raises(CertificateError):
            _refine_layers(filt, family)
        return
    got = _refine_layers(filt, family)
    assert got[1] == want[1]
    assert got[0].steps == want[0].steps
    cert = FiltrationCertificate(filt, filt.top, family, ())
    with mock.patch.object(extfilt, "_refine_layers", ref_refine_layers):
        want_bytes = dump(filt_normalize(cert))
    assert dump(filt_normalize(cert)) == want_bytes


@settings(max_examples=300, deadline=None)
@given(cases())
def test_refinement_equals_the_cokernel_refinement(case):
    filt, family, r = case
    _check_ext_hypothesis(family)
    check(filt, family)
    # the peel search of a family that is not vertex-simple needs F_p
    if family.kind()[1] is not None or filt.top.field != Q:
        cert = member_filt(filt.top, family, r)
        if cert is not None:
            check(cert.filtration, family)


def _a2_f3():
    F = FieldSpec.prime(3)
    return F, Rep.simple(A2, F, 0), Rep.simple(A2, F, 1)


def test_normalize_takes_input_cokernels_of_mixed_layers_only(monkeypatch):
    """Depth 4 over (S2, S1): the rep of dims (3, 2) whose arrow has image
    e_0 peels that image, so its layers are S2 and the mixed S1^3 + S2;
    P1 + S1 has layers S2 and S1^2, neither mixed."""
    F, s1, s2 = _a2_f3()
    mixed = _rep(A2, F, [3, 2], {"a": [1, 2, 0, 0, 0, 0]})
    p1 = _rep(A2, F, [1, 1], {"a": [1]})
    certs = [member_filt(m, [s2, s1], 4) for m in (mixed, direct_sum_rep([p1, s1]))]
    calls = []
    kept = extfilt.Filtration.step_cokernel
    monkeypatch.setattr(extfilt.Filtration, "step_cokernel",
                        lambda self, j: calls.append((self, j)) or kept(self, j))
    for cert, mixed_layers in zip(certs, ([1], [])):
        calls.clear()
        filt_normalize(cert)
        assert [j for f, j in calls if f is cert.filtration] == mixed_layers


def test_normalize_refuses_a_factor_outside_add():
    """Unverified one-layer certificates 0 -> X with X outside add: P1 over
    (S2, S1), whose dims (1, 1) mix both simples, so the layer is decided by
    add membership; and S1 + S2 over (P1, S2), which has the dims of P1 but
    is not P1, so a family that is not semisimple is never read off
    dimensions. The refinement refuses them before any exchange."""
    F, s1, s2 = _a2_f3()
    p1 = _rep(A2, F, [1, 1], {"a": [1]})
    for x, gens in ((p1, [s2, s1]), (direct_sum_rep([s1, s2]), [p1, s2])):
        filt, family = Filtration([RepMorphism.zero(Rep.zero(A2, F), x)]), OrderedFamily(gens)
        with pytest.raises(CertificateError):
            _refine_layers(filt, family)
        with pytest.raises(CertificateError):
            filt_normalize(FiltrationCertificate(filt, x, family, ()))

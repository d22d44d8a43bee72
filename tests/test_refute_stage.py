"""The refutation stage is built once, and membership evidence is verified
once per member.

- The stage (the loop-and-exit quiver, S1, S2, M, the standard handle,
  and W(i0) with its evidence) comes from one bounded memo: equal
  configurations share it, and no configuration sweep grows it past its
  bound.
- refute records a successful verification on the evidence object, under
  the member's key. The record never vouches for another member, a forged
  copy, or evidence that failed.
- refute no longer re-verifies embedded evidence after an escalation. The
  property below is the theorem that stands in for that check: embedding
  verified evidence one level up yields verified evidence, because zero
  maps on the new loops keep every naturality square, canonical sum, iso
  and exact sequence intact.
"""

import copy
import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat import counterex
from approxcat.approx import verify_evidence
from approxcat.counterex import (
    LoopQuiverConfig,
    assemble_member,
    beta_surjectivity_check,
    build_W,
    build_standard,
    candidate_maps,
    choose_i0,
    embed_evidence,
    embed_rep,
    refute,
    standard_handle,
    w_membership,
)
from approxcat.errors import CertificateError, NoFreeLoopError
from approxcat.fields import FieldSpec
from approxcat.rep import RepMorphism, ShortExactSeq, ext1_basis
from approxcat.serialize import verify_certificate

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
GOLDEN = Path(__file__).parent / "golden"


@st.composite
def members(draw, cfg):
    """(member, evidence) from assemble_member with drawn multiplicities
    and cocycle; half the draws use only nonzero coefficients, so every
    loop tends to act nonzero and refute has to escalate."""
    a = draw(st.integers(min_value=0, max_value=2))
    b = draw(st.integers(min_value=0, max_value=2))
    handle = standard_handle(cfg)
    sub, _ = handle.left.canonical_sum((a,))
    quot, _ = handle.right.canonical_sum((b,))
    p = cfg.field.modulus
    low = draw(st.sampled_from([0, 1]))
    n = len(ext1_basis(quot, sub))
    coeffs = draw(st.lists(st.integers(min_value=low, max_value=p - 1), min_size=n, max_size=n))
    return assemble_member(cfg, a, b, coeffs)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.sampled_from([1, 2]), st.data())
def test_embedding_verified_evidence_keeps_it_verified(p, level, data):
    cfg = LoopQuiverConfig(level, FieldSpec.prime(p))
    up = LoopQuiverConfig(level + 1, cfg.field)
    v, ev = data.draw(members(cfg))
    if not verify_evidence(ev, v, standard_handle(cfg)):
        return
    assert verify_evidence(embed_evidence(ev, up), embed_rep(v, up), standard_handle(up))
    try:
        choose_i0(v)
        return
    except NoFreeLoopError:
        pass
    # an escalating member: every candidate's witness sits one level up
    candidates = candidate_maps(v)
    phi = candidates[data.draw(st.integers(min_value=0, max_value=len(candidates) - 1))]
    witness = refute(phi, ev)
    assert witness.escalated and witness.config == up
    assert witness.verify()


def test_the_property_reaches_escalation():
    # both loops act nonzero on this member, so refute escalates to level 3
    v, ev = assemble_member(LoopQuiverConfig(2, F3), 1, 1, [1, 1])
    with pytest.raises(NoFreeLoopError):
        choose_i0(v)
    witness = refute(candidate_maps(v)[-1], ev)
    assert witness.escalated and witness.verify()


class TestEvidenceMemo:
    def test_verified_evidence_does_not_vouch_for_another_member(self):
        cfg = LoopQuiverConfig(2, F2)
        v, ev = assemble_member(cfg, 1, 1, [1, 0])
        assert refute(candidate_maps(v)[-1], ev).verify()
        other, _ = assemble_member(cfg, 1, 1, [0, 1])
        assert other != v
        with pytest.raises(CertificateError):
            refute(candidate_maps(other)[-1], ev)
        with pytest.raises(CertificateError):
            beta_surjectivity_check(other, ev)

    def test_forged_evidence_raises_on_first_use(self):
        cfg = LoopQuiverConfig(2, F3)
        v, ev = assemble_member(cfg, 1, 1, [1, 2])
        ses = ev.ses
        forged = dataclasses.replace(
            ev, ses=ShortExactSeq(ses.i, RepMorphism.zero(ses.mid, ses.quot)))
        with pytest.raises(CertificateError):
            refute(candidate_maps(v)[0], forged)
        # a failure is not recorded, so the next use raises as well
        assert forged._verified is None
        with pytest.raises(CertificateError):
            refute(candidate_maps(v)[0], forged)

    def test_a_copy_of_verified_evidence_is_verified_afresh(self):
        cfg = LoopQuiverConfig(2, F3)
        v, ev = assemble_member(cfg, 0, 1, [])
        refute(candidate_maps(v)[0], ev)
        assert ev._verified == {v.key()}
        copied = dataclasses.replace(ev)
        assert copied == ev and copied._verified is None

    def test_the_record_is_not_part_of_the_evidence_value(self):
        cfg = LoopQuiverConfig(2, F2)
        v, ev = assemble_member(cfg, 1, 0, [])
        fresh = assemble_member(cfg, 1, 0, [])[1]
        refute(candidate_maps(v)[0], ev)
        assert ev == fresh
        assert repr(ev) == repr(fresh)


class TestStageMemo:
    def test_equal_configurations_share_the_stage(self):
        a, b = LoopQuiverConfig(2, F3), LoopQuiverConfig(2, FieldSpec.prime(3))
        assert a.quiver() is b.quiver()
        assert all(x is y for x, y in zip(build_standard(a), build_standard(b)))
        assert standard_handle(a) is standard_handle(b)
        assert build_W(a, 2) is build_W(b, 2)
        assert w_membership(a, 2) is w_membership(b, 2)
        s1, _, m = build_standard(a)
        assert standard_handle(a).left.generators == (s1,)
        assert standard_handle(a).right.generators == (m,)
        assert w_membership(a, 1).ses.mid is build_W(a, 1)

    def test_the_memo_stays_bounded(self):
        for n in range(1, 41):
            cfg = LoopQuiverConfig(n, F2)
            build_standard(cfg)
            build_W(cfg, n)
        for cached in (counterex._stage, counterex._w_stage):
            info = cached.cache_info()
            assert info.currsize <= info.maxsize

    def test_keys_are_typed(self):
        # a float level builds no stage, even when the equal int level is cached
        LoopQuiverConfig(2, F2).quiver()
        with pytest.raises(TypeError):
            LoopQuiverConfig(2.0, F2).quiver()

    @pytest.mark.parametrize("label", ["F2", "F3", "Q"])
    @pytest.mark.parametrize("n_loops", [None, 3, 5, 50])
    def test_golden_refutations_verify_at_other_levels(self, label, n_loops):
        data = json.loads((GOLDEN / f"refutation-{label}.json").read_text())
        if n_loops is not None:
            data = copy.deepcopy(data)
            data["config"]["n_loops"] = n_loops
        assert verify_certificate(data) is True

    def test_refute_leaves_no_factor_systems_on_the_stage(self):
        # stage morphisms are shared, so a factorization system memoized on
        # one would live as long as the stage; refute and verify make none
        counterex._stage.cache_clear()
        counterex._w_stage.cache_clear()
        cfg = LoopQuiverConfig(2, F3)
        stage = []
        for coeffs in ([1, 0], [0, 1], [1, 1]):
            v, ev = assemble_member(cfg, 1, 1, coeffs)
            for phi in candidate_maps(v):
                witness = refute(phi, ev)
                assert witness.verify()
                w_ev = witness.w_evidence
                assert w_ev is w_membership(witness.config, witness.i0)
                stage += [w_ev.ses.i, w_ev.ses.p, w_ev.sub_evidence.iso, w_ev.quot_evidence.iso]
        # the last member uses both loops, so level 3's stage is covered too
        assert witness.escalated
        assert stage and all(f._memo is None for f in stage)

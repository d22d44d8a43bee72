"""The refutation stage is built once, and membership evidence is verified
once per member.

- The stage (the loop-and-exit quiver, S1, S2, M, the standard handle,
  and W(i0) with its evidence) comes from one bounded memo: equal
  configurations share it, and no configuration sweep grows it past its
  bound.
- refute and RefutationWitness.verify verify membership evidence through
  one bounded cache keyed by the (evidence, member) values
  (counterex._member_verified). An answer never vouches for another
  member or a forged copy, and a failure is kept as a failure; evidence
  of equal value, such as a copy or the same evidence read from JSON,
  shares the answer, so a sweep verifies each W(i0)'s evidence once and
  any other valid W evidence once as well.
- refute no longer re-verifies embedded evidence after an escalation. The
  property below is the theorem that stands in for that check: embedding
  verified evidence one level up yields verified evidence, because zero
  maps on the new loops keep every naturality square, canonical sum, iso
  and exact sequence intact.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat import counterex, rep
from approxcat.approx import ExtEvidence, verify_evidence
from approxcat.counterex import (
    LoopQuiverConfig,
    RefutationWitness,
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
from approxcat.serialize import certificate_to_jsonable, verify_certificate

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
        forged = ExtEvidence(ShortExactSeq(ses.i, RepMorphism.zero(ses.mid, ses.quot)),
                             ev.sub_evidence, ev.quot_evidence)
        with pytest.raises(CertificateError):
            refute(candidate_maps(v)[0], forged)
        # the failure is kept as a failure, so the next use raises as well
        assert counterex._member_verified(forged, v) is False
        with pytest.raises(CertificateError):
            refute(candidate_maps(v)[0], forged)

    def test_a_copy_of_verified_evidence_shares_its_answer(self):
        cfg = LoopQuiverConfig(2, F3)
        v, ev = assemble_member(cfg, 0, 1, [])
        refute(candidate_maps(v)[0], ev)
        copied = ExtEvidence(ev.ses, ev.sub_evidence, ev.quot_evidence)
        assert copied == ev and copied is not ev
        info = counterex._member_verified.cache_info()
        refute(candidate_maps(v)[0], copied)
        after = counterex._member_verified.cache_info()
        assert (after.hits, after.misses) == (info.hits + 1, info.misses)

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
        # refute and verify factor nothing, so they add no factorization
        # system or per-copy answer to the caches
        counterex._stage.cache_clear()
        counterex._w_stage.cache_clear()
        cfg = LoopQuiverConfig(2, F3)
        stage = []
        before = rep._factor_system.cache_info(), rep._copy_lift.cache_info()
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
        after = rep._factor_system.cache_info(), rep._copy_lift.cache_info()
        assert stage and [i.misses for i in after] == [i.misses for i in before]


def _with_w_evidence(w, w_evidence):
    return RefutationWitness(w.candidate, w.i0, w.w, w_evidence, w.nonzero_target_map,
                             w.vanishing_proof, w.escalated, w.config)


class TestWEvidence:
    def _witness(self):
        cfg = LoopQuiverConfig(2, F3)
        v, ev = assemble_member(cfg, 1, 1, [1, 0])
        return refute(candidate_maps(v)[-1], ev)

    def _counting(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return verify_evidence(*args)

        monkeypatch.setattr(counterex, "verify_evidence", counted)
        return calls

    def test_the_stage_evidence_is_verified_once(self, monkeypatch):
        counterex._w_stage.cache_clear()
        counterex._member_verified.cache_clear()
        witness = self._witness()
        own = w_membership(witness.config, witness.i0)
        calls = self._counting(monkeypatch)
        data = json.loads(json.dumps(certificate_to_jsonable(witness)))
        for _ in range(3):
            assert witness.verify()
            assert verify_certificate(data) is True
        assert [c[0] for c in calls] == [own]
        assert counterex._member_verified(own, witness.w) is True

    def test_other_valid_evidence_is_verified_in_full(self, monkeypatch):
        # over F3, 2i is another inclusion of S1 with the same cokernel p;
        # it is verified in full once, and its copy read from JSON shares
        # that answer
        counterex._member_verified.cache_clear()
        witness = self._witness()
        ses = witness.w_evidence.ses
        w_ev = witness.w_evidence
        other = ExtEvidence(ShortExactSeq(ses.i.scale(2), ses.p),
                            w_ev.sub_evidence, w_ev.quot_evidence)
        assert other != w_membership(witness.config, witness.i0)
        scaled = _with_w_evidence(witness, other)
        calls = self._counting(monkeypatch)
        data = json.loads(json.dumps(certificate_to_jsonable(scaled)))
        for _ in range(2):
            assert scaled.verify()
            assert verify_certificate(data) is True
        assert len(calls) == 1 and calls[0][0] == other
        assert counterex._member_verified(other, witness.w) is True

    @pytest.mark.parametrize("forge", ["zero-inclusion", "zero-projection"])
    def test_forged_evidence_is_refused(self, forge):
        witness = self._witness()
        assert witness.verify()
        ses = witness.w_evidence.ses
        if forge == "zero-inclusion":
            forged = ShortExactSeq(ses.i.scale(0), ses.p)
        else:
            forged = ShortExactSeq(ses.i, RepMorphism.zero(ses.mid, ses.quot))
        w_ev = witness.w_evidence
        bad = _with_w_evidence(
            witness, ExtEvidence(forged, w_ev.sub_evidence, w_ev.quot_evidence))
        data = json.loads(json.dumps(certificate_to_jsonable(bad)))
        for _ in range(2):
            assert bad.verify() is False
            assert verify_certificate(data) is False


def test_each_hom_system_is_built_once(monkeypatch):
    # every candidate of one member shares V and W, so refuting them all and
    # verifying each witness meet a few hom spaces, each read through the
    # bounded rep._hom_kernel cache
    v, ev = assemble_member(LoopQuiverConfig(2, F3), 1, 1, [1, 0])
    candidates = candidate_maps(v)
    assert len(candidates) > 1
    built, system = [], rep._hom_system

    def counted(a, b):
        built.append((a, b))
        return system(a, b)

    monkeypatch.setattr(rep, "_hom_system", counted)
    rep._hom_kernel.cache_clear()
    witnesses = [refute(phi, ev) for phi in candidates]
    assert all(w.verify() for w in witnesses)
    assert built and len(built) == len(set(built))

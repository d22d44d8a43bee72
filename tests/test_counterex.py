import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat import counterex
from approxcat.approx import (
    AddCategory,
    ExtEvidence,
    factor_through,
    left_approx_ext,
    verify_evidence,
)
from approxcat.counterex import (
    MAX_LOOPS,
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
    sample_members,
    standard_handle,
    w_membership,
)
from approxcat.errors import (
    CertificateError,
    NoFreeLoopError,
    NonAcyclicQuiverError,
    RationalFieldUnsupportedError,
    ShapeError,
)
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import a2_quiver
from approxcat.rep import (
    Rep,
    RepMorphism,
    ShortExactSeq,
    hom_basis,
    hom_dim,
    is_split,
    projective_epi,
    ses_verify,
)

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)

CFG1 = LoopQuiverConfig(1, F2)
CFG2 = LoopQuiverConfig(2, F2)


class TestConfig:
    def test_quiver_shape(self):
        q = CFG2.quiver()
        assert q.vertex_count == 2
        assert [a.id for a in q.arrows] == ["alpha1", "alpha2", "beta"]
        assert all(a.source == 0 for a in q.arrows)

    def test_never_acyclic(self):
        _, _, m = build_standard(CFG2)
        with pytest.raises(NonAcyclicQuiverError):
            projective_epi(m)

    def test_positive_loop_count_required(self):
        with pytest.raises(ShapeError):
            LoopQuiverConfig(0, F2)

    def test_loop_count_is_capped(self):
        assert LoopQuiverConfig(MAX_LOOPS, F2).n_loops == MAX_LOOPS
        for n in (MAX_LOOPS + 1, 10**9):
            with pytest.raises(ShapeError):
                LoopQuiverConfig(n, F2)
        # a level that is no integer passes the bounds and fails where the
        # stage is built
        with pytest.raises(TypeError):
            LoopQuiverConfig(2.0, F2).quiver()

    def test_escalation_past_the_cap_is_refused(self, monkeypatch):
        # both loops act nonzero, so refute escalates to a third loop
        v, ev = assemble_member(CFG2, 1, 1, [1, 1])
        assert refute(_unit_candidate(v), ev).config == LoopQuiverConfig(3, F2)
        monkeypatch.setattr(counterex, "MAX_LOOPS", 2)
        with pytest.raises(ShapeError):
            refute(_unit_candidate(v), ev)

    def test_of_rep(self):
        _, s2, _ = build_standard(CFG2)
        assert LoopQuiverConfig.of_rep(s2) == CFG2
        stray = Rep.simple(a2_quiver(), F2, 0)
        with pytest.raises(ShapeError):
            LoopQuiverConfig.of_rep(stray)


class TestBuilders:
    def test_standard_modules(self):
        s1, s2, m = build_standard(CFG2)
        assert s1.dims == (1, 0) and s2.dims == (0, 1)
        assert m.dims == (1, 1)
        assert m.map("alpha1").is_zero() and m.map("alpha2").is_zero()
        assert m.map("beta") == Matrix(F2, 1, 1, [1])
        assert s2.map("beta").cols == 0

    def test_w_shape(self):
        w = build_W(CFG2, 1)
        assert w.dims == (2, 1)
        assert w.map("alpha1") == Matrix(F2, 2, 2, [0, 0, 1, 0])
        assert w.map("alpha2").is_zero()
        assert w.map("beta") == Matrix(F2, 1, 2, [1, 0])
        assert build_W(CFG2, 2).map("alpha1").is_zero()
        with pytest.raises(ShapeError):
            build_W(CFG2, 3)

    def test_w_membership_is_nonsplit(self):
        ev = w_membership(CFG2, 1)
        assert ses_verify(ev.ses)
        assert is_split(ev.ses) is None
        assert verify_evidence(ev, build_W(CFG2, 1), standard_handle(CFG2))

    def test_hom_line_into_w(self):
        _, s2, m = build_standard(CFG2)
        for i0 in (1, 2):
            basis = hom_basis(s2, build_W(CFG2, i0))
            assert len(basis) == 1
            assert basis[0].component(1) == Matrix(F2, 1, 1, [1])
        # morphisms out of M reach W only through the exit kernel
        f = hom_basis(m, build_W(CFG2, 1))
        assert len(f) == 1
        assert f[0].component(1).is_zero()
        assert f[0].component(0) == Matrix(F2, 2, 1, [0, 1])

    def test_hom_line_over_f3(self):
        cfg = LoopQuiverConfig(2, F3)
        _, s2, _ = build_standard(cfg)
        assert hom_dim(s2, build_W(cfg, 2)) == 1


class TestAssembleMember:
    def test_pure_quotient(self):
        member, ev = assemble_member(CFG2, 0, 1, [])
        _, _, m = build_standard(CFG2)
        assert member == m
        assert verify_evidence(ev, member, standard_handle(CFG2))

    def test_split_sum(self):
        member, ev = assemble_member(CFG2, 1, 1, [0, 0])
        assert member.dims == (2, 1)
        assert all(member.map(a).is_zero() for a in CFG2.loop_ids())
        assert verify_evidence(ev, member, standard_handle(CFG2))

    def test_both_loops_used(self):
        member, _ = assemble_member(CFG2, 1, 1, [1, 1])
        assert not member.map("alpha1").is_zero()
        assert not member.map("alpha2").is_zero()

    def test_coefficient_count_checked(self):
        with pytest.raises(ShapeError):
            assemble_member(CFG2, 1, 1, [1])

    def test_evidence_hashes_like_it_compares(self):
        # frozen evidence hashes over its fields, its short exact sequence too
        _, ev = assemble_member(CFG2, 1, 1, [1, 0])
        _, again = assemble_member(CFG2, 1, 1, [1, 0])
        assert ev is not again and ev == again
        assert hash(ev) == hash(again) and hash(ev.ses) == hash(again.ses)
        w_ev = w_membership(CFG2, 1)
        rebuilt = ExtEvidence(ShortExactSeq(w_ev.ses.i, w_ev.ses.p),
                              w_ev.sub_evidence, w_ev.quot_evidence)
        assert rebuilt is not w_ev and rebuilt == w_ev and hash(rebuilt) == hash(w_ev)
        assert {ev: 1}[again] == 1

    def test_zero_member(self):
        member, ev = assemble_member(CFG2, 0, 0, [])
        assert member.is_zero_rep()
        assert verify_evidence(ev, member, standard_handle(CFG2))


class TestBetaSurjectivity:
    def test_certified_members_pass(self):
        member, ev = assemble_member(CFG2, 0, 1, [])
        assert beta_surjectivity_check(member, ev)
        assert beta_surjectivity_check(build_W(CFG2, 1), w_membership(CFG2, 1))

    def test_certificate_required(self):
        _, _, m = build_standard(CFG2)
        with pytest.raises(CertificateError):
            beta_surjectivity_check(m, None)

    def test_mismatched_certificate_rejected(self):
        _, s2, _ = build_standard(CFG2)
        _, ev = assemble_member(CFG2, 0, 1, [])
        with pytest.raises(CertificateError):
            beta_surjectivity_check(s2, ev)


class TestChooseI0:
    def test_all_loops_free(self):
        _, _, m = build_standard(CFG2)
        assert choose_i0(m) == 1

    def test_skips_used_loops(self):
        member, _ = assemble_member(CFG2, 1, 1, [1, 0])
        assert not member.map("alpha1").is_zero()
        assert choose_i0(member) == 2

    def test_no_free_loop(self):
        member, _ = assemble_member(CFG2, 1, 1, [1, 1])
        with pytest.raises(NoFreeLoopError):
            choose_i0(member)


class TestEmbed:
    def test_embed_rep(self):
        cfg3 = LoopQuiverConfig(3, F2)
        w = build_W(CFG1, 1)
        lifted = embed_rep(w, cfg3)
        assert lifted == build_W(cfg3, 1)
        with pytest.raises(ShapeError):
            embed_rep(lifted, CFG1)

    def test_embed_keeps_hom_line(self):
        cfg3 = LoopQuiverConfig(3, F2)
        _, s2, _ = build_standard(cfg3)
        assert hom_dim(s2, embed_rep(build_W(CFG1, 1), cfg3)) == 1

    def test_embed_evidence(self):
        cfg3 = LoopQuiverConfig(3, F2)
        member, ev = assemble_member(CFG2, 2, 1, [0, 1, 0, 1])
        lifted = embed_evidence(ev, cfg3)
        assert verify_evidence(lifted, embed_rep(member, cfg3), standard_handle(cfg3))


def _unit_candidate(v):
    cfg = LoopQuiverConfig.of_rep(v)
    _, s2, _ = build_standard(cfg)
    basis = hom_basis(s2, v)
    return basis[0] if basis else RepMorphism.zero(s2, v)


class TestRefute:
    def test_canonical_candidate(self):
        member, ev = assemble_member(CFG2, 0, 1, [])
        phi = _unit_candidate(member)
        witness = refute(phi, ev)
        assert witness.i0 == 1
        assert not witness.escalated
        assert witness.w == build_W(CFG2, 1)
        assert len(witness.vanishing_proof) == 1
        f, c = witness.vanishing_proof[0]
        assert f.component(1).is_zero() and c.is_zero()
        assert not witness.nonzero_target_map.is_zero()
        assert witness.verify()

    def test_split_sum_candidate(self):
        member, ev = assemble_member(CFG2, 1, 1, [0, 0])
        for phi in candidate_maps(member):
            witness = refute(phi, ev)
            assert witness.i0 == 1
            assert witness.verify()

    def test_zero_candidate_into_zero_member(self):
        member, ev = assemble_member(CFG2, 0, 0, [])
        witness = refute(_unit_candidate(member), ev)
        assert witness.vanishing_proof == ()
        assert witness.verify()

    def test_escalation(self):
        member, ev = assemble_member(CFG2, 1, 1, [1, 1])
        witness = refute(_unit_candidate(member), ev)
        assert witness.escalated
        assert witness.i0 == 3
        assert witness.config == LoopQuiverConfig(3, F2)
        assert witness.candidate.target == embed_rep(member, witness.config)
        assert witness.verify()

    def test_certificate_checked(self):
        member, ev = assemble_member(CFG2, 0, 1, [])
        phi = _unit_candidate(member)
        with pytest.raises(CertificateError):
            refute(phi, None)
        other, other_ev = assemble_member(CFG2, 1, 1, [0, 0])
        with pytest.raises(CertificateError):
            refute(phi, other_ev)

    def test_source_must_be_s2(self):
        member, ev = assemble_member(CFG2, 0, 1, [])
        wrong = RepMorphism.identity(member)
        with pytest.raises(ShapeError):
            refute(wrong, ev)

    def test_witness_tampering_detected(self):
        member, ev = assemble_member(CFG2, 0, 1, [])
        w = refute(_unit_candidate(member), ev)
        zeroed = RefutationWitness(
            w.candidate, w.i0, w.w, w.w_evidence,
            RepMorphism.zero(w.nonzero_target_map.source, w.w),
            w.vanishing_proof, w.escalated, w.config,
        )
        assert not zeroed.verify()
        moved = RefutationWitness(w.candidate, 2, w.w, w.w_evidence, w.nonzero_target_map,
                                  w.vanishing_proof, w.escalated, w.config)
        assert not moved.verify()
        trimmed = RefutationWitness(w.candidate, w.i0, w.w, w.w_evidence, w.nonzero_target_map,
                                    (), w.escalated, w.config)
        assert not trimmed.verify()

    def test_every_family_of_maps_out_of_s2_is_natural(self):
        # S2 lives at vertex 1 and every arrow leaves vertex 0, so both sides
        # of each naturality square are empty: a witness's candidate and
        # target map cannot fail the verifier's naturality check
        _, s2, _ = build_standard(CFG2)
        w = build_W(CFG2, 1)
        for entry in (0, 1):
            f = RepMorphism(s2, w, [Matrix(F2, 2, 0), Matrix(F2, 1, 1, [entry])], check=False)
            assert f.is_natural()

    def test_non_natural_vanishing_proof_fails(self):
        member, ev = assemble_member(CFG2, 0, 1, [])
        witness = refute(_unit_candidate(member), ev)
        (f, c), = witness.vanishing_proof
        # a new vertex-0 component breaks the beta square; the composite
        # with the candidate, which lives at vertex 1, still vanishes
        forged = RepMorphism(f.source, f.target,
                             [Matrix(F2, 2, 1, [1, 1]), f.component(1)], check=False)
        assert not forged.is_natural()
        w = witness
        bad = RefutationWitness(w.candidate, w.i0, w.w, w.w_evidence, w.nonzero_target_map,
                                ((forged, c),), w.escalated, w.config)
        assert witness.verify()
        assert not bad.verify()

    def test_pushout_route_blocked_on_this_quiver(self):
        s1, s2, m = build_standard(CFG2)
        with pytest.raises(NonAcyclicQuiverError):
            left_approx_ext(s2, AddCategory([s1]), AddCategory([m]))


class TestSweep:
    def test_sampling_is_deterministic(self):
        first = sample_members(CFG2, 8, seed=5)
        second = sample_members(CFG2, 8, seed=5)
        assert [v for v, _ in first] == [v for v, _ in second]

    def test_refutation_sweep(self):
        for v, ev in sample_members(CFG2, 30, max_total_dim=6, seed=1):
            assert v.total_dim <= 6
            assert verify_evidence(ev, v, standard_handle(CFG2))
            assert beta_surjectivity_check(v, ev)
            for phi in candidate_maps(v):
                assert refute(phi, ev).verify()


class TestPrimeFieldRequired:
    """The sampling functions enumerate over F_p, so Q is refused the way
    every other enumeration refuses it: RationalFieldUnsupportedError."""

    def test_sampling_refuses_q(self):
        with pytest.raises(RationalFieldUnsupportedError):
            sample_members(LoopQuiverConfig(2, FieldSpec.rationals()), 1)

    def test_candidate_sweep_refuses_q(self):
        v = build_standard(LoopQuiverConfig(2, FieldSpec.rationals()))[2]
        with pytest.raises(RationalFieldUnsupportedError):
            candidate_maps(v)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(min_value=0, max_value=10**6))
def test_refuted_target_map_never_factors(p, seed):
    # refute and verify read "g does not factor through the candidate" off
    # the vanishing composites by linearity; a factorization solved
    # directly must agree for every candidate
    cfg = LoopQuiverConfig(2, FieldSpec.prime(p))
    for v, ev in sample_members(cfg, 3, max_total_dim=4 if p == 5 else 5, seed=seed):
        for phi in candidate_maps(v):
            w = refute(phi, ev)
            assert w.verify()
            assert factor_through(w.nonzero_target_map, w.candidate) is None

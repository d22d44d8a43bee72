"""A refutation witness's vanishing proof must be the hom basis of Hom(V, W).

A proof morphism replaced by another natural morphism V -> W (the sum of
two basis morphisms, or a basis morphism scaled by 2 over F3) still has
the right ends and still composes to zero with the candidate, so only the
comparison with hom_basis(V, W) tells it apart. The forged witness must be
refused in process, through verify_certificate and under `approxcat
verify`.

Every other refusal of a witness, and of the membership evidence it
carries, gets one forged witness that must verify as False in process and
from its JSON form.
"""

import json

import pytest

from approxcat.cli import main
from approxcat.approx import ExtEvidence
from approxcat.counterex import (
    LoopQuiverConfig,
    RefutationWitness,
    assemble_member,
    build_W,
    build_standard,
    refute,
)
from approxcat.fields import FieldSpec
from approxcat.rep import RepMorphism, ShortExactSeq, compose, hom_basis, ses_verify
from approxcat.serialize import certificate_to_jsonable, verify_certificate


def _witness(cfg, s1_mult, m_mult, coefficients):
    member, ev = assemble_member(cfg, s1_mult, m_mult, coefficients)
    phi = hom_basis(build_standard(cfg)[1], member)[0]
    return refute(phi, ev)


def _rebuilt(witness, **changes):
    """witness with the given fields changed, built again through the constructor."""
    t = witness
    fields = dict(candidate=t.candidate, i0=t.i0, w=t.w, w_evidence=t.w_evidence,
                  nonzero_target_map=t.nonzero_target_map, vanishing_proof=t.vanishing_proof,
                  escalated=t.escalated, config=t.config)
    fields.update(changes)
    return RefutationWitness(**fields)


def _sum_of_two(proof):
    return proof[0][0] + proof[1][0]


def _doubled(proof):
    return proof[0][0].scale(2)


CASES = {
    # S1 + M over F2: Hom(V, W) has two basis morphisms
    "sum-F2": (LoopQuiverConfig(2, FieldSpec.prime(2)), (1, 1, [0, 0]), _sum_of_two),
    # M over F3: one basis morphism, replaced by twice itself
    "scaled-F3": (LoopQuiverConfig(2, FieldSpec.prime(3)), (0, 1, []), _doubled),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_natural_non_basis_proof_is_refused(case, capsys, tmp_path):
    cfg, member_args, forge = CASES[case]
    witness = _witness(cfg, *member_args)
    proof = witness.vanishing_proof
    v = witness.candidate.target
    forged = forge(proof)
    assert forged.source == v and forged.target == witness.w
    assert forged.is_natural()
    assert forged not in hom_basis(v, witness.w)
    assert compose(forged, witness.candidate).is_zero()
    bad = _rebuilt(witness, vanishing_proof=((forged, proof[0][1]),) + proof[1:])

    assert witness.verify()
    assert not bad.verify()
    assert verify_certificate(certificate_to_jsonable(witness))
    assert not verify_certificate(certificate_to_jsonable(bad))

    for w, want_code, want_ok in ((witness, 0, True), (bad, 1, False)):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(certificate_to_jsonable(w)))
        code = main(["verify", "--certificate", str(path)])
        assert code == want_code
        assert json.loads(capsys.readouterr().out) == {"verified": want_ok}


def _other_loop_witness(witness):
    # W built at a loop that acts nonzero on the member V
    v = witness.candidate.target
    i0 = next(i for i in range(1, witness.config.n_loops + 1)
              if not v.map(f"alpha{i}").is_zero())
    return _rebuilt(witness, i0=i0, w=build_W(witness.config, i0))


def _zero_projection(witness):
    ses = witness.w_evidence.ses
    forged = ShortExactSeq(ses.i, RepMorphism.zero(ses.mid, ses.quot))
    assert not ses_verify(forged)
    ev = witness.w_evidence
    return _rebuilt(witness, w_evidence=ExtEvidence(forged, ev.sub_evidence, ev.quot_evidence))


# each forgery reaches one refusal of RefutationWitness.verify or of the
# verify_evidence call it makes on the member W
FORGERIES = {
    "i0-below-range": lambda w: _rebuilt(w, i0=0),
    "i0-above-range": lambda w: _rebuilt(w, i0=w.config.n_loops + 1),
    "candidate-not-from-s2": lambda w: _rebuilt(
        w, candidate=RepMorphism.identity(w.candidate.target)
    ),
    "loop-i0-nonzero-on-v": _other_loop_witness,
    "stored-composite-nonzero": lambda w: _rebuilt(
        w, vanishing_proof=((w.vanishing_proof[0][0], w.nonzero_target_map),)
        + w.vanishing_proof[1:]
    ),
    "ext-evidence-for-add-handle": lambda w: _rebuilt(
        w, w_evidence=ExtEvidence(w.w_evidence.ses, w.w_evidence, w.w_evidence.quot_evidence)
    ),
    "add-evidence-for-ext-handle": lambda w: _rebuilt(
        w, w_evidence=w.w_evidence.sub_evidence
    ),
    "sequence-not-exact": _zero_projection,
}


@pytest.mark.parametrize("case", sorted(FORGERIES))
def test_forged_witness_is_refused(case):
    # coefficients (1, 0) make loop 1 act nonzero on V, so W sits at loop 2
    witness = _witness(LoopQuiverConfig(2, FieldSpec.prime(2)), 1, 1, [1, 0])
    assert witness.verify()
    bad = FORGERIES[case](witness)
    assert bad.verify() is False
    assert verify_certificate(certificate_to_jsonable(bad)) is False

"""A refutation witness's vanishing proof must be the hom basis of Hom(V, W).

A proof morphism replaced by another natural morphism V -> W (the sum of
two basis morphisms, or a basis morphism scaled by 2 over F3) still has
the right ends and still composes to zero with the candidate, so only the
comparison with hom_basis(V, W) tells it apart. The forged witness must be
refused in process, through verify_certificate and under `approxcat
verify`.
"""

import dataclasses
import json

import pytest

from approxcat.cli import main
from approxcat.counterex import LoopQuiverConfig, assemble_member, build_standard, refute
from approxcat.fields import FieldSpec
from approxcat.rep import compose, hom_basis
from approxcat.serialize import certificate_to_jsonable, verify_certificate


def _witness(cfg, s1_mult, m_mult, coefficients):
    member, ev = assemble_member(cfg, s1_mult, m_mult, coefficients)
    phi = hom_basis(build_standard(cfg)[1], member)[0]
    return refute(phi, ev)


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
    bad = dataclasses.replace(witness, vanishing_proof=((forged, proof[0][1]),) + proof[1:])

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

"""JSON forms for representations, morphisms, handles, evidence and
certificates.

Every certificate serializes to a dict carrying "format": 1 and a "type"
tag plus enough context (quiver, field) to rebuild the objects from the
file alone. verify_certificate re-runs the certificate's own verification
on the rebuilt objects, so stored certificates never have to be trusted:
tampering shows up as a False, not as a crash, and a verification the
library cannot decide (an error of exit code 3) is refused, not answered.

The filtration and refutation forms import extfilt and counterex in the
functions that build their objects, so reading or writing one kind of
certificate loads no other kind's module.

Equal reps, morphisms and evidence are read once: rep_from_jsonable,
morphism_from_jsonable and evidence_from_jsonable keep what they built for
(parser, quiver, field, data) in one bounded lru_cache, so a certificate
that repeats a value (a witness names W in many morphisms and repeats its
vanishing maps) shares one immutable object. Handles, filtrations and
certificates are read afresh each time: their slots hold what this process
has computed, which a read must never inherit.

Equal reps are written once: rep_to_jsonable keeps each rep's JSON form
as marshal text in a bounded lru_cache keyed by the rep, and every writer
returns a fresh dict, which its caller may change without reaching
another certificate.
"""

import marshal
from functools import lru_cache

from .approx import (
    AddCategory,
    AddEvidence,
    ApproxCertificate,
    ExtCategory,
    ExtEvidence,
)
from .errors import ApproxcatError, CertificateError, _need, _typed
from .fields import FieldSpec
from .matrix import Matrix
from .quiver import Quiver
from .rep import Filtration, Rep, RepMorphism, ShortExactSeq

FORMAT = 1


def rep_to_jsonable(rep: Rep) -> dict:
    return marshal.loads(_rep_text(rep))


@lru_cache(maxsize=256)
def _rep_text(rep: Rep) -> bytes:
    """rep's JSON form as marshal text, which rep_to_jsonable loads into a
    fresh dict for every caller."""
    return marshal.dumps({
        "dims": list(rep.dims),
        "maps": {a.id: rep.map(a.id).to_jsonable() for a in rep.quiver.arrows},
    }, 2)


def _read_once(parse):
    """A reader that answers as parse(quiver, field, data) and parses
    equal (parse, quiver, field, data) once, while the bounded cache _read
    holds it.

    The key is data's marshal text, which writes only exact builtin types,
    each under its own type code: true, 1.0, a tuple or an int subclass
    never shares a key with the 1 or the list it resembles, so a cached
    read answers exactly as parse would. Data marshal refuses is read
    uncached, and a refusal is never cached."""
    def read(quiver: Quiver, field: FieldSpec, data):
        try:
            text = marshal.dumps(data, 2)
        except ValueError:
            return parse(quiver, field, data)
        return _read(parse, quiver, field, text)
    return read


@lru_cache(maxsize=256)
def _read(parse, quiver: Quiver, field: FieldSpec, text: bytes):
    return parse(quiver, field, marshal.loads(text))


def _parse_rep(quiver: Quiver, field: FieldSpec, data) -> Rep:
    dims = [_typed(d, int, "dims") for d in _need(data, "dims", list)]
    if len(dims) != quiver.vertex_count:
        raise CertificateError("one dimension per vertex required")
    maps = {}
    for aid, block in _typed(data.get("maps", {}), dict, "maps").items():
        # an unknown id is refused; Rep makes an omitted arrow act as zero
        a = quiver.arrow(aid)
        maps[aid] = Matrix.from_jsonable(field, block, rows=dims[a.target], cols=dims[a.source])
    return Rep(quiver, field, dims, maps)


rep_from_jsonable = _read_once(_parse_rep)


def morphism_to_jsonable(f: RepMorphism) -> dict:
    return {
        "source": rep_to_jsonable(f.source),
        "target": rep_to_jsonable(f.target),
        "components": [c.to_jsonable() for c in f.components],
    }


def _parse_morphism(quiver: Quiver, field: FieldSpec, data) -> RepMorphism:
    source = rep_from_jsonable(quiver, field, _need(data, "source"))
    target = rep_from_jsonable(quiver, field, _need(data, "target"))
    blocks = _need(data, "components", list)
    if len(blocks) != quiver.vertex_count:
        raise CertificateError("one component per vertex required")
    comps = [
        Matrix.from_jsonable(field, b, rows=target.dims[x], cols=source.dims[x])
        for x, b in enumerate(blocks)
    ]
    # naturality is the certificate verifier's job, not the parser's
    return RepMorphism(source, target, comps, check=False)


morphism_from_jsonable = _read_once(_parse_morphism)


def ses_to_jsonable(s: ShortExactSeq) -> dict:
    return {"i": morphism_to_jsonable(s.i), "p": morphism_to_jsonable(s.p)}


def ses_from_jsonable(quiver: Quiver, field: FieldSpec, data) -> ShortExactSeq:
    return ShortExactSeq(
        morphism_from_jsonable(quiver, field, _need(data, "i")),
        morphism_from_jsonable(quiver, field, _need(data, "p")),
    )


def handle_to_jsonable(handle) -> dict:
    if isinstance(handle, AddCategory):
        return {
            "kind": "add",
            "generators": [rep_to_jsonable(g) for g in handle.generators],
        }
    if isinstance(handle, ExtCategory):
        return {
            "kind": "ext",
            "left": handle_to_jsonable(handle.left),
            "right": handle_to_jsonable(handle.right),
        }
    raise CertificateError(f"not a handle: {handle!r}")


def handle_from_jsonable(quiver: Quiver, field: FieldSpec, data):
    kind = _need(data, "kind")
    if kind == "add":
        gens = [rep_from_jsonable(quiver, field, g) for g in _need(data, "generators", list)]
        return AddCategory(gens, quiver=quiver, field=field)
    if kind == "ext":
        return ExtCategory(
            handle_from_jsonable(quiver, field, _need(data, "left")),
            handle_from_jsonable(quiver, field, _need(data, "right")),
        )
    raise CertificateError(f"unknown handle kind {kind!r}")


def evidence_to_jsonable(ev) -> dict:
    if isinstance(ev, AddEvidence):
        return {
            "kind": "add",
            "multiplicities": list(ev.multiplicities),
            "iso": morphism_to_jsonable(ev.iso),
        }
    if isinstance(ev, ExtEvidence):
        return {
            "kind": "ext",
            "ses": ses_to_jsonable(ev.ses),
            "sub_evidence": evidence_to_jsonable(ev.sub_evidence),
            "quot_evidence": evidence_to_jsonable(ev.quot_evidence),
        }
    raise CertificateError(f"not membership evidence: {ev!r}")


def _parse_evidence(quiver: Quiver, field: FieldSpec, data):
    kind = _need(data, "kind")
    if kind == "add":
        mults = tuple(_typed(c, int, "multiplicities") for c in _need(data, "multiplicities", list))
        return AddEvidence(mults, morphism_from_jsonable(quiver, field, _need(data, "iso")))
    if kind == "ext":
        return ExtEvidence(
            ses_from_jsonable(quiver, field, _need(data, "ses")),
            evidence_from_jsonable(quiver, field, _need(data, "sub_evidence")),
            evidence_from_jsonable(quiver, field, _need(data, "quot_evidence")),
        )
    raise CertificateError(f"unknown evidence kind {kind!r}")


evidence_from_jsonable = _read_once(_parse_evidence)


def filtration_to_jsonable(f: Filtration) -> dict:
    return {"steps": [morphism_to_jsonable(s) for s in f.steps]}


def filtration_from_jsonable(quiver: Quiver, field: FieldSpec, data) -> Filtration:
    steps = [morphism_from_jsonable(quiver, field, s) for s in _need(data, "steps", list)]
    return Filtration(steps)


def config_to_jsonable(cfg) -> dict:
    return {"n_loops": cfg.n_loops, "field": cfg.field.label}


def config_from_jsonable(data):
    from .counterex import LoopQuiverConfig

    return LoopQuiverConfig(
        _need(data, "n_loops", int), FieldSpec.from_label(_need(data, "field"))
    )


def approx_certificate_to_jsonable(cert: ApproxCertificate) -> dict:
    quiver = cert.morphism.source.quiver
    field = cert.morphism.source.field
    return {
        "format": FORMAT,
        "type": "approximation",
        "quiver": quiver.to_jsonable(),
        "field": field.label,
        "side": cert.side,
        "morphism": morphism_to_jsonable(cert.morphism),
        "handle": handle_to_jsonable(cert.handle),
        "evidence": evidence_to_jsonable(cert.evidence),
    }


def approx_certificate_from_jsonable(data) -> ApproxCertificate:
    quiver = Quiver.from_jsonable(_need(data, "quiver"))
    field = FieldSpec.from_label(_need(data, "field"))
    return ApproxCertificate(
        side=_need(data, "side"),
        morphism=morphism_from_jsonable(quiver, field, _need(data, "morphism")),
        handle=handle_from_jsonable(quiver, field, _need(data, "handle")),
        evidence=evidence_from_jsonable(quiver, field, _need(data, "evidence")),
    )


def filtration_certificate_to_jsonable(cert) -> dict:
    quiver = cert.member.quiver
    field = cert.member.field
    return {
        "format": FORMAT,
        "type": "filtration",
        "quiver": quiver.to_jsonable(),
        "field": field.label,
        "member": rep_to_jsonable(cert.member),
        "family": [rep_to_jsonable(g) for g in cert.family.generators],
        "filtration": filtration_to_jsonable(cert.filtration),
        "factor_assignments": [
            evidence_to_jsonable(ev) for ev in cert.factor_assignments
        ],
    }


def filtration_certificate_from_jsonable(data):
    from .extfilt import FiltrationCertificate

    quiver = Quiver.from_jsonable(_need(data, "quiver"))
    field = FieldSpec.from_label(_need(data, "field"))
    family = AddCategory(
        [rep_from_jsonable(quiver, field, g) for g in _need(data, "family", list)],
        quiver=quiver, field=field,
    )
    return FiltrationCertificate(
        filtration=filtration_from_jsonable(quiver, field, _need(data, "filtration")),
        member=rep_from_jsonable(quiver, field, _need(data, "member")),
        family=family,
        factor_assignments=tuple(
            evidence_from_jsonable(quiver, field, ev)
            for ev in _need(data, "factor_assignments", list)
        ),
    )


def refutation_witness_to_jsonable(witness) -> dict:
    return {
        "format": FORMAT,
        "type": "refutation",
        "config": config_to_jsonable(witness.config),
        "candidate": morphism_to_jsonable(witness.candidate),
        "i0": witness.i0,
        "w": rep_to_jsonable(witness.w),
        "w_evidence": evidence_to_jsonable(witness.w_evidence),
        "nonzero_target_map": morphism_to_jsonable(witness.nonzero_target_map),
        "vanishing_proof": [
            [morphism_to_jsonable(f), morphism_to_jsonable(c)]
            for f, c in witness.vanishing_proof
        ],
        "escalated": bool(witness.escalated),
    }


def refutation_witness_from_jsonable(data):
    from .counterex import RefutationWitness

    cfg = config_from_jsonable(_need(data, "config"))
    quiver = cfg.quiver()
    field = cfg.field
    proof = []
    for pair in _need(data, "vanishing_proof", list):
        if len(_typed(pair, list, "vanishing_proof entry")) != 2:
            raise CertificateError("a vanishing_proof entry is a pair of morphisms")
        proof.append(tuple(morphism_from_jsonable(quiver, field, f) for f in pair))
    return RefutationWitness(
        candidate=morphism_from_jsonable(quiver, field, _need(data, "candidate")),
        i0=_need(data, "i0", int),
        w=rep_from_jsonable(quiver, field, _need(data, "w")),
        w_evidence=evidence_from_jsonable(quiver, field, _need(data, "w_evidence")),
        nonzero_target_map=morphism_from_jsonable(
            quiver, field, _need(data, "nonzero_target_map")
        ),
        vanishing_proof=tuple(proof),
        escalated=_typed(data.get("escalated", False), bool, "escalated"),
        config=cfg,
    )


def certificate_to_jsonable(cert) -> dict:
    # by class name, so that writing one kind imports no other kind's module
    name = type(cert).__name__
    if name == "ApproxCertificate":
        return approx_certificate_to_jsonable(cert)
    if name == "FiltrationCertificate":
        return filtration_certificate_to_jsonable(cert)
    if name == "RefutationWitness":
        return refutation_witness_to_jsonable(cert)
    raise CertificateError(f"not a certificate: {cert!r}")


_READERS = {
    "approximation": approx_certificate_from_jsonable,
    "filtration": filtration_certificate_from_jsonable,
    "refutation": refutation_witness_from_jsonable,
}


def _reader(data):
    """The parser for a certificate's type, after the envelope checks:
    data is an object of the current format with a known type."""
    if not isinstance(data, dict):
        raise CertificateError("a certificate must be a JSON object")
    fmt = _need(data, "format", int)
    if fmt != FORMAT:
        raise CertificateError(f"unsupported format {fmt!r}")
    kind = _need(data, "type", str)
    if kind not in _READERS:
        raise CertificateError(f"unknown certificate type {kind!r}")
    return _READERS[kind]


def certificate_from_jsonable(data):
    return _reader(data)(data)


def verify_certificate(data) -> bool:
    """Rebuild a serialized certificate and re-run its verification.

    Envelope problems (not an object, wrong format, missing or unknown
    type) raise CertificateError; a well-enveloped certificate whose
    content fails to rebuild or verify returns False. A refusal, an error
    of exit code 3 such as an approximation certificate whose property no
    approximation of the library's can check (ApproxCertificate), is
    raised: it is no negative answer.
    """
    read = _reader(data)
    try:
        return bool(read(data).verify())
    except ApproxcatError as exc:
        if exc.exit_code == 3:
            raise
        return False

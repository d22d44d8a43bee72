"""Golden-certificate gate: certificates and Hom/Ext bases recomputed from
fixed recipes must serialize byte for byte as the committed files under
tests/golden/, and every committed certificate must parse, re-serialize to
the same bytes and re-verify.

The corpus pins the canonical bases (first-nonzero pivot scan, fixed
free-variable order) through every kernel rewrite. Regenerate it only for
an intended change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import pathlib
from fractions import Fraction

import pytest

from approxcat.approx import AddCategory, left_approx_ext
from approxcat.counterex import (
    LoopQuiverConfig,
    assemble_member,
    build_standard,
    refute,
    standard_handle,
)
from approxcat.extfilt import member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import a2_quiver, loop_quiver
from approxcat.rep import Rep, ext1_basis, hom_basis
from approxcat.serialize import (
    certificate_from_jsonable,
    certificate_to_jsonable,
    verify_certificate,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
A2 = a2_quiver()
FIELDS = {"F2": FieldSpec.prime(2), "F3": FieldSpec.prime(3), "Q": FieldSpec.rationals()}
# one non-trivial scalar per field, so Q entries are not all integers
C = {"F2": 1, "F3": 2, "Q": Fraction(-1, 2)}


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def _a2_reps(F, c):
    s1 = Rep.simple(A2, F, 0)
    s2 = Rep.simple(A2, F, 1)
    p1 = Rep(A2, F, [1, 1], {"a": Matrix(F, 1, 1, [1])})
    m = Rep(A2, F, [3, 2], {"a": Matrix(F, 2, 3, [1, c, 0, 0, 0, 0])})
    return s1, s2, p1, m


def approximation(label):
    F, c = FIELDS[label], C[label]
    s1, s2, p1, m = _a2_reps(F, c)
    return certificate_to_jsonable(left_approx_ext(m, AddCategory([s1]), AddCategory([p1, s2])))


def filtration(label):
    F, c = FIELDS[label], C[label]
    if F.kind == "rationals":
        # beyond depth 1 the search needs a finite field
        s1, s2, p1, _ = _a2_reps(F, c)
        m = Rep(A2, F, [2, 1], {"a": Matrix(F, 1, 2, [c, 1])})
        return certificate_to_jsonable(member_filt(m, [s2, s1, p1], 1))
    q = loop_quiver(1)
    s = Rep(q, F, [1], {"alpha1": Matrix(F, 1, 1, [0])})
    jordan = Rep(q, F, [3], {"alpha1": Matrix(F, 3, 3, [0, 0, 0, 1, 0, 0, c, 1, 0])})
    return certificate_to_jsonable(member_filt(jordan, [s], 3))


def refutation(label):
    F, c = FIELDS[label], C[label]
    cfg = LoopQuiverConfig(2, F)
    handle = standard_handle(cfg)
    sub, _ = handle.left.canonical_sum((2,))
    quot, _ = handle.right.canonical_sum((1,))
    n = len(ext1_basis(quot, sub))
    member, ev = assemble_member(cfg, 2, 1, [c if k % 2 == 0 else 1 for k in range(n)])
    s2 = build_standard(cfg)[1]
    return certificate_to_jsonable(refute(hom_basis(s2, member)[-1], ev))


def bases_q():
    """hom_basis and ext1_basis over Q, which no benchmark workload runs."""
    F = FIELDS["Q"]
    half = Fraction(1, 2)
    q = loop_quiver(1)
    v = Rep(q, F, [3], {"alpha1": Matrix(F, 3, 3, [0, 0, 0, 1, 0, 0, half, 1, 0])})
    w = Rep(q, F, [2], {"alpha1": Matrix(F, 2, 2, [0, 0, Fraction(-2, 3), 0])})
    s1, s2, p1, m = _a2_reps(F, Fraction(3, 4))
    out = {}
    for name, (a, b) in {
        "loop_v_w": (v, w), "loop_w_v": (w, v), "loop_v_v": (v, v),
        "a2_m_p1": (m, p1), "a2_s2_m": (s2, m), "a2_m_s1": (m, s1),
    }.items():
        out[name] = {
            "hom_basis": [[c.to_jsonable() for c in f.components] for f in hom_basis(a, b)],
            "ext1_basis": [
                {aid: g.to_jsonable() for aid, g in sorted(cocycle.items())}
                for cocycle in ext1_basis(a, b)
            ],
        }
    return out


CASES = {
    f"{kind.__name__}-{label}": (lambda kind=kind, label=label: kind(label))
    for kind in (approximation, filtration, refutation)
    for label in FIELDS
}
CASES["bases-Q"] = bases_q


@pytest.mark.parametrize("name", sorted(CASES))
def test_recomputed_output_is_byte_identical(name):
    assert dumps(CASES[name]()) == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(n for n in CASES if n != "bases-Q"))
def test_certificate_reserializes_and_verifies(name):
    text = (GOLDEN / f"{name}.json").read_text()
    data = json.loads(text)
    assert dumps(certificate_to_jsonable(certificate_from_jsonable(data))) == text
    assert verify_certificate(data)


def test_corpus_has_no_stray_files():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in sorted(CASES.items()):
        (GOLDEN / f"{name}.json").write_text(dumps(make()))

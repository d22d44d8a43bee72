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

from approxcat.approx import (
    AddCategory,
    ExtCategory,
    factor_through,
    factor_through_right,
    left_approx,
    left_approx_add,
    left_approx_ext,
    left_approx_ext_subclosed,
    right_approx_add,
)
from approxcat.counterex import (
    LoopQuiverConfig,
    assemble_member,
    build_standard,
    refute,
    standard_handle,
)
from approxcat.extfilt import filt_normalize, fr_enumerate, member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import Rep, direct_sum, ext1_basis, hom_basis
from approxcat.serialize import (
    certificate_from_jsonable,
    certificate_to_jsonable,
    rep_to_jsonable,
    verify_certificate,
)
from test_cache_props import clear_every_cache

GOLDEN = pathlib.Path(__file__).parent / "golden"
A2 = a2_quiver()
A3 = Quiver(3, [("a", 0, 1), ("b", 1, 2)])
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


def approximation_subclosed(label):
    """left_approx_ext_subclosed, which replaces the y-approximation by its
    image: the one-loop J2 and J3 over (add{S}, add{S}), and the A2 rep m
    over (add{S2}, add{S1, S2})."""
    F, c = FIELDS[label], C[label]
    s1, s2, _, m = _a2_reps(F, c)
    q = loop_quiver(1)
    s = Rep(q, F, [1], {"alpha1": Matrix(F, 1, 1, [0])})
    j2 = Rep(q, F, [2], {"alpha1": Matrix(F, 2, 2, [0, 0, 1, 0])})
    j3 = Rep(q, F, [3], {"alpha1": Matrix(F, 3, 3, [0, 0, 0, 1, 0, 0, c, 1, 0])})
    add_s = AddCategory([s])
    return {
        "loop_j2": certificate_to_jsonable(left_approx_ext_subclosed(j2, add_s, add_s)),
        "loop_j3": certificate_to_jsonable(left_approx_ext_subclosed(j3, add_s, add_s)),
        "a2_m": certificate_to_jsonable(
            left_approx_ext_subclosed(m, AddCategory([s2]), AddCategory([s1, s2]))),
    }


def approximation_nested(label):
    """left_approx into three-level handle trees add X_1 * (add X_2 *
    add X_3), by recursion: (S3, S2, S1) on linear A3 and (S2, P1, S1) on
    A2, so the certificates carry nested extension evidence."""
    F, c = FIELDS[label], C[label]
    s1, s2, p1, m = _a2_reps(F, c)
    t1, t2, t3 = (Rep.simple(A3, F, v) for v in range(3))
    n = Rep(A3, F, [2, 2, 1], {"a": Matrix(F, 2, 2, [1, 0, 0, c]), "b": Matrix(F, 1, 2, [1, 1])})

    def tree(x1, x2, x3):
        return ExtCategory(AddCategory([x1]), ExtCategory(AddCategory([x2]), AddCategory([x3])))

    return {
        "a3_s3_s2_s1": certificate_to_jsonable(left_approx(n, tree(t3, t2, t1))),
        "a2_s2_p1_s1": certificate_to_jsonable(left_approx(m, tree(s2, p1, s1))),
    }


def filtration(label):
    F, c = FIELDS[label], C[label]
    if F.kind == "rationals":
        # depth 1 over a family with P1; filtration_deep-Q goes deeper
        s1, s2, p1, _ = _a2_reps(F, c)
        m = Rep(A2, F, [2, 1], {"a": Matrix(F, 1, 2, [c, 1])})
        return certificate_to_jsonable(member_filt(m, [s2, s1, p1], 1))
    q = loop_quiver(1)
    s = Rep(q, F, [1], {"alpha1": Matrix(F, 1, 1, [0])})
    jordan = Rep(q, F, [3], {"alpha1": Matrix(F, 3, 3, [0, 0, 0, 1, 0, 0, c, 1, 0])})
    return certificate_to_jsonable(member_filt(jordan, [s], 3))


def filtration_search(label):
    """Depth 2 over the loop family [J2], which is not vertex-simple, so
    the certificate comes from the subrepresentation peel search."""
    F, c = FIELDS[label], C[label]
    q = loop_quiver(1)
    j2 = Rep(q, F, [2], {"alpha1": Matrix(F, 2, 2, [0, 0, 1, 0])})
    j4 = Rep(q, F, [4], {"alpha1": Matrix(
        F, 4, 4, [0, 0, 0, 0, 1, 0, 0, 0, c, 1, 0, 0, 0, c, 1, 0])})
    return certificate_to_jsonable(member_filt(j4, [j2], 3))


def filtration_deep(label):
    """A2 over (S2, S1) at depth 4, beyond the Loewy length 2, so no level
    peels a radical power; the first peel misses the image of the arrow,
    which makes the certificate three layers deep."""
    F, c = FIELDS[label], C[label]
    s1, s2, _, _ = _a2_reps(F, c)
    m = Rep(A2, F, [3, 2], {"a": Matrix(F, 2, 3, [0, 0, 0, 1, c, 0])})
    return certificate_to_jsonable(member_filt(m, [s2, s1], 4))


def normalization(name):
    """filt_normalize over (S2, S1) of the committed deep certificates
    (F3, Q), read from their golden files, and of the depth-4 certificate of
    the A2 rep of dims (3, 2) over F3 whose arrow has image e_0: the first
    peel is that image, so the top layer S1^3 + S2 mixes both simples and
    normalization splits it."""
    if name == "mixed-F3":
        F, c = FIELDS["F3"], C["F3"]
        s1, s2, _, _ = _a2_reps(F, c)
        m = Rep(A2, F, [3, 2], {"a": Matrix(F, 2, 3, [1, c, 0, 0, 0, 0])})
        cert = member_filt(m, [s2, s1], 4)
    else:
        label = name.removeprefix("deep-")
        cert = certificate_from_jsonable(
            json.loads((GOLDEN / f"filtration_deep-{label}.json").read_text()))
    return certificate_to_jsonable(filt_normalize(cert))


def filtration_semisimple(label):
    """Depth 2 over a semisimple family that is not vertex-simple, so the
    peel search runs over the joint kernels of the outgoing maps: J2+J2
    over [S+S] on the one-loop quiver (F2), and the A2 rep of dims (2, 2)
    with a = [[1, 0], [0, 0]] over [S1+S2] (F3)."""
    F = FIELDS[label]
    if label == "F2":
        q = loop_quiver(1)
        s = Rep(q, F, [1])
        j2 = Rep(q, F, [2], {"alpha1": Matrix(F, 2, 2, [0, 0, 1, 0])})
        m, gen = direct_sum([j2, j2])[0], direct_sum([s, s])[0]
    else:
        s1, s2, _, _ = _a2_reps(F, C[label])
        m = Rep(A2, F, [2, 2], {"a": Matrix(F, 2, 2, [1, 0, 0, 0])})
        gen = direct_sum([s1, s2])[0]
    return certificate_to_jsonable(member_filt(m, [gen], 2))


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


def enumeration(label):
    """fr_enumerate of [S1, S2] on A2 at r = 2 within (2, 2), and of [S]
    on the one-loop quiver at r = 3 within (3,)."""
    F = FIELDS[label]
    s1, s2, _, _ = _a2_reps(F, C[label])
    s = Rep(loop_quiver(1), F, [1])
    return {
        "a2_s1_s2": [rep_to_jsonable(v) for v in fr_enumerate([s1, s2], 2, (2, 2))],
        "loop_s": [rep_to_jsonable(v) for v in fr_enumerate([s], 3, (3,))],
    }


def _components(f):
    return None if f is None else [c.to_jsonable() for c in f.components]


def factorization(label):
    """factor_through of every hom_basis morphism out of m into split
    targets, through left approximations by an extension category and by
    add handles (one of which misses S1 and P1, so some answers are None),
    on A2 and the one-loop quiver; factor_through_right of every hom_basis
    morphism from split sources into m, through right add-approximations."""
    F, c = FIELDS[label], C[label]
    s1, s2, p1, m = _a2_reps(F, c)
    q = loop_quiver(1)
    s = Rep(q, F, [1], {"alpha1": Matrix(F, 1, 1, [0])})
    j2 = Rep(q, F, [2], {"alpha1": Matrix(F, 2, 2, [0, 0, 1, 0])})
    j3 = Rep(q, F, [3], {"alpha1": Matrix(F, 3, 3, [0, 0, 0, 1, 0, 0, c, 1, 0])})
    split = {
        "a2": [[s1, s2], [p1, s1], [p1, s2, s2], [s1, s1, s2]],
        "loop": [[s, j2], [j2, j2], [j3]],
    }
    left = {
        "ext_s1_p1s2": (m, left_approx_ext(m, AddCategory([s1]), AddCategory([p1, s2])), "a2"),
        "add_s2": (m, left_approx_add(m, AddCategory([s2])), "a2"),
        "add_p1s1": (m, left_approx_add(m, AddCategory([p1, s1])), "a2"),
        "loop_add_j2": (j3, left_approx_add(j3, AddCategory([j2])), "loop"),
    }
    right = {
        "add_p1s2": (m, right_approx_add(m, AddCategory([p1, s2])), "a2"),
        "add_s1": (m, right_approx_add(m, AddCategory([s1])), "a2"),
        "loop_add_s": (j3, right_approx_add(j3, AddCategory([s])), "loop"),
    }
    out = {}
    for side, certs in (("left", left), ("right", right)):
        for name, (v, cert, quiver) in certs.items():
            z = cert.morphism
            rows = []
            for reps in split[quiver]:
                w = direct_sum(reps)[0]
                if side == "left":
                    pairs = [(f, factor_through(f, z)) for f in hom_basis(v, w)]
                else:
                    pairs = [(f, factor_through_right(f, z)) for f in hom_basis(w, v)]
                rows.append({
                    "dims": list(w.dims),
                    "pairs": [{"f": _components(f), "h": _components(h)} for f, h in pairs],
                })
            out[f"{side}_{name}"] = {"z": _components(z), "targets": rows}
    return out


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
    for kind in (approximation, approximation_subclosed, approximation_nested, filtration,
                 refutation)
    for label in FIELDS
}
CASES.update({
    f"filtration_search-{label}": (lambda label=label: filtration_search(label))
    for label in ("F2", "F3")
})
CASES.update({
    f"filtration_semisimple-{label}": (lambda label=label: filtration_semisimple(label))
    for label in ("F2", "F3")
})
CASES.update({
    f"enumeration-{label}": (lambda label=label: enumeration(label))
    for label in ("F2", "F3")
})
CASES.update({
    f"filtration_deep-{label}": (lambda label=label: filtration_deep(label))
    for label in ("F3", "Q")
})
CASES.update({
    f"normalization-{name}": (lambda name=name: normalization(name))
    for name in ("deep-F3", "deep-Q", "mixed-F3")
})
CASES["bases-Q"] = bases_q
CASES.update({
    f"factorization-{label}": (lambda label=label: factorization(label))
    for label in FIELDS
})
# recomputed data, not certificates
NOT_CERTIFICATES = (
    {"bases-Q"}
    | {f"factorization-{label}" for label in FIELDS}
    | {f"enumeration-{label}" for label in ("F2", "F3")}
)


def _certificates(data):
    """The certificates in a golden file: one, or a bundle keyed by name."""
    return [data] if "type" in data else list(data.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_recomputed_output_is_byte_identical(name):
    assert dumps(CASES[name]()) == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(set(CASES) - NOT_CERTIFICATES))
def test_certificate_reserializes_and_verifies(name):
    for data in _certificates(json.loads((GOLDEN / f"{name}.json").read_text())):
        assert dumps(certificate_to_jsonable(certificate_from_jsonable(data))) == dumps(data)
        assert verify_certificate(data)


def _rewritten(data):
    """The golden file's text with every certificate in it read and written
    again."""
    if "type" in data:
        return dumps(certificate_to_jsonable(certificate_from_jsonable(data)))
    return dumps({k: certificate_to_jsonable(certificate_from_jsonable(v)) for k, v in data.items()})


# equal reps are written once (serialize._rep_text): the second write reads
# every rep's JSON form from the warm cache, the third writes it afresh
@pytest.mark.parametrize("name", sorted(set(CASES) - NOT_CERTIFICATES))
def test_warm_and_cold_writes_give_the_same_bytes(name):
    text = (GOLDEN / f"{name}.json").read_text()
    data = json.loads(text)
    assert _rewritten(data) == text
    assert _rewritten(data) == text
    assert clear_every_cache() > 0
    assert _rewritten(data) == text


@pytest.mark.parametrize("name", sorted(set(CASES) - NOT_CERTIFICATES))
def test_certificate_read_twice_is_one_value(name):
    for data in _certificates(json.loads((GOLDEN / f"{name}.json").read_text())):
        a, b = certificate_from_jsonable(data), certificate_from_jsonable(data)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def _zeroed_morphism(data):
    """data with every entry of its morphism's components set to 0."""
    morphism = dict(data["morphism"], components=[
        [[0] * len(row) for row in c] for c in data["morphism"]["components"]])
    return dict(data, morphism=morphism)


APPROXIMATIONS = [
    (name, i) for name in sorted(CASES) if name.startswith("approximation")
    for i in range(len(_certificates(json.loads((GOLDEN / f"{name}.json").read_text()))))
]


# the zero morphism into a member of the handle is natural and its far end
# lies in the handle, but it is no approximation: the library's own
# approximation of the same m does not factor through it
@pytest.mark.parametrize("name, i", APPROXIMATIONS, ids=[f"{n}-{i}" for n, i in APPROXIMATIONS])
def test_zeroed_approximation_morphism_does_not_verify(name, i):
    data = _certificates(json.loads((GOLDEN / f"{name}.json").read_text()))[i]
    mutant = _zeroed_morphism(data)
    if mutant == data:
        pytest.fail("the golden morphism is zero already")
    assert not verify_certificate(mutant)


def test_corpus_has_no_stray_files():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in sorted(CASES.items()):
        (GOLDEN / f"{name}.json").write_text(dumps(make()))

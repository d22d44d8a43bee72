"""Property tests of minimize_approx.

minimize_approx drops generator summands in one greedy pass. That is
enough because factoring is monotone in the summands kept: what factors
through the restriction to a set A of summands factors through the
restriction to any B containing A, so a summand the pass keeps never
becomes droppable. The reference is the body it replaced, kept below:
re-run the pass until nothing changes, recomputing the hom bases on every
trial. Over F2, F3 and Q, on A2 and the one-loop quiver, on both sides,
with handles whose generators may be decomposable or repeated, both must
give the same serialized certificate.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.approx import (
    AddCategory,
    AddEvidence,
    ApproxCertificate,
    factor_through,
    factor_through_right,
    left_approx_add,
    minimize_approx,
    right_approx_add,
)
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import a2_quiver, loop_quiver
from approxcat.rep import Rep, RepMorphism, compose, direct_sum, hom_basis
from approxcat.serialize import certificate_to_jsonable

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.rationals()]
QUIVERS = [a2_quiver(), loop_quiver(1)]
SETTINGS = settings(max_examples=80, deadline=None)


def ref_minimize_approx(cert):
    """The fixpoint body minimize_approx had before the one-pass lemma."""
    handle = cert.handle
    m = cert.of
    morphism = cert.morphism
    iso = cert.evidence.iso
    if cert.side == "left":
        morphism = compose(iso, morphism)
    else:
        morphism = compose(morphism, iso.inverse())
    _, layout = handle.canonical_sum(cert.evidence.multiplicities)
    layout = list(layout)
    gens = handle.generators

    def restricted(positions):
        reps = [gens[layout[p]] for p in positions]
        total, _, _ = direct_sum(reps, quiver=handle.quiver, field=handle.field)
        comps = []
        for x in range(m.quiver.vertex_count):
            ranges = []
            off = 0
            for i in layout:
                d = gens[i].dims[x]
                ranges.append((off, off + d))
                off += d
            rows = [r for p in positions for r in range(*ranges[p])]
            if cert.side == "left":
                comps.append(morphism.component(x).take_rows(rows))
            else:
                comps.append(morphism.component(x).take_cols(rows))
        if cert.side == "left":
            return total, RepMorphism(m, total, comps, check=False)
        return total, RepMorphism(total, m, comps, check=False)

    def still_approximates(z):
        for g in gens:
            if cert.side == "left":
                for b in hom_basis(m, g):
                    if factor_through(b, z) is None:
                        return False
            else:
                for b in hom_basis(g, m):
                    if factor_through_right(b, z) is None:
                        return False
        return True

    kept_positions = list(range(len(layout)))
    changed = True
    while changed:
        changed = False
        for pos in list(kept_positions):
            if pos not in kept_positions:
                continue
            trial = [p for p in kept_positions if p != pos]
            total, z = restricted(trial)
            if still_approximates(z):
                kept_positions = trial
                changed = True
    total, z = restricted(kept_positions)
    kept = [layout[p] for p in kept_positions]
    mults = tuple(kept.count(i) for i in range(len(gens)))
    evidence = AddEvidence(mults, RepMorphism.identity(total))
    return ApproxCertificate(cert.side, z, handle, evidence)


def scalars(F):
    # mostly zeros, so hom spaces are large and summands often redundant
    if F.kind == "rationals":
        return st.sampled_from([0, 0, 0, 1, 1, -1, Fraction(1, 2)])
    return st.sampled_from([0, 0, 0, 1, 1, F.modulus - 1])


@st.composite
def reps(draw, q, F, max_dim=2):
    dims = [draw(st.integers(0, max_dim)) for _ in range(q.vertex_count)]
    maps = {}
    for a in q.arrows:
        rows, cols = dims[a.target], dims[a.source]
        entries = draw(st.lists(scalars(F), min_size=rows * cols, max_size=rows * cols))
        maps[a.id] = Matrix(F, rows, cols, entries)
    return Rep(q, F, dims, maps)


@st.composite
def generators(draw, q, F):
    """One to three generators, among them possibly a direct sum of two
    drawn representations and a repeat of an earlier generator."""
    gens = [draw(reps(q, F, max_dim=1)) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        gens.append(direct_sum([draw(reps(q, F, max_dim=1)), draw(reps(q, F, max_dim=1))])[0])
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), gens[draw(st.integers(0, len(gens) - 1))])
    return gens[:3]


@st.composite
def certificates(draw):
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    m = draw(reps(q, F))
    handle = AddCategory(draw(generators(q, F)))
    approx = draw(st.sampled_from([left_approx_add, right_approx_add]))
    return approx(m, handle)


@SETTINGS
@given(certificates())
def test_one_pass_matches_the_fixpoint(cert):
    got = minimize_approx(cert)
    want = ref_minimize_approx(cert)
    assert certificate_to_jsonable(got) == certificate_to_jsonable(want)
    assert got.verify()

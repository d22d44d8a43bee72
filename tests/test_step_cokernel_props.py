"""Property test of the cokernel a filtration keeps for each step.

A Filtration computes the cokernel of each step once, on first use, and
keeps it; verify, filt_exchange, filt_normalize and the certificate
construction over a family with nonzero arrow maps all read that one
factor (over a zero-map family the construction reads each factor off the
dimensions of its step, which test_filt_evidence_props checks). Over F2,
F3 and Q, for
certificates from member_filt (vertex-simple families, and over F_p
families that the peel search decides), from filt_normalize, and read back
from JSON, every kept factor and projection must equal a fresh cokernel of
its step, and verify must agree with a freshly read copy. Deciding
membership over a family with zero arrow maps must leave no rref on the
member's own maps: the radical series reads them, and a memo holds on to
every member it decided. A Matrix has no slot for one (eliminations are
cached by value in approxcat.matrix), which the test asserts.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.extfilt import OrderedFamily, filt_normalize, member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import a2_quiver, loop_quiver
from approxcat.rep import Rep, cokernel, direct_sum_rep
from approxcat.serialize import certificate_from_jsonable, certificate_to_jsonable

Q = FieldSpec.rationals()
FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), Q]
A2, LOOP = a2_quiver(), loop_quiver(1)
Q_POOL = [0, 0, 1, -1, 2, Fraction(1, 2)]


def families(field):
    """(quiver, generators, zero arrow maps, Ext-ordered for filt_normalize)
    for each family; the peel-search families only over a prime field."""
    s = Rep.simple(LOOP, field, 0)
    s1, s2 = Rep.simple(A2, field, 0), Rep.simple(A2, field, 1)
    out = [(LOOP, [s], True, False), (A2, [s2, s1], True, True)]
    if field != Q:
        j2 = Rep(LOOP, field, [2], {"alpha1": Matrix(field, 2, 2, [0, 0, 1, 0])})
        p1 = Rep(A2, field, [1, 1], {"a": Matrix(field, 1, 1, [1])})
        out += [
            (LOOP, [direct_sum_rep([s, s])], True, False),
            (LOOP, [j2, s], False, False),
            (A2, [direct_sum_rep([s1, s2])], True, False),
            (A2, [p1, s2], False, True),
        ]
    return out


@st.composite
def cases(draw):
    field = draw(st.sampled_from(FIELDS))
    quiver, gens, zero_maps, ordered = draw(st.sampled_from(families(field)))
    scalar = (st.sampled_from(Q_POOL) if field == Q
              else st.integers(0, field.modulus - 1))
    dims = [draw(st.integers(0, 3 if quiver == LOOP else 2)) for _ in range(quiver.vertex_count)]
    # half the draws strictly lower triangular, so that a loop is nilpotent
    lower = quiver == LOOP and draw(st.booleans())
    maps = {}
    for a in quiver.arrows:
        rows, cols = dims[a.target], dims[a.source]
        entries = draw(st.lists(scalar, min_size=rows * cols, max_size=rows * cols))
        if lower:
            entries = [e if i > j else 0 for (i, j), e in
                       zip(((i, j) for i in range(rows) for j in range(cols)), entries)]
        maps[a.id] = Matrix(field, rows, cols, entries)
    return Rep(quiver, field, dims, maps), gens, zero_maps, ordered


def kept_cokernels_are_fresh(filt):
    for j, step in enumerate(filt.steps):
        kept, fresh = filt.step_cokernel(j), cokernel(step)
        if kept[0] != fresh[0] or kept[1] != fresh[1] or filt.factor(j) is not kept[0]:
            return False
    return True


def check(cert):
    verified = cert.verify()
    assert kept_cokernels_are_fresh(cert.filtration)
    copy = certificate_from_jsonable(certificate_to_jsonable(cert))
    assert copy.verify() == verified
    assert kept_cokernels_are_fresh(copy.filtration)
    return verified


@settings(max_examples=200, deadline=None)
@given(cases())
def test_every_step_cokernel_is_computed_once_and_equals_a_fresh_one(case):
    m, gens, zero_maps, ordered = case
    family = OrderedFamily(gens)
    for r in (1, 2, 3, 4):
        cert = member_filt(m, family, r)
        if zero_maps:
            # a Matrix holds its field, shape and entries and nothing else, so
            # no elimination is left on the member's maps
            assert Matrix.__slots__ == ("field", "rows", "cols", "_e")
            assert not any(hasattr(m.map(a.id), "__dict__") for a in m.quiver.arrows)
        if cert is None:
            continue
        assert check(cert)
        if ordered:
            assert check(filt_normalize(cert))

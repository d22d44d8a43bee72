"""ApproxCertificate.verify checks the approximation property.

f: m -> t (t -> m on the right) is an approximation of m into a handle C
exactly when the library's own approximation z of m factors through f: z
goes into C, and every morphism between m and C factors through z. verify
asks for that one factorization of every certificate the library did not
build itself, and a certificate read back from its JSON never counts as
built by the library. Over F2, F3, F5 and Q, on A2, linear A3 and the
one-loop quiver:

- every add-approximation left_approx_add and right_approx_add build, and
  every minimized one, verifies, in process and from its JSON;
- composing f with the endomorphism of its far end that kills one summand
  gives a certificate that verifies exactly when every hom basis morphism
  between m and each generator factors through the result, the definition
  checked generator by generator; on a minimized certificate it never
  verifies, since no summand of a minimal approximation can be dropped;
- the zero morphism between the same ends verifies exactly when f is zero,
  that is when no nonzero morphism joins m and the handle;
- a left approximation into an ext handle (left_approx_ext on the acyclic
  quivers, left_approx_ext_subclosed with a vertex-simple y on the loop)
  verifies from its JSON, and so does its zeroed morphism exactly when it
  is zero.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.approx import (
    AddCategory,
    ApproxCertificate,
    factor_through,
    factor_through_right,
    left_approx_add,
    left_approx_ext,
    left_approx_ext_subclosed,
    minimize_approx,
    right_approx_add,
)
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import Rep, RepMorphism, hom_basis
from approxcat.serialize import certificate_to_jsonable, verify_certificate

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), FieldSpec.rationals()]
A3 = Quiver(3, [("a", 0, 1), ("b", 1, 2)])
QUIVERS = [a2_quiver(), A3, loop_quiver(1)]
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def scalars(F):
    # mostly zeros and ones, so hom spaces are large and summands redundant
    if F.kind == "rationals":
        return st.sampled_from([0, 0, 1, 1, -1, Fraction(1, 2)])
    return st.sampled_from([0, 0, 1, 1, F.modulus - 1])


@st.composite
def reps(draw, q, F, max_dim=2):
    dims = [draw(st.integers(0, max_dim)) for _ in range(q.vertex_count)]
    maps = {}
    for a in q.arrows:
        n = dims[a.target] * dims[a.source]
        maps[a.id] = Matrix(F, dims[a.target], dims[a.source],
                            draw(st.lists(scalars(F), min_size=n, max_size=n)))
    return Rep(q, F, dims, maps)


def both_ways(cert) -> bool:
    """cert.verify() in process, which must agree with verify_certificate
    of its JSON."""
    got = cert.verify()
    assert verify_certificate(certificate_to_jsonable(cert)) is got
    return got


def _summand_rows(cert, pos):
    """Per vertex, the rows (left) or columns (right) of the far end that
    summand pos of the canonical sum occupies."""
    gens = cert.handle.generators
    layout = cert.handle._layout(cert.evidence.multiplicities)
    out = []
    for x in range(cert.of.quiver.vertex_count):
        start = sum(gens[i].dims[x] for i in layout[:pos])
        out.append(set(range(start, start + gens[layout[pos]].dims[x])))
    return out


def killed(cert, pos):
    """cert with its morphism composed with the endomorphism of the far end
    that is zero on summand pos and the identity elsewhere."""
    f, left = cert.morphism, cert.side == "left"
    comps = []
    for c, rows in zip(f.components, _summand_rows(cert, pos)):
        e = c.flat()
        comps.append(Matrix(c.field, c.rows, c.cols, [
            0 if (k // c.cols if left else k % c.cols) in rows else v for k, v in enumerate(e)]))
    return ApproxCertificate(cert.side, RepMorphism(f.source, f.target, comps),
                             cert.handle, cert.evidence)


def approximates(f, m, handle, left) -> bool:
    """Whether every hom basis morphism between m and each generator
    factors through f."""
    if left:
        return all(factor_through(b, f) is not None
                   for g in handle.generators for b in hom_basis(m, g))
    return all(factor_through_right(b, f) is not None
               for g in handle.generators for b in hom_basis(g, m))


def zeroed(cert):
    f = cert.morphism
    return ApproxCertificate(cert.side, RepMorphism.zero(f.source, f.target),
                             cert.handle, cert.evidence)


@st.composite
def add_certificates(draw):
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    m = draw(reps(q, F))
    gens = [draw(reps(q, F, max_dim=1)) for _ in range(draw(st.integers(1, 3)))]
    build = draw(st.sampled_from([left_approx_add, right_approx_add]))
    return build(m, AddCategory(gens))


@SETTINGS
@given(add_certificates(), st.data())
def test_add_approximations_verify_and_a_killed_summand_is_judged(cert, data):
    left = cert.side == "left"
    assert cert._own and both_ways(cert)
    assert both_ways(zeroed(cert)) is cert.morphism.is_zero()
    n = sum(cert.evidence.multiplicities)
    if n:
        pos = data.draw(st.integers(0, n - 1))
        bad = killed(cert, pos)
        assert not bad._own
        assert both_ways(bad) is approximates(bad.morphism, cert.of, cert.handle, left)
    small = minimize_approx(cert)
    assert small._own and both_ways(small)
    for pos in range(sum(small.evidence.multiplicities)):
        assert not both_ways(killed(small, pos))


@st.composite
def ext_certificates(draw):
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    m = draw(reps(q, F, max_dim=1 if q is A3 else 2))
    x = AddCategory([draw(reps(q, F, max_dim=1)) for _ in range(draw(st.integers(1, 2)))])
    if q.is_acyclic:
        y = AddCategory([draw(reps(q, F, max_dim=1)) for _ in range(draw(st.integers(1, 2)))])
        return left_approx_ext(m, x, y)
    # add{S} is vertex-simple, so closed under subobjects by theorem
    return left_approx_ext_subclosed(m, x, AddCategory([Rep.simple(q, F, 0)]))


@SETTINGS
@given(ext_certificates())
def test_ext_approximations_verify_from_json(cert):
    assert cert._own and both_ways(cert)
    assert both_ways(zeroed(cert)) is cert.morphism.is_zero()

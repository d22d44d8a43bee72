"""Property tests of Hom into a semisimple representation.

A far end w whose arrows all act by zero is the sum of w_x copies of each
simple S_x, and Hom is additive, so rep._hom_kernel assembles the kernel
of Hom(v, w) from the kernels of Hom(v, S_x), and the left factorization
system through z (rep._system) from the systems for each S_x. Neither
assembly eliminates anything, and both must give what the general path
gives, entry for entry: over F2, F3, F5 and Q, on A2, linear A3, the
one-loop, the Kronecker and the loop-and-exit quiver,

- _hom_kernel(v, w) equals the kernel of _hom_system(v, w): the same
  basis K and the same free columns;
- the assembled left system equals _factor_system(z, w, "left"), row for
  row, compared as lists;
- factor_through answers as the reference that composes the hom basis
  with z and solves, on hom basis morphisms, on a combination of them and
  on a morphism built with check=False that is not natural, which never
  factors.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from approxcat.approx import factor_through
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import (
    Rep,
    RepMorphism,
    _factor_system,
    _hom_kernel,
    _hom_system,
    _system,
    hom_basis,
)
from test_factor_props import FIELDS, combination, ref_factor_through, reps, scalars

QUIVERS = [
    a2_quiver(),
    Quiver(3, [("a", 0, 1), ("b", 1, 2)]),
    loop_quiver(1),
    Quiver(2, [("a", 0, 1), ("b", 0, 1)]),
    Quiver(2, [("alpha1", 0, 0), ("beta", 0, 1)]),
]
SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def semisimple_cases(draw):
    """(v, w, z): v and the source of z drawn reps, w a zero-map rep of
    drawn dims (zero, simple and larger sums alike), z out of v, a hom
    basis element or a drawn combination of the basis."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    v, t = draw(reps(q, F)), draw(reps(q, F))
    w = Rep(q, F, [draw(st.integers(0, 3)) for _ in range(q.vertex_count)])
    basis = hom_basis(v, t)
    if basis and draw(st.booleans()):
        z = basis[draw(st.integers(0, len(basis) - 1))]
    else:
        z = draw(combination(basis, v, t))
    return v, w, z


def as_lists(system):
    units, others, *rows = system
    return [list(units), list(others)] + [[list(r) for r in part] for part in rows]


@SETTINGS
@given(semisimple_cases())
def test_the_assembled_hom_kernel_is_the_eliminated_one(case):
    v, w, _ = case
    for a, b in ((v, w), (w, v)):
        got = _hom_kernel(a, b)
        want = _hom_system(a, b).kernel()
        assert got == want
        assert type(got[1]) is tuple


@SETTINGS
@given(semisimple_cases())
def test_the_assembled_left_system_is_the_eliminated_one(case):
    v, w, z = case
    got = as_lists(_system(z, w, "left"))
    assert got == as_lists(_factor_system(z, w, "left"))
    # read back from the memo on z, it is the same system
    assert as_lists(_system(z, w, "left")) == got


@SETTINGS
@given(semisimple_cases(), st.data())
def test_factor_through_a_semisimple_end_matches_the_reference(case, data):
    v, w, z = case
    basis = hom_basis(v, w)
    fs = basis + [data.draw(combination(basis, v, w)), RepMorphism.zero(v, w)]
    for f in fs:
        got = factor_through(f, z)
        assert got == ref_factor_through(f, z)
        if got is not None:
            assert got.source is z.target and got.target is w


@SETTINGS
@given(semisimple_cases(), st.data())
def test_an_unnatural_map_into_a_semisimple_end_never_factors(case, data):
    v, w, z = case
    F, q = v.field, v.quiver
    comps = [Matrix(F, w.dims[x], v.dims[x],
                    data.draw(st.lists(scalars(F), min_size=w.dims[x] * v.dims[x],
                                       max_size=w.dims[x] * v.dims[x])))
             for x in range(q.vertex_count)]
    f = RepMorphism(v, w, comps, check=False)
    assume(not f.is_natural())
    assert factor_through(f, z) is None
    assert factor_through(f, RepMorphism.identity(v)) is None

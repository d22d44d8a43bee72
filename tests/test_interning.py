"""Values are checked once, where they enter.

- Fields and quivers are interned: every way of making one returns the one
  live object, copy, deepcopy and pickle included, so equality is
  identity. The intern table never serves a value that fails the checks
  (3.0 equals 3 as a dict key, but is no modulus).
- A field label is read only in the form FieldSpec.label writes, and a
  modulus past fields.MAX_MODULUS is refused before any trial division,
  so a hostile label cannot make `verify` hang.
- Every rep and morphism the library computes without re-checking
  (Rep._make, RepMorphism._make) passes the validating constructors: over
  F2, F3 and Q, on A2, the one-loop quiver and the loop-and-exit quiver,
  the results of compose, kernel, cokernel, image, direct_sum, hom_basis,
  subrep_from_bases and factor_through.
- Assignment to an attribute of a value class still raises.
"""

import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.approx import factor_through
from approxcat.counterex import LoopQuiverConfig
from approxcat.errors import ApproxcatError
from approxcat.fields import MAX_MODULUS, FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import (
    Rep,
    RepMorphism,
    _morphism_combination,
    cokernel,
    compose,
    direct_sum,
    hom_basis,
    image,
    kernel,
    subrep_from_bases,
)
from filt_oracles import Q_POOL

F2, F3, Q = FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.rationals()
A2 = a2_quiver()
LOOP = loop_quiver(1)
LOOP_EXIT = LoopQuiverConfig(1, F3).quiver()
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
GOLDEN = pathlib.Path(__file__).parent / "golden"
HUGE_PRIME_LABEL = "F2305843009213693951"  # 2^61 - 1


# interning


def test_every_way_of_making_a_field_gives_one_object():
    assert FieldSpec.prime(3) is FieldSpec.from_label("F3") is FieldSpec("prime_field", 3)
    assert FieldSpec.rationals() is FieldSpec.from_label("Q") is FieldSpec("rationals")
    assert FieldSpec.prime(3) is not FieldSpec.prime(5)
    assert FieldSpec.prime(3) != FieldSpec.rationals()


@pytest.mark.parametrize("value", [F2, F3, Q, A2, LOOP, LOOP_EXIT])
def test_copies_and_pickles_are_the_interned_object(value):
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert pickle.loads(pickle.dumps(value)) is value


def test_a_quiver_read_back_is_the_live_quiver():
    live = a2_quiver()
    assert Quiver.from_jsonable(live.to_jsonable()) is live
    assert Quiver(2, [("a", 0, 1)]) is live is A2
    assert Quiver(2, [("b", 0, 1)]) is not live


@pytest.mark.parametrize("modulus", [3.0, True, 4, -3, 1, 0, None, "3", MAX_MODULUS + 2])
def test_the_intern_table_serves_no_unchecked_modulus(modulus):
    assert F3.modulus == 3  # F3 is live, so a table lookup of 3.0 would find it
    with pytest.raises(ApproxcatError):
        FieldSpec("prime_field", modulus)


def test_a_quiver_is_checked_before_it_is_interned():
    with pytest.raises(ApproxcatError):
        Quiver(2.0, [("a", 0, 1)])
    with pytest.raises(ApproxcatError):
        Quiver(2, [("a", 0, 2)])
    with pytest.raises(ApproxcatError):
        Quiver(2, [("a", 0, 1), ("a", 1, 0)])


# field labels


@pytest.mark.parametrize("label", ["F03", "F+3", "F3 ", " F3", "F1_3", "F٣", "F", "F0",
                                   "f3", "Q ", "F3\n", "FQ", "F-3", "F4", "F1", 3, None])
def test_non_canonical_labels_are_refused(label):
    with pytest.raises(ApproxcatError):
        FieldSpec.from_label(label)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.text(max_size=12),
    st.from_regex(r"[FQf][0-9+_ ٣-]{0,11}", fullmatch=True),
    st.integers(0, 2**40).map(lambda n: f"F{n}"),
))
def test_an_accepted_label_reads_back_as_itself(label):
    try:
        field = FieldSpec.from_label(label)
    except ApproxcatError:
        return
    assert field.label == label


def test_the_largest_modulus_is_accepted_and_the_next_prime_refused():
    assert FieldSpec.prime(MAX_MODULUS).modulus == MAX_MODULUS
    with pytest.raises(ApproxcatError):
        FieldSpec.prime(2**31 + 11)  # the least prime above MAX_MODULUS


def _run(args, timeout=5):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_a_huge_prime_label_is_refused_at_once():
    done = _run(["-c", "from approxcat.errors import ApproxcatError\n"
                       "from approxcat.fields import FieldSpec\n"
                       "try:\n"
                       f"    FieldSpec.from_label({HUGE_PRIME_LABEL!r})\n"
                       "except ApproxcatError:\n"
                       "    print('refused')\n"])
    assert done.stdout == "refused\n"


def test_a_certificate_over_a_huge_prime_does_not_verify(tmp_path):
    data = json.loads((GOLDEN / "approximation-F3.json").read_text())
    data["field"] = HUGE_PRIME_LABEL
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    done = _run(["-m", "approxcat.cli", "--json-only", "verify", "--certificate", str(path)])
    assert done.returncode == 1
    assert json.loads(done.stdout) == {"verified": False}


def test_a_workspace_over_a_huge_prime_exits_2(tmp_path):
    ws = {"format": 1, "quiver": A2.to_jsonable(), "field": HUGE_PRIME_LABEL,
          "reps": {"S1": {"dims": [1, 0], "maps": {}}}, "handles": {}}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    done = _run(["-m", "approxcat.cli", "--json-only", "hom", "--workspace", str(path),
                 "--from", "S1", "--to", "S1"])
    assert done.returncode == 2
    assert json.loads(done.stdout)["error"]["code"] == "Error"


# trusted construction


def _checked_rep(r):
    """r passes Rep(...), and every map passes Matrix(...)."""
    for m in r.maps.values():
        assert Matrix(m.field, m.rows, m.cols, m.flat()) == m
    assert type(r.dims) is tuple and all(type(d) is int for d in r.dims)
    assert Rep(r.quiver, r.field, r.dims, r.maps) == r
    assert set(r.maps) == {a.id for a in r.quiver.arrows}


def _checked_morphism(f):
    """f and its ends pass the validating constructors, naturality included."""
    _checked_rep(f.source)
    _checked_rep(f.target)
    for c in f.components:
        assert Matrix(c.field, c.rows, c.cols, c.flat()) == c
    assert type(f.components) is tuple
    assert RepMorphism(f.source, f.target, f.components) == f


def _scalars(F):
    return st.integers(0, F.modulus - 1) if F.modulus else st.sampled_from(Q_POOL)


def _rep(draw, q, F):
    """A rep with dims at most 2; its arrow maps are all zero half the time,
    which makes hom spaces large."""
    dims = [draw(st.integers(0, 2)) for _ in range(q.vertex_count)]
    entries = st.just(0) if draw(st.booleans()) else _scalars(F)
    return Rep(q, F, dims, {a.id: Matrix(F, dims[a.target], dims[a.source], draw(st.lists(
        entries, min_size=dims[a.target] * dims[a.source],
        max_size=dims[a.target] * dims[a.source]))) for a in q.arrows})


@st.composite
def rep_pairs_with_a_morphism(draw):
    """(v, w, f) with f a drawn combination of hom_basis(v, w)."""
    F = draw(st.sampled_from([F2, F3, Q]))
    q = draw(st.sampled_from([A2, LOOP, LOOP_EXIT]))
    v, w = _rep(draw, q, F), _rep(draw, q, F)
    basis = hom_basis(v, w)
    coeffs = [F.coerce(c) for c in draw(st.lists(_scalars(F), min_size=len(basis),
                                                  max_size=len(basis)))]
    f = _morphism_combination(basis, coeffs) or RepMorphism.zero(v, w)
    return v, w, f


@settings(max_examples=200, deadline=None)
@given(rep_pairs_with_a_morphism())
def test_computed_reps_and_morphisms_pass_the_validating_constructors(case):
    v, w, f = case
    for h in hom_basis(v, w) + hom_basis(w, v):
        _checked_morphism(h)
    _checked_morphism(f)
    _checked_morphism(RepMorphism.identity(v))
    _checked_morphism(f + f.scale(2))
    k, incl = kernel(f)
    _checked_morphism(incl)
    c, proj = cokernel(f)
    _checked_morphism(proj)
    im, im_incl, im_proj = image(f)
    _checked_morphism(im_incl)
    _checked_morphism(im_proj)
    assert compose(im_incl, im_proj) == f
    _, sub_incl = subrep_from_bases(w, [m.image_basis() for m in f.components])
    _checked_morphism(sub_incl)
    s, injs, projs = direct_sum([v, w, k])
    for g in injs + projs:
        _checked_morphism(g)
    for g in hom_basis(w, v):
        gf = compose(g, f)
        _checked_morphism(gf)
        h = factor_through(gf, f)  # gf = g f factors through f
        _checked_morphism(h)
        assert compose(h, f) == gf
    for g in hom_basis(w, c):  # h proj = g has a solution exactly when g kills im f
        h = factor_through(g, proj)
        if h is not None:
            _checked_morphism(h)


def test_assignment_to_a_value_still_raises():
    r = Rep.simple(A2, F3, 0)
    values = [Matrix.identity(F2, 2), Matrix.identity(F3, 2), r, RepMorphism.identity(r),
              F3, Q, A2]
    for value in values:
        for name in [*type(value).__slots__, "other"]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)

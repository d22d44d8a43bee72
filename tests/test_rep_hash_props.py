"""A rep's hash is computed once and is no part of the value.

Rep keeps its hash in the slot _hash, computed on first use from what ==
compares: the interned quiver and field, the dims and each arrow map's
stored entries. Over F2, F3, F5 and Q, on A2 and the one-loop quiver, the
same rep built five ways (the validating constructor, Rep._make,
rep_from_jsonable, direct_sum_rep with a zero summand, and the cokernel of
the zero morphism out of the zero rep) must be equal and hash alike,
before and after key() is read, and each must find the others' entries in
a dict and in the bounded rep._hom_kernel cache.

The hash of the interned quiver and field is their identity, and strings
hash by a per-process seed, so a hash holds within one process only: a rep
pickled in another process, under another PYTHONHASHSEED, must arrive
without one and hash like the same rep built here.
"""

import copy
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import Rep, RepMorphism, _hom_kernel, cokernel, direct_sum_rep
from approxcat.serialize import rep_from_jsonable, rep_to_jsonable

FIELDS = [FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5), FieldSpec.rationals()]
QUIVERS = [a2_quiver(), loop_quiver(1)]
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


def scalars(F):
    if F.kind == "rationals":
        return st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])
    return st.integers(0, F.modulus - 1)


@st.composite
def parts(draw):
    """(quiver, field, dims, {arrow id: flat entries}) of a small rep."""
    F = draw(st.sampled_from(FIELDS))
    q = draw(st.sampled_from(QUIVERS))
    dims = [draw(st.integers(0, 3)) for _ in range(q.vertex_count)]
    entries = {a.id: draw(st.lists(scalars(F), min_size=dims[a.target] * dims[a.source],
                                   max_size=dims[a.target] * dims[a.source]))
               for a in q.arrows}
    return q, F, dims, entries


def built_apart(q, F, dims, entries):
    """The rep of these parts, built five ways, each a new object."""
    def maps():
        return {a.id: Matrix(F, dims[a.target], dims[a.source], entries[a.id]) for a in q.arrows}

    zero = Rep.zero(q, F)
    made = Rep(q, F, dims, maps())
    return [
        made,
        Rep._make(q, F, tuple(dims), maps()),
        rep_from_jsonable(q, F, rep_to_jsonable(made)),
        direct_sum_rep([Rep(q, F, dims, maps()), zero]),
        cokernel(RepMorphism.zero(zero, Rep(q, F, dims, maps())))[0],
    ]


@SETTINGS
@given(parts(), st.integers(0, 4))
def test_equal_reps_hash_alike_however_built(p, keyed):
    reps = built_apart(*p)
    assert len({id(r) for r in reps}) == len(reps)
    # one of them has its key read before any hash
    reps[keyed].key()
    first = [hash(r) for r in reps]
    assert len(set(first)) == 1
    assert all(a == b for a in reps for b in reps)
    for r in reps:
        assert r._hash == first[0]
        r.key()
    assert [hash(r) for r in reps] == first


@SETTINGS
@given(parts(), st.integers(0, 4))
def test_equal_reps_find_each_others_entries(p, owner):
    reps = built_apart(*p)
    table = {reps[owner]: owner}
    assert all(table[r] == owner for r in reps)
    assert all(r in table for r in reps)
    kernel = _hom_kernel(reps[owner], reps[owner])
    hits = _hom_kernel.cache_info().hits
    for r in reps:
        assert _hom_kernel(r, r) is kernel
    assert _hom_kernel.cache_info().hits == hits + len(reps)


def test_other_reps_hash_apart():
    # the hash covers the dims and every map's entries
    F = FieldSpec.prime(3)
    q = loop_quiver(1)
    a = Rep(q, F, [2], {"alpha1": Matrix(F, 2, 2, [0, 0, 1, 0])})
    b = Rep(q, F, [2], {"alpha1": Matrix(F, 2, 2, [0, 0, 2, 0])})
    c = Rep(q, FieldSpec.prime(5), [2], {"alpha1": Matrix(FieldSpec.prime(5), 2, 2, [0, 0, 1, 0])})
    assert len({hash(r) for r in (a, b, c, Rep(q, F, [2]), Rep(q, F, [1]))}) == 5


def sample_reps():
    """Two reps of a quiver with a loop and an exit arrow, over F2 and Q."""
    q = Quiver(2, [("alpha", 0, 0), ("beta", 0, 1)])
    out = []
    for F, half in ((FieldSpec.prime(2), 1), (FieldSpec.rationals(), Fraction(1, 2))):
        out.append(Rep(q, F, [2, 1], {"alpha": Matrix(F, 2, 2, [0, 0, 1, 0]),
                                      "beta": Matrix(F, 1, 2, [1, half])}))
    return out


# run in another process: build the sample reps, hash them and read their
# keys, and write them pickled to stdout
CHILD = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from test_rep_hash_props import sample_reps
reps = sample_reps()
for r in reps:
    hash(r), r.key()
sys.stdout.buffer.write(pickle.dumps(reps))
"""


def test_a_pickled_rep_carries_no_hash_across_processes():
    seed = "7" if os.environ.get("PYTHONHASHSEED") != "7" else "11"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run([sys.executable, "-c", CHILD, str(pathlib.Path(__file__).parent)],
                          capture_output=True, env=env, check=True, timeout=120)
    theirs, ours = pickle.loads(done.stdout), sample_reps()
    assert len(theirs) == len(ours)
    for a, b in zip(theirs, ours):
        assert a._hash is None and a._key is None
        assert a.quiver is b.quiver and a.field is b.field
        assert a == b and hash(a) == hash(b) and {b: 1}[a] == 1
        assert a.key() == b.key()


def test_a_copy_carries_no_hash():
    for r in sample_reps():
        hash(r), r.key()
        for c in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert c is not r and c._hash is None and c._key is None
            assert c == r and hash(c) == hash(r)

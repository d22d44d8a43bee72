"""The seven immutable record classes are values.

AddEvidence, ExtEvidence, ApproxCertificate, Budget,
FiltrationCertificate, LoopQuiverConfig and RefutationWitness each take
their fields through an explicit constructor. Two instances of one class
are equal, and hash alike, exactly when every field is equal; an instance
of another class never equals them; the verification record _verified of
the two evidence classes starts as None and is no part of the value; and
no attribute can be assigned.
"""

import inspect

import pytest

from approxcat.approx import (
    AddCategory,
    AddEvidence,
    ApproxCertificate,
    ExtEvidence,
    left_approx_add,
    right_approx_add,
)
from approxcat.counterex import (
    LoopQuiverConfig,
    RefutationWitness,
    assemble_member,
    build_standard,
    candidate_maps,
    refute,
    w_membership,
)
from approxcat.extfilt import FiltrationCertificate, member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import loop_quiver
from approxcat.rep import Rep, RepMorphism
from approxcat.search import Budget

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
CFG2 = LoopQuiverConfig(2, F2)
CFG3 = LoopQuiverConfig(3, F3)


def _witness(cfg):
    v, ev = assemble_member(cfg, 1, 1, [0] * cfg.n_loops)
    return refute(candidate_maps(v)[-1], ev)


def _filtration(field):
    q = loop_quiver(1)
    j2 = Rep(q, field, [2], {"alpha1": Matrix(field, 2, 2, [0, 0, 1, 0])})
    return member_filt(j2, [Rep.simple(q, field, 0)], 2)


def _instances(cls):
    """Two instances of cls built by the library, or by hand where it is cheap."""
    s1, _, m = build_standard(CFG2)
    t1, _, n = build_standard(CFG3)
    if cls is AddEvidence:
        return (AddEvidence((1,), RepMorphism.identity(s1)),
                AddEvidence((2,), RepMorphism.identity(m)))
    if cls is ExtEvidence:
        a, b = w_membership(CFG2, 1), w_membership(CFG3, 2)
        return a, ExtEvidence(b.ses, b.quot_evidence, b.sub_evidence)
    if cls is ApproxCertificate:
        return left_approx_add(m, AddCategory([s1])), right_approx_add(n, AddCategory([t1, n]))
    if cls is Budget:
        return Budget(), Budget(3, 10)
    if cls is FiltrationCertificate:
        return _filtration(F2), _filtration(F3)
    if cls is LoopQuiverConfig:
        return CFG2, CFG3
    return _witness(CFG2), _witness(CFG3)


def _pair(cls):
    """Two field tuples for cls's constructor that differ in every field."""
    a, b = _instances(cls)
    xs, ys = (tuple(getattr(obj, f) for f in cls._fields) for obj in (a, b))
    if cls is RefutationWitness:
        # the two witnesses share their loop index and escalation flag
        ys = ys[:1] + (xs[1] + 1,) + ys[2:6] + (not xs[6],) + ys[7:]
    return xs, ys


CLASSES = [AddEvidence, ExtEvidence, ApproxCertificate, Budget, FiltrationCertificate,
           LoopQuiverConfig, RefutationWitness]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_value_semantics(cls):
    # the compared fields are exactly the constructor's parameters
    assert tuple(inspect.signature(cls).parameters) == cls._fields
    xs, ys = _pair(cls)
    a, b = cls(*xs), cls(*xs)
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b
    # every field takes part in the comparison
    for i, y in enumerate(ys):
        assert xs[i] != y
        changed = cls(*xs[:i], y, *xs[i + 1:])
        assert changed != a and not changed == a
    assert cls(*ys) != a
    # only an instance of the same class compares equal
    sub = type("Sub", (cls,), {"__slots__": ()})(*xs)
    assert sub != a and a != sub and a != xs
    # the verification record is no part of the value
    if cls in (AddEvidence, ExtEvidence):
        assert a._verified is None
        object.__setattr__(a, "_verified", {"a member key"})
        assert a == b and hash(a) == hash(b)
        assert "_verified" not in repr(a)
    # no field, and no new name, can be assigned
    for name in a._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(a, name, ys[0])
    assert a == b


def test_budget_defaults_and_keywords():
    assert Budget() == Budget(8, 1_000_000)
    assert Budget(max_subspaces=5) == Budget(8, 5)
    assert Budget(max_total_dim=3, max_subspaces=4).max_total_dim == 3
    assert repr(Budget()) == "Budget(max_total_dim=8, max_subspaces=1000000)"

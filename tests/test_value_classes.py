"""The immutable classes built on FrozenValue are values.

AddEvidence, ExtEvidence, ApproxCertificate, Budget, Filtration,
FiltrationCertificate, LoopQuiverConfig and RefutationWitness each take
exactly their fields through an explicit constructor. Two instances of one
class are equal, and hash alike, exactly when every field is equal; an
instance of another class never equals them; the hash kept in the slot
_hash is unset until the first hash and is no part of the value; and no
attribute can be assigned.

The handles AddCategory and ExtCategory, RepMorphism and ShortExactSeq
take other constructor arguments than their fields, so they are checked
apart, together with Filtration: two of them built separately are equal
and hash alike, filling a slot that holds what this process computed
from the value (its hash, a handle's kind, a filtration's step
cokernels), or computing what the caches keep for it (a factorization
system, a canonical sum), changes neither ==, nor hash, nor repr, and
assignment is refused with "<Class> is immutable".
"""

import inspect

import pytest

from approxcat.approx import (
    AddCategory,
    AddEvidence,
    ApproxCertificate,
    ExtCategory,
    ExtEvidence,
    factor_through,
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
from approxcat.rep import (
    Filtration,
    FrozenValue,
    Rep,
    RepMorphism,
    ShortExactSeq,
    _factor_system,
)
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
    if cls is Filtration:
        return _filtration(F2).filtration, _filtration(F3).filtration
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


CLASSES = [AddEvidence, ExtEvidence, ApproxCertificate, Budget, Filtration,
           FiltrationCertificate, LoopQuiverConfig, RefutationWitness]


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
    # the kept hash is no part of the value
    fresh = cls(*xs)
    with pytest.raises(AttributeError):
        fresh._hash
    assert hash(fresh) == fresh._hash == hash(a)
    assert fresh == a and "_hash" not in repr(fresh)
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


def _value(cls):
    """A value of cls built from fresh reps over F3 on each call: J2 on the
    one-loop quiver, its socle S, and the sequence S -> J2 -> S."""
    q = loop_quiver(1)
    s = Rep(q, F3, [1])
    j2 = Rep(q, F3, [2], {"alpha1": Matrix(F3, 2, 2, [0, 0, 1, 0])})
    i = RepMorphism(s, j2, [Matrix(F3, 2, 1, [0, 1])])
    p = RepMorphism(j2, s, [Matrix(F3, 1, 2, [1, 0])])
    if cls is AddCategory:
        return AddCategory([s, j2])
    if cls is ExtCategory:
        return ExtCategory(AddCategory([s]), AddCategory([j2]))
    if cls is RepMorphism:
        return p
    if cls is ShortExactSeq:
        return ShortExactSeq(i, p)
    return Filtration([RepMorphism(Rep(q, F3, [0]), s, [Matrix(F3, 1, 0)]), i])


def _fill(value):
    """Compute what value keeps in its in-process slots, and check that it
    was kept."""
    if isinstance(value, AddCategory):
        value.kind()
        value.canonical_sum((1,) * len(value.generators))
        assert value._kind is not None
    elif isinstance(value, ExtCategory):
        _fill(value.left)
        _fill(value.right)
    elif isinstance(value, RepMorphism):
        assert factor_through(value, value) == RepMorphism.identity(value.target)
        # the system is kept in the cache, keyed by the morphism's value
        hits = _factor_system.cache_info().hits
        assert factor_through(value, value) == RepMorphism.identity(value.target)
        assert _factor_system.cache_info().hits == hits + 1
    elif isinstance(value, ShortExactSeq):
        _fill(value.p)
    else:
        value.step_cokernel(1)
        assert value._cokernels[1] is not None
    assert value._hash == hash(value)


OTHER_CLASSES = [AddCategory, ExtCategory, RepMorphism, ShortExactSeq, Filtration]


@pytest.mark.parametrize("cls", OTHER_CLASSES, ids=lambda c: c.__name__)
def test_in_process_slots_are_no_part_of_the_value(cls):
    # equality, hashing and assignment are FrozenValue's alone
    assert issubclass(cls, FrozenValue)
    assert not {"__eq__", "__hash__", "__setattr__", "key"} & set(vars(cls))
    a, b = _value(cls), _value(cls)
    assert a is not b and a == b and hash(a) == hash(b) and repr(a) == repr(b)
    _fill(a)
    assert a == b and b == a and hash(a) == hash(b) and repr(a) == repr(b)
    for name in cls._fields + ("_hash", "other"):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(a, name, None)
    assert a == b

"""Refutation machinery on the loop-and-exit quiver.

The stage is a quiver with loops alpha1..alphaN at vertex 0 and a single
exit arrow beta from vertex 0 to vertex 1. On it live the two vertex
simples S1 and S2, the module M of dims (1, 1) with zero loop action and
identity exit map, and for each loop index i0 a module W(i0) of dims (2, 1)
whose chosen loop feeds the exit-supported basis vector into the kernel of
the exit map.

Every member of add{S1} * add{M} is surjective along beta, and any morphism
from such a member V into W(i0) must vanish at vertex 1 once the loop i0
acts by zero on V: naturality for the loop pins the vertex-0 image inside
ker W_beta, so the vertex-1 component dies against the surjectivity. Since
Hom(S2, W(i0)) is one-dimensional and nonzero, no morphism S2 -> V can be a
left approximation into the extension category: the nonzero map into W(i0)
is unreachable. refute packages that argument, checked by direct matrix
computation, into a per-candidate witness.

The truncation level N is part of the configuration. A representation
built at level N embeds at any higher level by zero maps on the new loops;
refute escalates by one level, once, when every truncated loop is in use.
"""

import itertools
import random
from functools import lru_cache

from .approx import (
    AddCategory,
    AddEvidence,
    ExtCategory,
    ExtEvidence,
    Evidence,
    verify_evidence,
)
from .errors import (
    ApproxcatError,
    CertificateError,
    FieldMismatchError,
    NoFreeLoopError,
    ShapeError,
)
from .fields import FieldSpec
from .matrix import Matrix
from .quiver import Quiver
from .rep import (
    FrozenValue,
    Rep,
    RepMorphism,
    ShortExactSeq,
    _cocycle_combination,
    _morphism_combination,
    compose,
    ext1_basis,
    extension_from_cocycle,
    hom_basis,
    hom_dim,
)
from .search import _require_prime


# the most loops a configuration may have: a stage holds one arrow and one
# map per loop, so a level read from a certificate is refused before any is
# built (the tests and scenarios use at most 50)
MAX_LOOPS = 1024


class LoopQuiverConfig(FrozenValue):
    """Truncation level (1 to MAX_LOOPS loops) and scalar field for the
    loop-and-exit quiver."""

    __slots__ = _fields = ("n_loops", "field")

    def __init__(self, n_loops: int, field: FieldSpec):
        if n_loops < 1:
            raise ShapeError("at least one loop is required")
        if n_loops > MAX_LOOPS:
            raise ShapeError(f"at most {MAX_LOOPS} loops are supported, got {n_loops}")
        object.__setattr__(self, "n_loops", n_loops)
        object.__setattr__(self, "field", field)

    def quiver(self) -> Quiver:
        return _stage(self.n_loops, self.field)[0]

    def loop_ids(self):
        return [f"alpha{i}" for i in range(1, self.n_loops + 1)]

    @staticmethod
    def of_rep(rep: Rep) -> "LoopQuiverConfig":
        """The configuration whose quiver carries rep, validated."""
        n = len(rep.quiver.arrows) - 1
        if n < 1:
            raise ShapeError("not a loop-and-exit quiver")
        cfg = LoopQuiverConfig(n, rep.field)
        if cfg.quiver() != rep.quiver:
            raise ShapeError("not a loop-and-exit quiver")
        return cfg


# The stage is immutable and depends only on (n_loops, field), and W(i0) with
# its evidence only on i0 besides, so each is built once and shared through a
# small bounded memo. Typed keys keep 2.0 apart from 2, so a level that
# cannot build a stage is refused even when an equal one is cached.
@lru_cache(maxsize=8, typed=True)
def _stage(n_loops: int, field: FieldSpec):
    """(quiver, S1, S2, M, add{S1} * add{M}) at one truncation level."""
    loops = [f"alpha{i}" for i in range(1, n_loops + 1)]
    q = Quiver(2, [(a, 0, 0) for a in loops] + [("beta", 0, 1)])
    s1 = Rep.simple(q, field, 0)
    maps = {a: Matrix.zeros(field, 1, 1) for a in loops}
    maps["beta"] = Matrix.identity(field, 1)
    m = Rep(q, field, [1, 1], maps)
    return q, s1, Rep.simple(q, field, 1), m, ExtCategory(AddCategory([s1]), AddCategory([m]))


@lru_cache(maxsize=8, typed=True)
def _w_stage(n_loops: int, field: FieldSpec, i0: int):
    """(W(i0), the evidence of w_membership) at one truncation level."""
    if not 1 <= i0 <= n_loops:
        raise ShapeError(f"loop index {i0} outside 1..{n_loops}")
    q, s1, _, m, _ = _stage(n_loops, field)
    maps = {f"alpha{i0}": Matrix(field, 2, 2, [0, 0, 1, 0]),
            "beta": Matrix(field, 1, 2, [1, 0])}
    w = Rep(q, field, [2, 1], maps)
    i = RepMorphism(s1, w, [Matrix(field, 2, 1, [0, 1]), Matrix(field, 1, 0)])
    p = RepMorphism(w, m, [Matrix(field, 1, 2, [1, 0]), Matrix.identity(field, 1)])
    sub_ev = AddEvidence((1,), RepMorphism.identity(s1))
    quot_ev = AddEvidence((1,), RepMorphism.identity(m))
    return w, ExtEvidence(ShortExactSeq(i, p), sub_ev, quot_ev)


def build_standard(cfg: LoopQuiverConfig):
    """(S1, S2, M): the vertex simples and the dims (1, 1) module with all
    loops acting by zero and the exit arrow by the identity."""
    return _stage(cfg.n_loops, cfg.field)[1:4]


def build_W(cfg: LoopQuiverConfig, i0: int) -> Rep:
    """dims (2, 1): loop i0 sends e1 to e2, every other loop acts by zero,
    and the exit arrow sends e1 to the basis vector and kills e2."""
    return _w_stage(cfg.n_loops, cfg.field, i0)[0]


def standard_handle(cfg: LoopQuiverConfig) -> ExtCategory:
    """add{S1} * add{M} on the configured quiver."""
    return _stage(cfg.n_loops, cfg.field)[4]


def w_membership(cfg: LoopQuiverConfig, i0: int) -> ExtEvidence:
    """The short exact sequence 0 -> S1 -> W(i0) -> M -> 0, with add
    evidence at both ends: the sub is the second coordinate line at vertex
    0, which every arrow kills."""
    return _w_stage(cfg.n_loops, cfg.field, i0)[1]


@lru_cache(maxsize=256)
def _member_verified(evidence: Evidence, member: Rep) -> bool:
    """verify_evidence of member against the standard handle of its level,
    run once per (evidence, member) value while the bounded cache holds
    it."""
    return verify_evidence(evidence, member, standard_handle(LoopQuiverConfig.of_rep(member)))


def beta_surjectivity_check(z: Rep, evidence: Evidence) -> bool:
    """Whether the exit map of a certified member covers all of vertex 1.

    The evidence is verified first (_member_verified, a bounded cache)
    and rejected loudly when it does not hold up; on a valid certificate
    the answer is always True, because both S1-powers (nothing at vertex 1)
    and M-powers (identity exit map) have the property and it passes to
    extensions.
    """
    if evidence is None:
        raise CertificateError("membership evidence is required")
    if not _member_verified(evidence, z):
        raise CertificateError("membership evidence does not verify")
    return z.map("beta").rank() == z.dims[1]


def choose_i0(v: Rep) -> int:
    """The smallest 1-based loop index acting by zero on v."""
    cfg = LoopQuiverConfig.of_rep(v)
    for i, aid in enumerate(cfg.loop_ids(), start=1):
        if v.map(aid).is_zero():
            return i
    raise NoFreeLoopError(
        f"all {cfg.n_loops} truncated loops act nonzero; "
        "re-embed at a higher truncation level"
    )


def embed_rep(rep: Rep, cfg: LoopQuiverConfig) -> Rep:
    """The same representation over the level-cfg quiver; new loops act by
    zero."""
    src = LoopQuiverConfig.of_rep(rep)
    if rep.field != cfg.field:
        raise FieldMismatchError(f"{rep.field.label} vs {cfg.field.label}")
    if src.n_loops > cfg.n_loops:
        raise ShapeError("cannot embed into a smaller truncation")
    # the new loops, which rep's maps omit, act by zero
    d = rep.dims[0]
    maps = {a.id: rep.maps[a.id] if a.id in rep.maps else Matrix.zeros(cfg.field, d, d)
            for a in cfg.quiver().arrows}
    return Rep._make(cfg.quiver(), cfg.field, rep.dims, maps)


def embed_morphism(f: RepMorphism, cfg: LoopQuiverConfig) -> RepMorphism:
    """f between the embedded ends: the new loops act by zero on both, so
    f stays natural exactly when it was."""
    return RepMorphism._make(embed_rep(f.source, cfg), embed_rep(f.target, cfg), f.components)


def embed_evidence(ev: Evidence, cfg: LoopQuiverConfig) -> Evidence:
    """Membership evidence transported to a higher truncation level.

    Zero maps on the new loops keep every naturality square and every
    canonical sum literally intact, so components carry over unchanged.
    """
    if isinstance(ev, AddEvidence):
        return AddEvidence(ev.multiplicities, embed_morphism(ev.iso, cfg))
    return ExtEvidence(
        ShortExactSeq(embed_morphism(ev.ses.i, cfg), embed_morphism(ev.ses.p, cfg)),
        embed_evidence(ev.sub_evidence, cfg),
        embed_evidence(ev.quot_evidence, cfg),
    )


class RefutationWitness(FrozenValue):
    """Proof that a candidate S2 -> V is not a left approximation into
    add{S1} * add{M}: a certified member W = W(i0), the nonzero map
    S2 -> W spanning the one-dimensional hom space, and the vanishing of
    every composite of the candidate with a morphism V -> W. That vanishing
    is the proof: one pair (f, f after the candidate) per morphism f of
    hom_basis(V, W), in its order, and verify refuses a proof whose
    morphisms are not exactly that basis. Since composition with the
    candidate is linear, every h after the candidate is then zero for h in
    Hom(V, W), so a map S2 -> W factors through the candidate exactly when
    it is zero: the vanishing and a nonzero map are the whole proof, and
    no factorization system is solved."""

    __slots__ = _fields = ("candidate", "i0", "w", "w_evidence", "nonzero_target_map",
                           "vanishing_proof", "escalated", "config")

    def __init__(self, candidate: RepMorphism, i0: int, w: Rep, w_evidence: ExtEvidence,
                 nonzero_target_map: RepMorphism, vanishing_proof: tuple, escalated: bool,
                 config: LoopQuiverConfig):
        object.__setattr__(self, "candidate", candidate)
        object.__setattr__(self, "i0", i0)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "w_evidence", w_evidence)
        object.__setattr__(self, "nonzero_target_map", nonzero_target_map)
        object.__setattr__(self, "vanishing_proof", vanishing_proof)
        object.__setattr__(self, "escalated", escalated)
        object.__setattr__(self, "config", config)

    def verify(self) -> bool:
        cfg = self.config
        try:
            if self.w != build_W(cfg, self.i0):
                return False
        except (ShapeError, ApproxcatError):
            return False
        s2 = build_standard(cfg)[1]
        if self.candidate.source != s2 or not self.candidate.is_natural():
            return False
        v = self.candidate.target
        if not v.map(f"alpha{self.i0}").is_zero():
            return False
        if not _member_verified(self.w_evidence, self.w):
            return False
        g = self.nonzero_target_map
        if g.source != s2 or g.target != self.w or g.is_zero() or not g.is_natural():
            return False
        if hom_dim(s2, self.w) != 1:
            return False
        # the proof must be the hom basis itself, which makes its morphisms
        # natural with the right ends; by linearity its zero composites then
        # cover every morphism V -> W
        proof = self.vanishing_proof
        if [f for f, _ in proof] != hom_basis(v, self.w):
            return False
        return all(c.is_zero() and compose(f, self.candidate).is_zero() for f, c in proof)


def refute(phi: RepMorphism, evidence: Evidence) -> RefutationWitness:
    """A witness that phi: S2 -> V is not a left approximation into
    add{S1} * add{M}, given membership evidence for V.

    Verifies the evidence (_member_verified, a bounded cache), picks the
    smallest loop index acting by zero on V (escalating the truncation once
    when every loop is used), builds W at that index, checks by direct
    computation that every composite of phi with a morphism V -> W
    vanishes, and returns the nonzero map S2 -> W the candidate fails to
    reach. Escalation needs no second check: embed_evidence of verified
    evidence verifies at the higher level, since zero maps on the new
    loops keep every naturality square, canonical sum, iso and exact
    sequence intact, and the witness does not carry the member evidence.
    """
    cfg = LoopQuiverConfig.of_rep(phi.source)
    s2 = build_standard(cfg)[1]
    if phi.source != s2:
        raise ShapeError("the candidate must start at the vertex-1 simple")
    if evidence is None:
        raise CertificateError("membership evidence for the target is required")
    v = phi.target
    if not _member_verified(evidence, v):
        raise CertificateError("membership evidence does not verify")
    escalated = False
    try:
        i0 = choose_i0(v)
    except NoFreeLoopError:
        cfg = LoopQuiverConfig(cfg.n_loops + 1, cfg.field)
        phi = embed_morphism(phi, cfg)
        v = phi.target
        s2 = build_standard(cfg)[1]
        escalated = True
        i0 = choose_i0(v)
    w = build_W(cfg, i0)
    proof = []
    for f in hom_basis(v, w):
        c = compose(f, phi)
        if not c.is_zero():
            raise CertificateError(
                "a composite against the candidate does not vanish; "
                "the membership evidence is unsound"
            )
        proof.append((f, c))
    g_basis = hom_basis(s2, w)
    if len(g_basis) != 1 or g_basis[0].is_zero():
        raise ApproxcatError("the hom space into W must be a nonzero line")
    # the composites vanish on a basis of Hom(V, W) and g is nonzero, so by
    # linearity g does not factor through phi (see RefutationWitness)
    g = g_basis[0]
    return RefutationWitness(
        candidate=phi,
        i0=i0,
        w=w,
        w_evidence=w_membership(cfg, i0),
        nonzero_target_map=g,
        vanishing_proof=tuple(proof),
        escalated=escalated,
        config=cfg,
    )


def assemble_member(cfg: LoopQuiverConfig, s1_mult: int, m_mult: int, coefficients):
    """(member, evidence): the extension of M^m_mult by S1^s1_mult along the
    cocycle with the given coefficient list over the standard basis of
    Ext1(M^m_mult, S1^s1_mult)."""
    handle = standard_handle(cfg)
    sub, _ = handle.left.canonical_sum((s1_mult,))
    quot, _ = handle.right.canonical_sum((m_mult,))
    basis = ext1_basis(quot, sub)
    if len(coefficients) != len(basis):
        raise ShapeError(f"{len(basis)} cocycle coefficients required")
    coeffs = [cfg.field.coerce(c) for c in coefficients]
    ses = extension_from_cocycle(quot, sub, _cocycle_combination(basis, coeffs))
    sub_ev = AddEvidence((s1_mult,), RepMorphism.identity(sub))
    quot_ev = AddEvidence((m_mult,), RepMorphism.identity(quot))
    return ses.mid, ExtEvidence(ses, sub_ev, quot_ev)


def sample_members(cfg: LoopQuiverConfig, count: int, max_total_dim: int = 6,
                   seed: int = 0):
    """A deterministic stream of certified members: multiplicities and
    cocycle coefficients are drawn from a seeded generator, one derived
    seed per sample."""
    _require_prime(cfg.field, "member sampling")
    p = cfg.field.modulus
    shapes = [
        (a, b)
        for a in range(max_total_dim + 1)
        for b in range(max_total_dim // 2 + 1)
        if a + 2 * b <= max_total_dim
    ]
    handle = standard_handle(cfg)
    out = []
    for idx in range(count):
        rng = random.Random(seed * 1000003 + idx)
        a, b = shapes[rng.randrange(len(shapes))]
        sub, _ = handle.left.canonical_sum((a,))
        quot, _ = handle.right.canonical_sum((b,))
        coeffs = [rng.randrange(p) for _ in range(len(ext1_basis(quot, sub)))]
        out.append(assemble_member(cfg, a, b, coeffs))
    return out


def candidate_maps(v: Rep):
    """Every morphism S2 -> v, the zero map included: all coefficient
    tuples over the hom basis."""
    cfg = LoopQuiverConfig.of_rep(v)
    _require_prime(cfg.field, "the candidate sweep")
    s2 = build_standard(cfg)[1]
    basis = hom_basis(s2, v)
    out = []
    for coeffs in itertools.product(range(cfg.field.modulus), repeat=len(basis)):
        phi = _morphism_combination(basis, coeffs)
        out.append(RepMorphism.zero(s2, v) if phi is None else phi)
    return out

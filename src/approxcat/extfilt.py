"""Extension categories and filtration categories.

member_ext decides membership in x*y (objects with a subrepresentation in
x whose quotient lies in y) by exhaustive subrepresentation search over a
prime field.

member_filt decides membership in F_r(S), the r-fold extension closure of
add(S). For a vertex-simple family (zero arrow maps, and the simple of each
vertex in a generator's support is a generator, so add(S) is every
semisimple representation supported on that vertex set T) it reads the
Loewy series over every field, with no search and no budget: for
rad_T(N) = sum_a a(N) + sum_{x not in T} N_x, N lies in F_r iff
rad_T^r(N) = 0, and m/U lies in F_(r-1) iff U contains rad_T^(r-1)(m).
For the total arrow operator A of m (block (t, s) the sum of m_a over the
arrows a: s -> t), im A^k lies in rad_T^k(m), so a member has A nilpotent
and every loop map of trace 0. The decision runs in that order: a loop
map of nonzero trace, then a nonzero A^(2^j) with 2^j >= dim m, answers
None before any series term is built; only a nilpotent A gets its series,
which still answers None if it stops short of 0. An acyclic quiver, whose
A is nilpotent, skips the test.
Other families peel an add(S) bottom layer from m and search the
quotients within the budget, over a prime field only. The
layers come from SubrepSearch: over m, or, for a family with zero arrow
maps, over the joint kernels of m's outgoing maps, which contain every
such layer. One walk (_peels) decides and builds: it takes the first
candidate whose quotient peels down to add(S) in the remaining depth,
and returns the projections it peeled, which the certificate lifts with
no second search. The radical series of (m, T) is kept in a bounded
lru_cache (_loewy_series), so the decisions over one m at
r = 4, 3, 2, 1 and their certificates build it once. The peel
search's answers are kept in a dict made per decision and dropped with
it, keyed by (representation, depth), as the family and budget are fixed
within one decision; a repeated decision searches again. The certificate
is lifted to m in one pass: term k is the kernel of the composite
projection of m onto the k-th peeled quotient. A vertex-simple
certificate reads the
radical series of m that decided membership, since rad_T(m/U) =
(rad_T(m) + U)/U: the peel stops when the quotient's Loewy length is at
most 1, and once that length reaches the remaining depth, each further
term is rad_T^j(m) + U, spanned with the last peeled term's bases. Over
a zero-map family its factors act by zero, so their evidence is read off
the step dimensions, one shared evidence per dimension vector kept on the
handle (member_add); verify, filt_exchange, filt_normalize and other
families' evidence read the cokernel that the Filtration keeps for each
step. A certificate records its verify answer, so normalization's own
check and a caller's verify of the result run once.

filt_exchange swaps two adjacent filtration factors when the obstructing
Ext group vanishes, checked by isomorphisms it constructs, and
filt_normalize applies the exchange as a bubble sort to bring any
filtration certificate over an ordered family (X_1, ..., X_n) with
Ext1(X_i, X_j) = 0 for i <= j into the normal form with at most n
layers, each a direct sum of copies of a single X_i. Over a semisimple
family it reads each input layer's counts off the step dimensions, and
takes a step cokernel only for a layer that mixes generators. Both may be
handed an unverified certificate, so each step is checked to be a
morphism just before its cokernel is taken, and one that is not raises
CertificateError.

A family is its add handle, an AddCategory whose generator order is the
family order (OrderedFamily names the same type). The handle's kind (zero
arrow maps, vertex-simple support) is computed once per handle, and a
plain generator list is interned through a small bounded memo, so repeated
calls over one list share a handle.

fr_enumerate builds F_r(S) within a dimension bound bottom-up from
extension cocycles; it is an independent oracle for member_filt.
"""

import itertools
from functools import lru_cache
from typing import Optional

from .approx import (
    AddCategory,
    ExtCategory,
    ExtEvidence,
    _multiplicities,
    member_add,
    verify_evidence,
)
from .errors import (
    ApproxcatError,
    BudgetExceededError,
    CertificateError,
    ExtObstructionError,
    FieldMismatchError,
    HypothesisViolationError,
    ShapeError,
)
from .matrix import Matrix, hstack, vstack
from .rep import (
    Filtration,
    FrozenValue,
    Rep,
    RepMorphism,
    ShortExactSeq,
    _cocycle_combination,
    _zero_map_rep,
    cokernel,
    compose,
    direct_sum_rep,
    ext1_basis,
    ext1_dim,
    extension_from_cocycle,
    factor_through_cokernel,
    image,
    is_split,
    iso_test,
    preimage_subrep,
    subrep_from_bases,
)
from .search import Budget, SubrepSearch, _require_prime, default_budget, iter_subreps


# An ordered family X_1, ..., X_n is its add handle: the generator order
# carries the normalization hypothesis, and the handle its kind.
OrderedFamily = AddCategory


@lru_cache(maxsize=32)
def _interned(generators: tuple) -> AddCategory:
    """The handle of a plain generator tuple, shared by equal tuples so that
    repeated calls over one list compute its kind once."""
    return AddCategory(generators)


def _as_family(s) -> AddCategory:
    """s itself when it is an add handle, else the interned handle of the
    generator list s."""
    return s if isinstance(s, AddCategory) else _interned(tuple(s))


class FiltrationCertificate(FrozenValue):
    """A filtration of member together with per-factor evidence that each
    cokernel of consecutive steps lies in add of the family. Steps read
    from JSON are built unchecked, so verify checks that every step is
    natural before it reads a factor.

    _verified is the verified record: None until verify first runs, then
    its answer, which every later verify of this (immutable) object
    returns. It lives in this process only: it is never serialized, a
    certificate read from JSON starts without one, and it is no part of
    ==, hash or repr."""

    _fields = ("filtration", "member", "family", "factor_assignments")
    __slots__ = _fields + ("_verified",)

    def __init__(self, filtration: Filtration, member: Rep, family: AddCategory,
                 factor_assignments: tuple):
        object.__setattr__(self, "filtration", filtration)
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "factor_assignments", factor_assignments)
        object.__setattr__(self, "_verified", None)

    @property
    def depth(self) -> int:
        return self.filtration.depth

    def verify(self) -> bool:
        if self._verified is None:
            filt = self.filtration
            ok = (filt.top == self.member and len(self.factor_assignments) == filt.depth
                  and all(step.is_natural() for step in filt.steps)
                  and all(verify_evidence(ev, filt.factor(j), self.family)
                          for j, ev in enumerate(self.factor_assignments)))
            object.__setattr__(self, "_verified", ok)
        return self._verified


# membership in x*y


def _member_handle(rep: Rep, handle, budget: Budget):
    if isinstance(handle, AddCategory):
        return member_add(rep, handle)
    if isinstance(handle, ExtCategory):
        return member_ext(rep, handle.left, handle.right, budget)
    raise ShapeError(f"not a subcategory handle: {handle!r}")


def member_ext(z: Rep, x, y, budget: Budget | None = None) -> Optional[ExtEvidence]:
    """Evidence that z has a subrepresentation in x with quotient in y, or
    None after exhausting every arrow-stable subrepresentation.

    Only prime fields are supported: absence is an exhaustiveness claim.
    """
    budget = budget or default_budget()
    for sub, incl in iter_subreps(z, budget):
        sub_ev = _member_handle(sub, x, budget)
        if sub_ev is None:
            continue
        quot, proj = cokernel(incl)
        quot_ev = _member_handle(quot, y, budget)
        if quot_ev is None:
            continue
        return ExtEvidence(ShortExactSeq(incl, proj), sub_ev, quot_ev)
    return None


# membership in F_r(S)


def _dims_feasible(handle: AddCategory, dims) -> bool:
    """Whether dims = sum of c_i * dims(generator i) has a solution in
    non-negative integers."""
    return next(_multiplicities([g.dims for g in handle.generators], dims), None) is not None


def _nilpotent(m: Rep) -> bool:
    """Whether the total arrow operator A of m is nilpotent: A acts on the
    sum of the m_x, with block (t, s) the sum of m_a over the arrows
    a: s -> t. Decided by the loop maps' traces, then by squaring A until
    the exponent reaches dim m, stopping early at zero."""
    if any(m.map(a.id).trace() for a in m.quiver.arrows if a.source == a.target):
        return False  # a nilpotent loop map has trace 0 over every field
    blocks = {}
    for a in m.quiver.arrows:
        b = blocks.get((a.target, a.source))
        blocks[a.target, a.source] = m.map(a.id) if b is None else b + m.map(a.id)
    power, k = blocks.get((0, 0)), 1  # a single vertex on a cycle carries a loop
    if len(m.dims) > 1:
        power = vstack([hstack([blocks.get((t, s)) or Matrix.zeros(m.field, dt, ds)
                                for s, ds in enumerate(m.dims)]) for t, dt in enumerate(m.dims)])
    while k < m.total_dim and not power.is_zero():
        power, k = power @ power, 2 * k
    return power.is_zero()


def _radical_series(m: Rep, support) -> Optional[tuple]:
    """The nonzero terms rad_T^k(m), k = 0, 1, ..., for T = support; their
    number is the Loewy length. R_0 = m is its dimension vector, which is
    all its readers need, and every later term is a tuple of per-vertex
    bases. None when the series never reaches 0, so that m lies in no F_r.

    im A^k lies in rad_T^k(m) for the total arrow operator A (_nilpotent),
    so a member has A nilpotent and its loop maps of trace 0: a nonzero
    trace, then a non-nilpotent A, gives None before any term is built; an
    acyclic quiver skips the test. A nilpotent A gets the series, which
    still gives None if it stops shrinking at a nonzero term. Where no two
    paths of one length share both ends, as on the one-loop quiver, A^k
    is made of single path maps and that never happens."""
    F, dims = m.field, m.dims
    # rad_T keeps all of m_x at a vertex x outside T, and a member's A is nilpotent
    if any(d for x, d in enumerate(dims) if x not in support) or not (
            m.quiver.is_acyclic or _nilpotent(m)):
        return None
    series, term, size = [], dims, sum(dims)
    while size:
        parts = [[] for _ in dims]
        for a in m.quiver.arrows:
            parts[a.target].append(m.map(a.id) @ term[a.source] if series else m.map(a.id))
        nxt = tuple((p[0] if len(p) == 1 else hstack(p)).image_basis() if p
                    else Matrix.zeros(F, d, 0) for p, d in zip(parts, dims))
        nsize = sum(b.cols for b in nxt)
        if nsize == size:
            return None
        series.append(term)
        term, size = nxt, nsize
    return tuple(series)


# the series of one (representation, support), shared by the decisions over
# it at r = 4, 3, 2, 1 and their certificates; tuples, since callers share it
_loewy_series = lru_cache(maxsize=256)(_radical_series)


def _outgoing_kernel(m: Rep, x: int) -> Matrix:
    """Basis of the joint kernel of the arrow maps out of vertex x."""
    outs = [m.map(a.id) for a in m.quiver.arrows_from(x)]
    return vstack(outs).kernel_basis() if outs else Matrix.identity(m.field, m.dims[x])


def _peel_candidates(m: Rep, handle: AddCategory, budget: Budget):
    """Inclusions into m of its proper nonzero add(handle)
    subrepresentations, cheapest first. Over a semisimple family such a
    subrepresentation is killed by every arrow, so it is a product of
    subspaces of the joint kernels K_x of the outgoing maps: the search
    walks the zero-map representation on the K_x, which can be much smaller
    than m, and each inclusion is composed with the K_x."""
    if m.total_dim > budget.max_total_dim:
        raise BudgetExceededError(
            f"total dimension {m.total_dim} exceeds the budget {budget.max_total_dim}"
        )
    space, kernels = m, None
    if handle.kind()[0]:
        kernels = [_outgoing_kernel(m, x) for x in range(m.quiver.vertex_count)]
        space = _zero_map_rep(m.quiver, m.field, [k.cols for k in kernels])
    search = SubrepSearch(space, budget)
    total = m.total_dim
    feasible = {}
    for combo in search.tuples():
        dims = tuple(e.k for e in combo)
        ok = feasible.get(dims)
        if ok is None:
            ok = feasible[dims] = sum(dims) not in (0, total) and _dims_feasible(handle, dims)
        if not ok:
            continue
        if kernels is not None:
            yield RepMorphism._make(_zero_map_rep(m.quiver, m.field, dims), m,
                                    [kern @ e.basis for kern, e in zip(kernels, combo)])
            continue
        sub, incl = search.build(combo)
        if member_add(sub, handle) is not None:
            yield incl


def _peels(m: Rep, handle: AddCategory, r: int, budget: Budget,
           memo: dict) -> Optional[tuple]:
    """The projections that peel m down to a member of add(handle) in at
    most r - 1 steps, by the peel search within the budget (which refuses
    every field but F_p): () when m lies in add, else the projection onto
    the quotient of the first peel candidate whose quotient has peels at
    r - 1, followed by those peels; None when m is not in F_r(add handle).
    memo belongs to one decision, whose family and budget are fixed, and
    is keyed by (representation, r)."""
    if member_add(m, handle) is not None:
        return ()
    if r <= 1:
        return None
    key = (m, r)
    if key not in memo:
        found = None
        for incl in _peel_candidates(m, handle, budget):
            quot, proj = cokernel(incl)
            inner = _peels(quot, handle, r - 1, budget, memo)
            if inner is not None:
                found = (proj,) + inner
                break
        memo[key] = found
    return memo[key]


def member_filt(m: Rep, s, r: int, budget: Budget | None = None) -> Optional[FiltrationCertificate]:
    """A filtration certificate of m (built, not verified) with at most r
    layers, each factor a member of add(S), or None when none exists.

    S is an add handle (OrderedFamily is the same type) or a plain
    generator list, which is interned: equal lists share one handle, whose
    kind is computed once. A vertex-simple family is decided by the Loewy
    length over every field, with no budget: a loop map of nonzero trace,
    or a total arrow operator that is not nilpotent, is refused before the
    radical series is built (see _radical_series); the series is kept in a
    bounded lru_cache (_loewy_series). Any other family's peel search stays
    within the budget and needs a prime field; it returns the peels the
    certificate is lifted from, and its memo lives for this one decision,
    so no earlier call's budget can change it. A family over another quiver
    or field than m's raises FieldMismatchError on either path.
    """
    if r < 1:
        raise ShapeError("filtration depth must be at least 1")
    family = _as_family(s)
    if m.quiver is not family.quiver or m.field is not family.field:
        raise FieldMismatchError("member_filt needs a common quiver and field")
    support = family.kind()[1]
    series = peels = None
    if support is not None:
        series = _loewy_series(m, support)
        if series is None or len(series) > r:
            return None
    else:
        peels = _peels(m, family, r, budget or default_budget(), {})
        if peels is None:
            return None
    return _build_filtration(m, family, support, series, r, peels)


def _first_peel(m: Rep, support) -> RepMorphism:
    """The projection of m onto m/U for the first peel candidate U of a
    vertex-simple family with support T, read off without enumerating: the
    first vector of the joint kernel of the outgoing maps at the last vertex
    of T where that kernel is nonzero. Above the Loewy length every
    candidate is feasible, so this is the peel the search would pick, and no
    budget applies."""
    for x in sorted(support, reverse=True):
        kern = _outgoing_kernel(m, x)
        if kern.cols:
            break
    bases = [Matrix.zeros(m.field, d, 0) for d in m.dims]
    bases[x] = kern.take_cols([0])
    sub = _zero_map_rep(m.quiver, m.field, [b.cols for b in bases])
    return cokernel(RepMorphism._make(sub, m, bases))[1]


def _chain_steps(prev_rep: Rep, prev_incl: RepMorphism, chain) -> list:
    """The injective steps from prev_rep through the terms of chain, a list
    of (term, inclusion) pairs of subrepresentations of one representation,
    each containing the previous one. A step s exactly solves
    t_incl s = prev_incl, which makes it natural (both inclusions are
    natural, t_incl injective), so it is not checked again."""
    steps = []
    for t_rep, t_incl in chain:
        comps = [
            t_incl.component(x).solve(prev_incl.component(x))
            for x in range(t_rep.quiver.vertex_count)
        ]
        if any(c is None for c in comps):
            raise ApproxcatError("filtration terms do not chain")
        steps.append(RepMorphism._make(prev_rep, t_rep, comps))
        prev_rep, prev_incl = t_rep, t_incl
    return steps


def _build_filtration(m: Rep, family: AddCategory, support, series, r: int,
                      peels) -> FiltrationCertificate:
    """The certificate of a membership the caller has decided. Peels until
    the quotient lies in add, then lifts in one pass: term k is the kernel
    of the composite projection onto the k-th quotient, the preimage of the
    quotient's own filtration.

    Other families pass series None and the peels the decision found
    (_peels), which end at a quotient in add, so no peel is searched again
    and no quotient decided again. A vertex-simple family passes the
    radical series R_k of m that decided membership and no peels, and stops
    by the Loewy length the loop computes anyway, as m/U lies in add(S)
    exactly when that length is at most 1. Since
    rad_T(m/U) = (rad_T(m) + U)/U, the Loewy length of the quotient m/U is
    the number of R_k not inside U. Below the remaining depth the first
    candidate is peeled from the quotient; once the length reaches it, each
    further peel is rad_T^(j)(m/U), so term j is R_j + U. Its basis is the
    kernel basis of the annihilator of R_j + U, a function of the subspace
    alone and so the one the composite projection would give."""
    projs = [Matrix.identity(m.field, d) for d in m.dims]
    u = [Matrix.zeros(m.field, d, 0) for d in m.dims]
    terms, cur, top = [], m, 0
    while True:
        if series is None:
            if len(terms) == len(peels):
                break
            proj = peels[len(terms)]
        else:
            # the Loewy length of m/U: R_0 is not inside U, and the R_k are nested
            length = next((k for k in range(1, len(series)) if all(
                (p @ b).is_zero() for p, b in zip(projs, series[k]))), len(series))
            if length <= 1:
                break
            if length >= r:
                top = r
                break
            proj = _first_peel(cur, support)
        projs = [p @ c for p, c in zip(proj.components, projs)]
        u = [c.kernel_basis() for c in projs]
        terms.append(subrep_from_bases(m, u))
        cur, r = proj.target, r - 1
    for j in range(top - 1, 0, -1):
        spans = [hstack([b, rj]) for b, rj in zip(u, series[j])]
        bases = [s.transpose().kernel_basis().transpose().kernel_basis() for s in spans]
        terms.append(subrep_from_bases(m, bases))
    bottom = RepMorphism.zero(Rep.zero(m.quiver, m.field), m)
    # the top step into m is the last term's inclusion, natural by construction
    steps = _chain_steps(bottom.source, bottom, terms) + [terms[-1][1] if terms else bottom]
    return _certify(Filtration(steps), m, family)


def _certify(filt: Filtration, member: Rep, family: AddCategory) -> FiltrationCertificate:
    """The certificate of filt with add evidence for every factor.

    Precondition: over a semisimple family (family.kind()[0]), member_filt
    or filt_normalize built filt, so every factor acts by zero (a peel lies
    in the joint kernels, a radical layer is killed by rad_T, a merged run
    splits as Ext1(X_i, X_i) = 0), and factor j is the zero-map rep on
    dims(M_j+1) - dims(M_j), whose evidence the handle hands out by dims
    (AddCategory.zero_map_evidence): no step cokernel is taken and no
    factor built. Other families read filt.factor(j)."""
    evidence, semisimple = [], family.kind()[0]
    for j, step in enumerate(filt.steps):
        if semisimple:
            ev = family.zero_map_evidence([t - s for s, t in zip(step.source.dims, step.target.dims)])
        else:
            ev = member_add(filt.factor(j), family)
        if ev is None:
            raise CertificateError("a filtration factor failed add membership")
        evidence.append(ev)
    return FiltrationCertificate(filt, member, family, tuple(evidence))


# the factors-exchanging operation


def _natural_step_cokernel(filt: Filtration, j: int):
    """filt.step_cokernel(j) once step j is checked to be a morphism: a
    certificate handed to exchange or normalization may be unverified, and
    its steps built unchecked."""
    if not filt.steps[j].is_natural():
        raise CertificateError(f"filtration step {j} is not a morphism of representations")
    return filt.step_cokernel(j)


def filt_exchange(f: Filtration, i: int) -> Filtration:
    """Swap the factors at steps i and i+1 (zero-based): the middle term
    M_{i+1} is replaced so that the new i-th factor is isomorphic to the old
    (i+1)-st and vice versa.

    Requires Ext1(factor(i+1), factor(i)) = 0; then the sequence
    A -> B -> C of the two factors in B = M_{i+2}/M_i splits by a section
    sigma, and the new term N is the preimage of im sigma. The swap is
    checked on the isomorphisms the construction gives, with no search:
    N/M_i -> C induced by q_c = c_bar q_b, and a_bar followed by
    B -> M_{i+2}/N, as B = a_bar(A) + im sigma.
    """
    if i < 0 or i + 1 >= f.depth:
        raise ShapeError(f"no adjacent factor pair at step {i}")
    u, v = f.steps[i], f.steps[i + 1]
    a_rep, q_a = _natural_step_cokernel(f, i)
    c_rep, q_c = _natural_step_cokernel(f, i + 1)
    if ext1_dim(c_rep, a_rep) != 0:
        raise ExtObstructionError(
            f"Ext1 between the factors at steps {i + 1} and {i} does not vanish"
        )
    vu = compose(v, u)
    _, q_b = cokernel(vu)
    a_bar = factor_through_cokernel(q_a, compose(q_b, v))
    c_bar = factor_through_cokernel(q_b, q_c)
    sigma = is_split(ShortExactSeq(a_bar, c_bar))
    if sigma is None:
        raise ApproxcatError("section missing despite vanishing Ext; this is a bug")
    _, incl_sigma, _ = image(sigma)
    new_mid, new_incl = preimage_subrep(q_b, incl_sigma)
    steps = list(f.steps)
    steps[i] = _chain_steps(u.source, vu, [(new_mid, new_incl)])[0]
    steps[i + 1] = new_incl
    out = Filtration(steps)
    to_c = factor_through_cokernel(out.step_cokernel(i)[1], compose(q_c, new_incl))
    from_a = compose(factor_through_cokernel(q_b, out.step_cokernel(i + 1)[1]), a_bar)
    if not (to_c.is_iso() and from_a.is_iso()):
        raise ApproxcatError("exchanged factors are not the swapped originals")
    return out


# normalization to at most n layers


def _check_ext_hypothesis(family: AddCategory):
    gens = family.generators
    for i, j in itertools.combinations_with_replacement(range(len(gens)), 2):
        if ext1_dim(gens[i], gens[j]) != 0:
            raise HypothesisViolationError(
                f"Ext1(X_{i + 1}, X_{j + 1}) does not vanish for this ordering"
            )


def _refine_layers(filt: Filtration, family: AddCategory):
    """Split every filtration layer whose factor mixes several generators
    into consecutive layers, each a sum of copies of one generator. A layer
    with zero factor is an isomorphism: it is composed into the next step
    before that step's cokernel is taken, or onto the last step at the top.
    Returns the refined filtration and a parallel list of generator indices;
    a filtration of the zero representation keeps one layer, index None.

    Over a semisimple family (family.kind()[0]) with Ext1(X_i, X_i) = 0,
    which filt_normalize checks, a layer's counts are the first
    multiplicities of its dimension difference: dim Ext1(S_s, S_t) counts
    the arrows s -> t, so no arrow joins two vertices of supp X_i, and
    every representation of dims c * dims(X_i) is X_i^c. Only a layer whose
    counts mix generators, and which needs an isomorphism to split, takes
    its cokernel and decides add membership, which refuses a factor outside
    add. Other families decide every layer so."""
    gens, semisimple = family.generators, family.kind()[0]
    gen_dims = [g.dims for g in gens]

    def effective(counts):
        return [i for i, c in enumerate(counts) if c > 0 and gens[i].total_dim > 0]

    steps, indices, iso = [], [], None
    for j, step in enumerate(filt.steps):
        counts = next(_multiplicities(gen_dims, [t - s for s, t in zip(
            step.source.dims, step.target.dims)]), None) if semisimple else None
        if counts is None or len(effective(counts)) > 1:
            # an isomorphism composed in keeps the image, so the cokernel is the step's
            factor, q_j = _natural_step_cokernel(filt, j)
            ev = member_add(factor, family)
            if ev is None:
                raise CertificateError("input filtration has a factor outside add of the family")
            counts = ev.multiplicities
        used = effective(counts)
        if iso is not None:
            step = compose(step, iso)
        iso = None if used else step
        if len(used) == 1:
            steps.append(step)
            indices.append(used[0])
        if len(used) <= 1:
            continue
        total, layout = family.canonical_sum(counts)
        psi = compose(ev.iso, q_j)
        F = total.field
        cols = [0] * total.quiver.vertex_count
        mids = []
        for i in range(used[-1]):
            cols = [k + d * counts[i] for k, d in zip(cols, gens[i].dims)]
            if i in used:
                # the first cols[x] coordinates: stable, summand maps are block diagonal
                bases = [Matrix.identity(F, d).take_cols(range(k)) for d, k in zip(total.dims, cols)]
                mids.append(preimage_subrep(psi, subrep_from_bases(total, bases)[1]))
        steps.extend(_chain_steps(step.source, step, mids))
        steps.append(mids[-1][1])
        indices.extend(used)
    if not steps:
        return Filtration([iso]), [None]
    if iso is not None:
        steps[-1] = compose(iso, steps[-1])
    return Filtration(steps), indices


def filt_normalize(cert: FiltrationCertificate, s=None) -> FiltrationCertificate:
    """Normal form of a filtration certificate over an ordered family with
    Ext1(X_i, X_j) = 0 for i <= j: at most one layer per generator, layers
    ordered X_1 first through X_n last, each factor a sum of copies of its
    generator.

    Bubble sort by filt_exchange: every swap moves a lower-indexed factor
    below a higher-indexed one, and the obstruction Ext1(X_lower, X_upper)
    vanishes by the hypothesis; so does Ext1(X_i, X_i), which lets equal
    runs merge into a single layer.
    """
    family = _as_family(s) if s is not None else cert.family
    _check_ext_hypothesis(family)
    filt, indices = _refine_layers(cert.filtration, family)
    for end in range(filt.depth - 1, 0, -1):
        for i in range(end):
            if indices[i] > indices[i + 1]:
                filt = filt_exchange(filt, i)
                indices[i], indices[i + 1] = indices[i + 1], indices[i]
    steps = []
    for j, step in enumerate(filt.steps):
        steps.append(compose(step, steps.pop()) if j and indices[j] == indices[j - 1] else step)
    out = Filtration(steps)
    if out.depth > max(1, len(family.generators)):
        raise ApproxcatError("normalization left more layers than generators; this is a bug")
    result = _certify(out, cert.member, family)
    if not result.verify():
        raise CertificateError("normalized certificate failed verification")
    return result


# independent enumeration of F_r within a dimension bound


def _bound_tuple(dim_bound, quiver):
    if isinstance(dim_bound, int):
        return (dim_bound,) * quiver.vertex_count
    bound = tuple(dim_bound)
    if len(bound) != quiver.vertex_count:
        raise ShapeError("one dimension bound per vertex required")
    return bound


def _iso_insert(groups: dict, rep: Rep) -> bool:
    """Insert rep into the dims-keyed iso-class table; False if an
    isomorphic representative is already present."""
    bucket = groups.setdefault(rep.dims, [])
    for other in bucket:
        if iso_test(other, rep) is not None:
            return False
    bucket.append(rep)
    return True


def fr_enumerate(generators, r: int, dim_bound, budget: Budget | None = None,
                 quiver=None, field=None):
    """All members of F_r(add(generators)) with dims within dim_bound, up
    to isomorphism, sorted by total dimension then structure.

    Level one is the add-closure of the generators within the bound; each
    further level adjoins the middle of every extension class of a previous
    member by an add-closure member. The budget bounds the number of
    middles constructed.
    """
    if r < 1:
        raise ShapeError("level must be at least 1")
    gens = tuple(generators)
    if gens:
        quiver, field = gens[0].quiver, gens[0].field
    elif quiver is None or field is None:
        raise ShapeError("an empty generator set needs an explicit quiver and field")
    _require_prime(field, "fr_enumerate")
    budget = budget or default_budget()
    bound = _bound_tuple(dim_bound, quiver)
    groups: dict = {}
    base = []
    built = 0
    for counts in _multiplicities([g.dims for g in gens], bound, bounded=True):
        reps = [g for g, c in zip(gens, counts) for _ in range(c)]
        total = direct_sum_rep(reps, quiver, field)
        built += 1
        if built > budget.max_subspaces:
            raise _budget_error(built, budget)
        if _iso_insert(groups, total):
            base.append(total)
    current = list(base)
    scalars = list(field.iter_scalars())
    for _ in range(r - 1):
        added = []
        for quot in current:
            for sub in base:
                if sub.total_dim == 0:
                    continue
                if any(sub.dims[x] + quot.dims[x] > bound[x] for x in range(len(bound))):
                    continue
                basis = ext1_basis(quot, sub)
                for coeffs in itertools.product(scalars, repeat=len(basis)):
                    cocycle = _cocycle_combination(basis, coeffs)
                    mid = extension_from_cocycle(quot, sub, cocycle).mid
                    built += 1
                    if built > budget.max_subspaces:
                        raise _budget_error(built, budget)
                    if _iso_insert(groups, mid):
                        added.append(mid)
        current = current + added
    # every rep here shares one quiver and field
    current.sort(key=lambda v: (v.total_dim, v.dims, [v.maps[a.id].key() for a in quiver.arrows]))
    return current


def _budget_error(built, budget):
    return BudgetExceededError(
        f"constructed {built} candidates, over the budget {budget.max_subspaces}"
    )

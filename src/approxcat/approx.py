"""Approximations of representations by subcategories.

Two kinds of subcategory handle: AddCategory (finite direct sums of copies
of listed generators) and ExtCategory (middles of short exact sequences
with sub in the left handle and quotient in the right one). Approximation
certificates bundle the approximation morphism with re-checkable membership
evidence for its target (left) or source (right).

The central construction is left_approx_ext: given a representation m and
add-handles x and y, it produces a left approximation of m into the
extension category x*y from a left y-approximation, a projective surjection
onto its target, a left x-approximation of the kernel, and one pushout.
left_approx_ext_subclosed trades the projective surjection (and with it the
acyclicity requirement) for the assumption that y is closed under
subobjects, replacing the y-approximation by its image.
"""

from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import (
    ApproxcatError,
    CertificateError,
    FieldMismatchError,
    ShapeError,
    SubobjectClosureError,
)
from .fields import PRIME
from .matrix import Matrix, hstack, vstack
from .rep import (
    Rep,
    RepMorphism,
    ShortExactSeq,
    compose,
    direct_sum,
    direct_sum_rep,
    factor_through_cokernel,
    hom_basis,
    image,
    iso_test,
    kernel,
    projective_epi,
    pushout,
    ses_verify,
    _factor,
)
from .search import Budget, default_budget, iter_subreps


class AddCategory:
    """add of a finite generator list: all finite direct sums of copies of
    the generators. It is not closed under direct summands: a summand of a
    generator is a member only when it is itself such a sum, so add{S1 + S2}
    does not contain S1. Order matters for canonical sums and certificates."""

    __slots__ = ("generators", "quiver", "field", "_key")

    def __init__(self, generators, quiver=None, field=None):
        generators = tuple(generators)
        if generators:
            quiver = generators[0].quiver
            field = generators[0].field
            for g in generators:
                if g.quiver != quiver or g.field != field:
                    raise FieldMismatchError("generators live over different quivers or fields")
        elif quiver is None or field is None:
            raise ShapeError("an empty add handle needs an explicit quiver and field")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("AddCategory is immutable")

    def key(self):
        if self._key is None:
            k = ("add", self.quiver.key(), self.field.label,
                 tuple(g.key() for g in self.generators))
            object.__setattr__(self, "_key", k)
        return self._key

    def __eq__(self, other):
        return isinstance(other, AddCategory) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"AddCategory({[g.dims for g in self.generators]})"

    def canonical_sum(self, multiplicities):
        """(rep, layout): the direct sum generators[0]^c0 + generators[1]^c1
        + ... and the flat list of generator indices, one per summand."""
        layout = self._layout(multiplicities)
        reps = [self.generators[i] for i in layout]
        return direct_sum_rep(reps, self.quiver, self.field), layout

    def _layout(self, multiplicities):
        """The generator index of each summand of the canonical sum."""
        if len(multiplicities) != len(self.generators):
            raise ShapeError("one multiplicity per generator required")
        if any(c < 0 for c in multiplicities):
            raise ShapeError("negative multiplicity")
        return tuple(i for i, c in enumerate(multiplicities) for _ in range(c))


class ExtCategory:
    """The extension closure step x*y: objects fitting in a short exact
    sequence with sub in x and quotient in y."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        if left.quiver != right.quiver or left.field != right.field:
            raise FieldMismatchError("handles live over different quivers or fields")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("ExtCategory is immutable")

    @property
    def quiver(self):
        return self.left.quiver

    @property
    def field(self):
        return self.left.field

    def key(self):
        return ("ext", self.left.key(), self.right.key())

    def __eq__(self, other):
        return isinstance(other, ExtCategory) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"ExtCategory({self.left!r} * {self.right!r})"


Handle = Union[AddCategory, ExtCategory]


@dataclass(frozen=True)
class AddEvidence:
    """member is isomorphic to the canonical sum with these multiplicities;
    iso maps the member onto that sum."""

    multiplicities: tuple
    iso: RepMorphism
    # the keys of the members this evidence has been verified for (see
    # counterex._member_verified): set on first use and freed with the
    # evidence, like RepMorphism._memo
    _verified: set = field(default=None, init=False, compare=False, repr=False)

    @property
    def member(self) -> Rep:
        return self.iso.source


@dataclass(frozen=True)
class ExtEvidence:
    """member == ses.mid sits in a verified short exact sequence whose ends
    carry their own evidence."""

    ses: ShortExactSeq
    sub_evidence: "Evidence"
    quot_evidence: "Evidence"
    _verified: set = field(default=None, init=False, compare=False, repr=False)

    @property
    def member(self) -> Rep:
        return self.ses.mid


Evidence = Union[AddEvidence, ExtEvidence]


def verify_evidence(evidence: Evidence, member: Rep, handle: Handle) -> bool:
    """Re-check membership evidence from scratch: isos must be natural and
    invertible onto freshly built canonical sums, and short exact sequences
    must have natural maps and be exact."""
    if isinstance(handle, AddCategory):
        if not isinstance(evidence, AddEvidence):
            return False
        if evidence.iso.source != member:
            return False
        # the sum grows with the counts, so it is built only once they fit
        # the member; copies of a zero-dimensional generator, which that
        # check cannot bound, add nothing and are not laid out
        mults, gens = evidence.multiplicities, handle.generators
        dims = tuple(sum(c * g.dims[x] for c, g in zip(mults, gens))
                     for x in range(len(member.dims)))
        if len(mults) != len(gens) or dims != member.dims:
            return False
        try:
            expected, _ = handle.canonical_sum(
                [min(c, 0) if g.total_dim == 0 else c for c, g in zip(mults, gens)])
        except (ShapeError, ApproxcatError):
            return False
        if evidence.iso.target != expected:
            return False
        return evidence.iso.is_natural() and evidence.iso.is_iso()
    if isinstance(handle, ExtCategory):
        if not isinstance(evidence, ExtEvidence):
            return False
        ses = evidence.ses
        if ses.mid != member or not (ses.i.is_natural() and ses.p.is_natural()):
            return False
        if not ses_verify(ses):
            return False
        return verify_evidence(evidence.sub_evidence, ses.sub, handle.left) and \
            verify_evidence(evidence.quot_evidence, ses.quot, handle.right)
    return False


@dataclass(frozen=True)
class ApproxCertificate:
    """A left approximation (morphism: m -> t, evidence about t) or a right
    approximation (morphism: t -> m, evidence about t = the source)."""

    side: str
    morphism: RepMorphism
    handle: Handle
    evidence: Evidence

    @property
    def of(self) -> Rep:
        return self.morphism.source if self.side == "left" else self.morphism.target

    @property
    def approximating(self) -> Rep:
        return self.morphism.target if self.side == "left" else self.morphism.source

    def verify(self) -> bool:
        if self.side not in ("left", "right") or not self.morphism.is_natural():
            return False
        return verify_evidence(self.evidence, self.approximating, self.handle)


def left_approx_add(m: Rep, handle: AddCategory) -> ApproxCertificate:
    """The stacked-basis left approximation m -> sum_i S_i^(dim Hom(m, S_i)).

    Every morphism from m to a sum of generator copies factors through it
    componentwise, because each component into one generator is a linear
    combination of the stacked basis rows.
    """
    bases = [hom_basis(m, g) for g in handle.generators]
    mults = tuple(len(b) for b in bases)
    target, layout = handle.canonical_sum(mults)
    flat = [f for basis in bases for f in basis]
    comps = []
    for x in range(m.quiver.vertex_count):
        blocks = [f.component(x) for f in flat]
        comps.append(vstack(blocks) if blocks else Matrix(m.field, 0, m.dims[x]))
    morphism = RepMorphism(m, target, comps)
    evidence = AddEvidence(mults, RepMorphism.identity(target))
    return ApproxCertificate("left", morphism, handle, evidence)


def right_approx_add(m: Rep, handle: AddCategory) -> ApproxCertificate:
    """Dual of left_approx_add: sum_i S_i^(dim Hom(S_i, m)) -> m with the
    hom bases side by side."""
    bases = [hom_basis(g, m) for g in handle.generators]
    mults = tuple(len(b) for b in bases)
    source, layout = handle.canonical_sum(mults)
    flat = [f for basis in bases for f in basis]
    comps = []
    for x in range(m.quiver.vertex_count):
        blocks = [f.component(x) for f in flat]
        comps.append(hstack(blocks) if blocks else Matrix(m.field, m.dims[x], 0))
    morphism = RepMorphism(source, m, comps)
    evidence = AddEvidence(mults, RepMorphism.identity(source))
    return ApproxCertificate("right", morphism, handle, evidence)


def factor_through(f: RepMorphism, z: RepMorphism) -> Optional[RepMorphism]:
    """h with h z = f, for morphisms f: m -> w and z: m -> t out of a common
    source; None when no factorization exists. The system for each target
    w is built once and memoized on z."""
    if f.source != z.source:
        raise ShapeError("factor_through needs a common source")
    return _factor(f, z, "left")


def factor_through_right(f: RepMorphism, z: RepMorphism) -> Optional[RepMorphism]:
    """h with z h = f, for morphisms f: w -> m and z: t -> m into a common
    target; None when no factorization exists. The system for each source
    w is built once and memoized on z."""
    if f.target != z.target:
        raise ShapeError("factor_through_right needs a common target")
    return _factor(f, z, "right")


def member_add(m: Rep, handle: AddCategory) -> Optional[AddEvidence]:
    """Evidence that m is a finite direct sum of generator copies, or None.

    Searches the multiplicity vectors that solve the dimension-vector
    equation in lexicographic order and certifies the first candidate that
    iso_test confirms. Zero-dimensional generators always get multiplicity
    zero. When every generator acts by zero, so does every canonical sum:
    m is a member exactly when its maps are zero and its dims admit a
    multiplicity vector, and then it is literally the first canonical sum.
    """
    gen_dims = [g.dims for g in handle.generators]
    if all(g.map(a.id).is_zero() for g in handle.generators for a in handle.quiver.arrows):
        if m.quiver != handle.quiver or m.field != handle.field:
            raise FieldMismatchError("member_add needs a common quiver and field")
        if not all(m.map(a.id).is_zero() for a in m.quiver.arrows):
            return None
        mults = next(_multiplicities(gen_dims, m.dims), None)
        return None if mults is None else AddEvidence(mults, RepMorphism.identity(m))
    for mults in _multiplicities(gen_dims, m.dims):
        total, _ = handle.canonical_sum(mults)
        iso = iso_test(m, total)
        if iso is not None:
            return AddEvidence(mults, iso)
    return None


def _multiplicities(gen_dims, dims, bounded=False):
    """Every vector c >= 0 with sum_i c_i * gen_dims[i] == dims (<= dims
    when bounded), in lexicographic order; zero-dimensional generators get
    c_i = 0."""
    if not gen_dims:
        if bounded or not any(dims):
            yield ()
        return
    g = gen_dims[0]
    caps = [d // gx for d, gx in zip(dims, g) if gx]
    if len(gen_dims) == 1 and not bounded:
        # the last count is forced: c * g must be dims itself
        c = min(caps, default=0)
        if all(d == c * gx for d, gx in zip(dims, g)):
            yield (c,)
        return
    for c in range(min(caps) + 1 if caps else 1):
        rest = tuple(d - c * gx for d, gx in zip(dims, g))
        for tail in _multiplicities(gen_dims[1:], rest, bounded):
            yield (c,) + tail


def minimize_approx(cert: ApproxCertificate) -> ApproxCertificate:
    """Delete generator summands from an add-approximation in one greedy
    pass, each deletion kept when the approximation property survives it.

    Left: dropping target summands must keep every morphism from m to every
    generator factoring through. Right: dually with morphisms from the
    generators. One pass suffices because factoring is monotone in the
    summands kept: a morphism that factors through the restriction to a set
    A of summands factors through the restriction to any B containing A
    (compose with the projection B -> A on the left, with the inclusion
    A -> B on the right), so a summand the pass cannot drop never becomes
    droppable later.
    """
    if not isinstance(cert.evidence, AddEvidence):
        raise ApproxcatError("minimize_approx needs an add-approximation certificate")
    handle, m, left = cert.handle, cert.of, cert.side == "left"
    gens = handle.generators
    iso = cert.evidence.iso
    # work against the literal canonical sum so summand slicing is valid
    morphism = compose(iso, cert.morphism) if left else compose(cert.morphism, iso.inverse())
    layout = handle._layout(cert.evidence.multiplicities)
    ranges = []
    for x in range(m.quiver.vertex_count):
        off, per_summand = 0, []
        for i in layout:
            per_summand.append(range(off, off + gens[i].dims[x]))
            off += gens[i].dims[x]
        ranges.append(per_summand)
    basis = [b for g in gens for b in (hom_basis(m, g) if left else hom_basis(g, m))]
    factor = factor_through if left else factor_through_right

    def restricted(positions):
        total = direct_sum_rep([gens[layout[p]] for p in positions], handle.quiver, handle.field)
        comps = []
        for c, per_summand in zip(morphism.components, ranges):
            rows = [r for p in positions for r in per_summand[p]]
            comps.append(c.take_rows(rows) if left else c.take_cols(rows))
        src, dst = (m, total) if left else (total, m)
        return RepMorphism(src, dst, comps, check=False)

    kept = list(range(len(layout)))
    for pos in range(len(layout)):
        trial = [p for p in kept if p != pos]
        z = restricted(trial)
        if all(factor(b, z) is not None for b in basis):
            kept = trial
    z = restricted(kept)
    total = z.target if left else z.source
    mults = tuple(sum(layout[p] == i for p in kept) for i in range(len(gens)))
    evidence = AddEvidence(mults, RepMorphism.identity(total))
    return ApproxCertificate(cert.side, z, handle, evidence)


def _pushout_extension(e: RepMorphism, x: AddCategory):
    """For a surjection e: S -> Y, push a left x-approximation x_k: K -> X
    of K = ker e out along K -> S to Z. Returns (a: S -> Z, the verified
    sequence 0 -> X -> Z -> Y -> 0, the x-evidence for X)."""
    k, incl = kernel(e)
    cx = left_approx_add(k, x)
    x_k = cx.morphism
    z, a, b = pushout(incl, x_k)
    big_x, y = x_k.target, e.target
    vertices = range(y.quiver.vertex_count)
    coker_proj = RepMorphism(
        direct_sum_rep([e.source, big_x]), z,
        [hstack([a.component(v), b.component(v)]) for v in vertices],
        check=False,
    )
    onto_y = RepMorphism(
        coker_proj.source, y,
        [hstack([e.component(v), Matrix.zeros(y.field, y.dims[v], big_x.dims[v])])
         for v in vertices],
        check=False,
    )
    ses = ShortExactSeq(b, factor_through_cokernel(coker_proj, onto_y))
    if not ses_verify(ses):
        raise CertificateError("pushout did not produce an exact bottom row")
    return a, ses, cx.evidence


def left_approx_ext(m: Rep, x: AddCategory, y: AddCategory) -> ApproxCertificate:
    """Left approximation of m into the extension category x*y, for
    representations of an acyclic quiver.

    Construction: take the stacked left y-approximation y_m: m -> Y, a
    projective surjection pi: P -> Y, and the kernel K of the combined
    surjection (y_m, pi): m + P -> Y. A left x-approximation x_k: K -> X
    pushed out along K -> m + P yields Z with an induced exact sequence
    0 -> X -> Z -> Y -> 0, and the composite z_m: m -> Z is the left
    approximation. The certificate records that sequence with add-evidence
    on both ends.
    """
    cy = left_approx_add(m, y)
    y_m = cy.morphism
    big_y = y_m.target
    p, pi = projective_epi(big_y)
    s, injs, _ = direct_sum([m, p])
    comb = RepMorphism(
        s, big_y,
        [hstack([y_m.component(v), pi.component(v)]) for v in range(m.quiver.vertex_count)],
    )
    a_s, ses, x_evidence = _pushout_extension(comb, x)
    evidence = ExtEvidence(ses, x_evidence, cy.evidence)
    return ApproxCertificate("left", compose(a_s, injs[0]), ExtCategory(x, y), evidence)


def left_approx_ext_subclosed(
    m: Rep,
    x: AddCategory,
    y: AddCategory,
    spot_check: bool = True,
    budget: Budget | None = None,
) -> ApproxCertificate:
    """Variant of left_approx_ext for y closed under subobjects: the
    y-approximation can be replaced by its image (an epimorphism onto a
    member of y), so no projectives are needed and cyclic quivers work.

    Over a prime field, spot_check exhaustively confirms closure of each
    generator's subrepresentations (budget bounded) before constructing;
    over the rationals closure is the caller's assertion. Either way the
    image itself is certified by member_add, so a violation surfacing there
    raises SubobjectClosureError.
    """
    if spot_check and m.field.kind == PRIME:
        budget = budget or default_budget()
        for g in y.generators:
            for sub, _ in iter_subreps(g, budget):
                if member_add(sub, y) is None:
                    raise SubobjectClosureError(
                        f"generator with dims {g.dims} has a subrepresentation "
                        f"with dims {sub.dims} outside the handle"
                    )
    cy = left_approx_add(m, y)
    im, _, y_epi = image(cy.morphism)
    quot_evidence = member_add(im, y)
    if quot_evidence is None:
        raise SubobjectClosureError(
            "image of the y-approximation escapes y; the handle is not subobject closed"
        )
    a_m, ses, x_evidence = _pushout_extension(y_epi, x)
    evidence = ExtEvidence(ses, x_evidence, quot_evidence)
    return ApproxCertificate("left", a_m, ExtCategory(x, y), evidence)

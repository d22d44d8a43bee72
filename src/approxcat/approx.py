"""Approximations of representations by subcategories.

Two kinds of subcategory handle: AddCategory (finite direct sums of copies
of listed generators) and ExtCategory (middles of short exact sequences
with sub in the left handle and quotient in the right one). Approximation
certificates bundle the approximation morphism with re-checkable membership
evidence for its target (left) or source (right).

The central construction is Gentle-Todorov's, by recursion over the
handle tree: left_approx(m, handle) takes the stacked basis at an add
leaf, and at an ext node x*y calls left_approx_ext, which builds a left
approximation of m into x*y from a left y-approximation, a projective
surjection onto its target, a left x-approximation of the kernel (both by
left_approx, so x and y may be any handle trees), and one pushout. For an
ordered family with Ext1(X_i, X_j) = 0 for i <= j, the filtration category
F(S) is add X_1 * (add X_2 * (... * add X_n)), so this recursion gives its
left approximations. left_approx_ext_subclosed trades the projective
surjection (and with it the acyclicity requirement) for the assumption
that the add handle y is closed under subobjects, replacing the
y-approximation by its image; its x is any handle tree, through the same
recursion, which needs projectives again below an ext x.
"""

from functools import lru_cache
from typing import Optional, Union

from .errors import (
    ApproxcatError,
    CertificateError,
    FieldMismatchError,
    HypothesisViolationError,
    NonAcyclicQuiverError,
    RationalFieldUnsupportedError,
    ShapeError,
    SubobjectClosureError,
)
from .fields import PRIME
from .matrix import Matrix, hstack, vstack
from .rep import (
    FrozenValue,
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


class AddCategory(FrozenValue):
    """add of a finite generator list: all finite direct sums of copies of
    the generators. It is not closed under direct summands: a summand of a
    generator is a member only when it is itself such a sum, so add{S1 + S2}
    does not contain S1. Order matters for canonical sums and certificates,
    and it makes the handle an ordered family X_1, ..., X_n for filtrations,
    whose normalization hypothesis is Ext1(X_i, X_j) = 0 for i <= j.
    Its canonical sums and zero-map evidence are kept in bounded caches
    keyed by (handle, vector)."""

    _fields = ("generators", "quiver", "field")
    __slots__ = _fields + ("_kind",)

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
        object.__setattr__(self, "_kind", None)

    def kind(self):
        """(semisimple, support): whether every generator has zero arrow
        maps, which makes add membership a dimension count, and for a
        vertex-simple family (semisimple, and the simple of each vertex in a
        generator's support is a generator) the set T of vertices its
        generators support, else None. Computed once per handle."""
        if self._kind is None:
            gens, n = self.generators, self.quiver.vertex_count
            semisimple = all(g.map(a.id).is_zero() for g in gens for a in self.quiver.arrows)
            support = frozenset(x for g in gens for x in range(n) if g.dims[x])
            gen_dims = {g.dims for g in gens}
            vertex_simple = semisimple and all(
                tuple(int(y == x) for y in range(n)) in gen_dims for x in support
            )
            object.__setattr__(self, "_kind", (semisimple, support if vertex_simple else None))
        return self._kind

    def __repr__(self):
        return f"AddCategory({[g.dims for g in self.generators]})"

    def canonical_sum(self, multiplicities):
        """(rep, layout): the direct sum generators[0]^c0 + generators[1]^c1
        + ... and the flat list of generator indices, one per summand."""
        return _canonical_sum(self, tuple(multiplicities))

    def zero_map_evidence(self, dims):
        """The evidence member_add gives a rep of these dims with zero maps,
        over a handle whose generators all act by zero: the identity of the
        first canonical sum of dims, or None when no multiplicity vector
        gives dims."""
        if not self.kind()[0]:
            raise ShapeError("zero-map evidence needs generators that act by zero")
        return _zero_map_evidence(self, tuple(dims))

    def _layout(self, multiplicities):
        """The generator index of each summand of the canonical sum."""
        if len(multiplicities) != len(self.generators):
            raise ShapeError("one multiplicity per generator required")
        if any(c < 0 for c in multiplicities):
            raise ShapeError("negative multiplicity")
        return tuple(i for i, c in enumerate(multiplicities) for _ in range(c))


@lru_cache(maxsize=256)
def _canonical_sum(handle: AddCategory, multiplicities: tuple):
    layout = handle._layout(multiplicities)
    reps = [handle.generators[i] for i in layout]
    return direct_sum_rep(reps, handle.quiver, handle.field), layout


@lru_cache(maxsize=256)
def _zero_map_evidence(handle: AddCategory, dims: tuple):
    mults = next(_multiplicities([g.dims for g in handle.generators], dims), None)
    return None if mults is None else AddEvidence(
        mults, RepMorphism.identity(handle.canonical_sum(mults)[0]))


class ExtCategory(FrozenValue):
    """The extension closure step x*y: objects fitting in a short exact
    sequence with sub in x and quotient in y."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left, right):
        if left.quiver != right.quiver or left.field != right.field:
            raise FieldMismatchError("handles live over different quivers or fields")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def quiver(self):
        return self.left.quiver

    @property
    def field(self):
        return self.left.field

    def __repr__(self):
        return f"ExtCategory({self.left!r} * {self.right!r})"


Handle = Union[AddCategory, ExtCategory]


class AddEvidence(FrozenValue):
    """member is isomorphic to the canonical sum with these multiplicities;
    iso maps the member onto that sum. member_add's evidence over a
    zero-map handle is the identity of that sum, one object shared per
    handle and dimension vector (AddCategory.zero_map_evidence)."""

    __slots__ = _fields = ("multiplicities", "iso")

    def __init__(self, multiplicities: tuple, iso: RepMorphism):
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "iso", iso)

    @property
    def member(self) -> Rep:
        return self.iso.source


class ExtEvidence(FrozenValue):
    """member == ses.mid sits in a verified short exact sequence whose ends
    carry their own evidence."""

    __slots__ = _fields = ("ses", "sub_evidence", "quot_evidence")

    def __init__(self, ses: ShortExactSeq, sub_evidence: "Evidence", quot_evidence: "Evidence"):
        object.__setattr__(self, "ses", ses)
        object.__setattr__(self, "sub_evidence", sub_evidence)
        object.__setattr__(self, "quot_evidence", quot_evidence)

    @property
    def member(self) -> Rep:
        return self.ses.mid


Evidence = Union[AddEvidence, ExtEvidence]


def verify_evidence(evidence: Evidence, member: Rep, handle: Handle) -> bool:
    """Re-check membership evidence: isos must be natural and invertible
    onto the handle's canonical sums, and short exact sequences must have
    natural maps and be exact. An iso between equal ends whose every
    component is the identity is both by definition, so only other isos
    get the products and eliminations of the full check."""
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
        iso = evidence.iso
        if iso.target != expected:
            return False
        if iso.source == iso.target and all(
                c == Matrix.identity(c.field, c.rows) for c in iso.components):
            return True
        return iso.is_natural() and iso.is_iso()
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


class ApproxCertificate(FrozenValue):
    """A left approximation (morphism: m -> t, evidence about t) or a right
    approximation (morphism: t -> m, evidence about t = the source).

    verify checks that the morphism f is natural, that t lies in the
    handle, and that f is an approximation: the library's own
    approximation z of m into the same handle (_approximation) must factor
    through f, as z = k f on the left (z = f k on the right). That is
    exactly the property: z goes into the handle, so an approximation f
    lets it factor, and if z = k f then every g = h z into the handle is
    (h k) f. Where the library has no z that a theorem makes an
    approximation, verify refuses with an error of exit code 3 rather than
    answer.

    _own is True on a certificate the library built as an approximation
    (left_approx_add, right_approx_add, left_approx_ext, a subobject-closed
    left_approx_ext_subclosed, and minimize_approx of such a one): its
    morphism is its own z, so verify needs no factorization. It lives in
    this process only: it is never serialized, a certificate read from
    JSON or built by hand starts with False, and it is no part of ==, hash
    or repr."""

    _fields = ("side", "morphism", "handle", "evidence")
    __slots__ = _fields + ("_own",)

    def __init__(self, side: str, morphism: RepMorphism, handle: Handle, evidence: Evidence):
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "morphism", morphism)
        object.__setattr__(self, "handle", handle)
        object.__setattr__(self, "evidence", evidence)
        object.__setattr__(self, "_own", False)

    @property
    def of(self) -> Rep:
        return self.morphism.source if self.side == "left" else self.morphism.target

    @property
    def approximating(self) -> Rep:
        return self.morphism.target if self.side == "left" else self.morphism.source

    def verify(self) -> bool:
        if self.side not in ("left", "right") or not self.morphism.is_natural():
            return False
        if not verify_evidence(self.evidence, self.approximating, self.handle):
            return False
        if self._own:
            return True
        z = _approximation(self.side, self.of, self.handle)
        factor = factor_through if self.side == "left" else factor_through_right
        return factor(z, self.morphism) is not None


def _as_own(cert: ApproxCertificate, own: bool = True) -> ApproxCertificate:
    """cert, recorded as the library's own approximation when own is true."""
    object.__setattr__(cert, "_own", own)
    return cert


def _approximation(side: str, m: Rep, handle: Handle) -> RepMorphism:
    """The library's approximation of m into handle on side, where a
    theorem makes it one: the stacked basis into an add handle on either
    side; left_approx into a handle tree on an acyclic quiver
    (Gentle-Todorov); on a quiver with a cycle, left_approx_ext_subclosed
    into x*y for an add handle y closed under subobjects, by theorem when y
    is vertex-simple, else by the exhaustive check over F_p within the
    default budget. Anything else has no such z and is refused with an
    error of exit code 3: a right side into an ext handle, an ext y on a
    quiver with a cycle, and a y that is not vertex-simple over Q, whose
    closure no check decides (as well as a y that fails the check, or a
    check past the budget, which left_approx_ext_subclosed refuses)."""
    if isinstance(handle, AddCategory):
        return (left_approx_add if side == "left" else right_approx_add)(m, handle).morphism
    if side != "left":
        raise HypothesisViolationError("no right approximation into an ext handle is built")
    if m.quiver.is_acyclic:
        return left_approx(m, handle).morphism
    y = handle.right
    if not isinstance(y, AddCategory):
        raise NonAcyclicQuiverError("an ext y needs projectives, so an acyclic quiver")
    if y.kind()[1] is None and m.field.kind != PRIME:
        raise RationalFieldUnsupportedError(
            "closure of y under subobjects is checked over a prime field only")
    return left_approx_ext_subclosed(m, handle.left, y).morphism


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
    morphism = RepMorphism._make(m, target, comps)
    evidence = AddEvidence(mults, RepMorphism.identity(target))
    return _as_own(ApproxCertificate("left", morphism, handle, evidence))


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
    morphism = RepMorphism._make(source, m, comps)
    evidence = AddEvidence(mults, RepMorphism.identity(source))
    return _as_own(ApproxCertificate("right", morphism, handle, evidence))


def factor_through(f: RepMorphism, z: RepMorphism) -> Optional[RepMorphism]:
    """h with h z = f, for morphisms f: m -> w and z: m -> t out of a common
    source; None when no factorization exists. The system for each target
    w is built once per z and kept in a bounded cache."""
    if f.source != z.source:
        raise ShapeError("factor_through needs a common source")
    return _factor(f, z, "left")


def factor_through_right(f: RepMorphism, z: RepMorphism) -> Optional[RepMorphism]:
    """h with z h = f, for morphisms f: w -> m and z: t -> m into a common
    target; None when no factorization exists. The system for each source
    w is built once per z and kept in a bounded cache."""
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
    The evidence is then the handle's zero_map_evidence for m.dims, built
    once per handle and dims and shared, so evidence.member is a rep equal
    to m, not m. An m over another quiver or field than the handle's
    raises FieldMismatchError, whatever the handle.
    """
    if m.quiver is not handle.quiver or m.field is not handle.field:
        raise FieldMismatchError("member_add needs a common quiver and field")
    if handle.kind()[0]:
        if not all(m.map(a.id).is_zero() for a in m.quiver.arrows):
            return None
        return handle.zero_map_evidence(m.dims)
    for mults in _multiplicities([g.dims for g in handle.generators], m.dims):
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
    droppable later. For the same reason the result is an approximation
    exactly when cert is, so it is the library's own (_own) when cert is.
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
        return RepMorphism._make(src, dst, comps)

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
    return _as_own(ApproxCertificate(cert.side, z, handle, evidence), cert._own)


def left_approx(m: Rep, handle: Handle) -> ApproxCertificate:
    """Left approximation of m into any handle tree: the stacked basis at
    an add leaf, left_approx_ext at an ext node."""
    if isinstance(handle, AddCategory):
        return left_approx_add(m, handle)
    return left_approx_ext(m, handle.left, handle.right)


def _pushout_extension(e: RepMorphism, x: Handle):
    """For a surjection e: S -> Y, push a left x-approximation x_k: K -> X
    of K = ker e out along K -> S to Z. Returns (a: S -> Z, the verified
    sequence 0 -> X -> Z -> Y -> 0, the x-evidence for X)."""
    k, incl = kernel(e)
    cx = left_approx(k, x)
    x_k = cx.morphism
    z, a, b, coker_proj = pushout(incl, x_k)
    big_x, y = x_k.target, e.target
    onto_y = RepMorphism._make(
        coker_proj.source, y,
        [hstack([e.component(v), Matrix.zeros(y.field, y.dims[v], big_x.dims[v])])
         for v in range(y.quiver.vertex_count)],
    )
    ses = ShortExactSeq(b, factor_through_cokernel(coker_proj, onto_y))
    if not ses_verify(ses):
        raise CertificateError("pushout did not produce an exact bottom row")
    return a, ses, cx.evidence


def left_approx_ext(m: Rep, x: Handle, y: Handle) -> ApproxCertificate:
    """Left approximation of m into the extension category x*y, for
    representations of an acyclic quiver; x and y are any handle trees.

    Construction: take the left y-approximation y_m: m -> Y (left_approx),
    a projective surjection pi: P -> Y, and the kernel K of the combined
    surjection (y_m, pi): m + P -> Y. A left x-approximation x_k: K -> X
    pushed out along K -> m + P yields Z with an induced exact sequence
    0 -> X -> Z -> Y -> 0, and the composite z_m: m -> Z is the left
    approximation. The certificate records that sequence with the evidence
    of both approximations on its ends.
    """
    cy = left_approx(m, y)
    y_m = cy.morphism
    big_y = y_m.target
    p, pi = projective_epi(big_y)
    s, injs, _ = direct_sum([m, p])
    comb = RepMorphism._make(
        s, big_y,
        [hstack([y_m.component(v), pi.component(v)]) for v in range(m.quiver.vertex_count)],
    )
    a_s, ses, x_evidence = _pushout_extension(comb, x)
    evidence = ExtEvidence(ses, x_evidence, cy.evidence)
    return _as_own(ApproxCertificate("left", compose(a_s, injs[0]), ExtCategory(x, y), evidence))


def left_approx_ext_subclosed(
    m: Rep,
    x: Handle,
    y: AddCategory,
    budget: Budget | None = None,
) -> ApproxCertificate:
    """Variant of left_approx_ext for an add handle y closed under
    subobjects: the y-approximation can be replaced by its image (an
    epimorphism onto a member of y), so no projectives are needed at this
    level and cyclic quivers work; x is any handle tree.

    A vertex-simple y (y.kind()[1], support T) is closed by theorem: a
    subrepresentation of a zero-map representation supported on T is a sum
    of simples on T, each a generator. Otherwise, over a prime field,
    closure of each generator's subrepresentations is confirmed
    exhaustively (budget bounded) before constructing; over the rationals
    it is the caller's assertion, and the certificate is then not the
    library's own (_own), so its verify checks the approximation property
    through _approximation, which refuses it. Either way the image itself
    is certified by member_add, so a violation surfacing there raises
    SubobjectClosureError.
    """
    vertex_simple = y.kind()[1] is not None
    if m.field.kind == PRIME and not vertex_simple:
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
    return _as_own(ApproxCertificate("left", a_m, ExtCategory(x, y), evidence),
                   m.field.kind == PRIME or vertex_simple)

import itertools
import random

import pytest

from approxcat.errors import (
    ApproxcatError,
    NonAcyclicQuiverError,
    ShapeError,
)
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import (
    Filtration,
    Rep,
    RepMorphism,
    ShortExactSeq,
    cokernel,
    compose,
    direct_sum,
    euler_form,
    ext1_basis,
    ext1_dim,
    extension_from_cocycle,
    factor_through_cokernel,
    hom_basis,
    hom_dim,
    image,
    is_split,
    iso_test,
    kernel,
    preimage_subrep,
    projective,
    projective_epi,
    pushout,
    ses_verify,
    subrep_from_bases,
)
from rep_oracles import cocycles_equivalent, ses_class_cocycle, subrep_stable, yoneda_dim_check

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)

A2 = a2_quiver()
LOOP = loop_quiver(1)


def a2_rep(field, d0, d1, entries):
    return Rep(A2, field, [d0, d1], {"a": Matrix(field, d1, d0, entries)})


def simples(field):
    return Rep.simple(A2, field, 0), Rep.simple(A2, field, 1)


def p1(field):
    return a2_rep(field, 1, 1, [1])


class TestQuiver:
    def test_acyclicity(self):
        assert A2.is_acyclic
        assert not LOOP.is_acyclic
        assert not Quiver(2, [("a", 0, 1), ("b", 1, 0)]).is_acyclic
        assert Quiver(3, [("a", 0, 1), ("b", 1, 2), ("c", 0, 2)]).is_acyclic
        assert Quiver(0, []).is_acyclic
        assert not Quiver(3, [("a", 0, 1), ("b", 1, 2), ("c", 2, 2)]).is_acyclic
        assert not Quiver(4, [("a", 0, 1), ("b", 2, 3), ("c", 3, 2)]).is_acyclic
        assert Quiver(2, [("a", 0, 1), ("b", 0, 1)]).is_acyclic

    def test_paths(self):
        q = Quiver(3, [("a", 0, 1), ("b", 1, 2)])
        paths = q.paths_from(0)
        assert paths == [((), 0), (("a",), 1), (("a", "b"), 2)]

    def test_duplicate_arrow_id_rejected(self):
        with pytest.raises(ApproxcatError):
            Quiver(2, [("a", 0, 1), ("a", 0, 1)])

    def test_json_round_trip(self):
        q = Quiver(3, [("x", 0, 1), ("y", 1, 2)])
        assert Quiver.from_jsonable(q.to_jsonable()) == q

    @pytest.mark.parametrize("arrows", [{}, "", None, 3])
    def test_json_arrows_must_be_a_list(self, arrows):
        # an object or a string would otherwise iterate as no arrows at all
        with pytest.raises(ApproxcatError):
            Quiver.from_jsonable({"vertices": 2, "arrows": arrows})


class TestRepBasics:
    def test_missing_maps_default_to_zero(self):
        r = Rep(A2, F2, [2, 1])
        assert r.map("a") == Matrix.zeros(F2, 1, 2)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            Rep(A2, F2, [2, 1], {"a": Matrix.zeros(F2, 2, 1)})

    def test_morphism_naturality_enforced(self):
        s1, _ = simples(F2)
        p = p1(F2)
        # component at vertex 0 must commute with the arrow map; [1] does not
        with pytest.raises(ShapeError):
            RepMorphism(p, p, [Matrix(F2, 1, 1, [1]), Matrix(F2, 1, 1, [0])])

    def test_identity_and_zero(self):
        p = p1(Q)
        idp = RepMorphism.identity(p)
        assert idp.is_iso() and compose(idp, idp) == idp
        z = RepMorphism.zero(p, p)
        assert z.is_zero()


class TestHom:
    def test_frozen_a2_hom_dims(self):
        s1, s2 = simples(F2)
        p = p1(F2)
        assert hom_dim(p, s1) == 1
        assert hom_dim(p, s2) == 0
        assert hom_dim(s2, p) == 1
        assert hom_dim(s1, p) == 0
        assert hom_dim(s2, s1) == 0

    def test_basis_elements_are_natural_and_deterministic(self):
        rng = random.Random(5)
        for _ in range(25):
            d = [rng.randrange(0, 3) for _ in range(2)]
            e = [rng.randrange(0, 3) for _ in range(2)]
            v = a2_rep(F2, d[0], d[1], [rng.randrange(2) for _ in range(d[0] * d[1])])
            w = a2_rep(F2, e[0], e[1], [rng.randrange(2) for _ in range(e[0] * e[1])])
            basis = hom_basis(v, w)
            assert len(basis) == hom_dim(v, w)
            for f in basis:
                RepMorphism(v, w, f.components)  # re-checks naturality
            assert basis == hom_basis(v, w)

    def test_hom_of_zero(self):
        z = Rep.zero(A2, F2)
        assert hom_basis(z, p1(F2)) == []
        assert hom_basis(p1(F2), z) == []


class TestExt:
    def test_frozen_a2_ext(self):
        s1, s2 = simples(F2)
        assert ext1_dim(s1, s2) == 1
        assert ext1_dim(s2, s1) == 0
        assert ext1_dim(s1, s1) == 0
        basis = ext1_basis(s1, s2)
        assert len(basis) == 1
        ses = extension_from_cocycle(s1, s2, basis[0])
        assert ses_verify(ses)
        assert iso_test(ses.mid, p1(F2)) is not None

    def test_frozen_loop_ext_self_extension(self):
        s = Rep(LOOP, F2, [1])
        assert ext1_dim(s, s) == 1
        ses = extension_from_cocycle(s, s, ext1_basis(s, s)[0])
        assert ses_verify(ses)
        mid = ses.mid
        assert mid.dims == (2,) and mid.map("alpha1").rank() == 1

    def test_frozen_two_loop_ext_count(self):
        # two loops and one exit arrow; the one-dimensional module with zero
        # loop action has exactly 2^2 pairwise inequivalent extension classes
        # by the vertex-0 simple (one dimension per loop)
        q = Quiver(2, [("alpha1", 0, 0), ("alpha2", 0, 0), ("beta", 0, 1)])
        m = Rep(q, F2, [1, 1], {"beta": Matrix(F2, 1, 1, [1])})
        s1 = Rep.simple(q, F2, 0)
        assert ext1_dim(m, s1) == 2
        basis = ext1_basis(m, s1)
        assert len(basis) == 2
        vecs = list(itertools.product(range(2), repeat=2))
        classes = []
        for c0, c1 in vecs:
            blocks = {
                aid: basis[0][aid].scale(c0) + basis[1][aid].scale(c1)
                for aid in ("alpha1", "alpha2", "beta")
            }
            classes.append(blocks)
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                assert not cocycles_equivalent(m, s1, classes[i], classes[j])

    def test_euler_form_matches_hom_minus_ext(self):
        rng = random.Random(13)
        for quiver in (A2, LOOP, Quiver(2, [("a", 0, 1), ("b", 0, 1)])):
            for _ in range(20):
                dv = [rng.randrange(0, 3) for _ in range(quiver.vertex_count)]
                dw = [rng.randrange(0, 3) for _ in range(quiver.vertex_count)]
                v = Rep(quiver, F2, dv, {
                    a.id: Matrix(F2, dv[a.target], dv[a.source],
                                 [rng.randrange(2) for _ in range(dv[a.target] * dv[a.source])])
                    for a in quiver.arrows
                })
                w = Rep(quiver, F2, dw, {
                    a.id: Matrix(F2, dw[a.target], dw[a.source],
                                 [rng.randrange(2) for _ in range(dw[a.target] * dw[a.source])])
                    for a in quiver.arrows
                })
                assert hom_dim(v, w) - ext1_dim(v, w) == euler_form(v, w)

    def test_class_extraction_round_trip(self):
        s1, s2 = simples(F2)
        c = ext1_basis(s1, s2)[0]
        ses = extension_from_cocycle(s1, s2, c)
        back = ses_class_cocycle(ses)
        assert cocycles_equivalent(s1, s2, c, back)


class TestKernelCokernelImage:
    def test_frozen_kernel_of_top_projection(self):
        p = p1(F2)
        s1, s2 = simples(F2)
        f = RepMorphism(p, s1, [Matrix(F2, 1, 1, [1]), Matrix(F2, 0, 1)])
        k, incl = kernel(f)
        assert k.dims == (0, 1)
        assert compose(f, incl).is_zero()

    def test_frozen_cokernel_of_socle_inclusion(self):
        p = p1(F2)
        s1, s2 = simples(F2)
        f = RepMorphism(s2, p, [Matrix(F2, 1, 0), Matrix(F2, 1, 1, [1])])
        c, proj = cokernel(f)
        assert c.dims == (1, 0)
        assert compose(proj, f).is_zero()
        assert proj.is_surjective()

    def test_image_factorization(self):
        rng = random.Random(3)
        for _ in range(20):
            d = [rng.randrange(0, 3) for _ in range(2)]
            v = a2_rep(F2, d[0], d[1], [rng.randrange(2) for _ in range(d[0] * d[1])])
            e = [rng.randrange(0, 3) for _ in range(2)]
            w = a2_rep(F2, e[0], e[1], [rng.randrange(2) for _ in range(e[0] * e[1])])
            for f in hom_basis(v, w):
                im, incl, proj = image(f)
                assert incl.is_injective() and proj.is_surjective()
                assert compose(incl, proj) == f

    def test_kernel_cokernel_dims_add_up(self):
        rng = random.Random(9)
        for _ in range(20):
            d = [rng.randrange(0, 4) for _ in range(2)]
            e = [rng.randrange(0, 4) for _ in range(2)]
            v = a2_rep(F2, d[0], d[1], [rng.randrange(2) for _ in range(d[0] * d[1])])
            w = a2_rep(F2, e[0], e[1], [rng.randrange(2) for _ in range(e[0] * e[1])])
            for f in hom_basis(v, w):
                k, _ = kernel(f)
                c, _ = cokernel(f)
                im, _, _ = image(f)
                for x in range(2):
                    assert k.dims[x] + im.dims[x] == v.dims[x]
                    assert c.dims[x] + im.dims[x] == w.dims[x]


class TestDirectSumAndSes:
    def test_direct_sum_projections(self):
        s1, s2 = simples(F2)
        p = p1(F2)
        total, injs, projs = direct_sum([s1, p, s2])
        assert total.dims == (2, 2)
        for i in range(3):
            for j in range(3):
                c = compose(projs[i], injs[j])
                if i == j:
                    assert c == RepMorphism.identity([s1, p, s2][i])
                else:
                    assert c.is_zero()

    def test_empty_direct_sum(self):
        z, injs, projs = direct_sum([], quiver=A2, field=F2)
        assert z.is_zero_rep() and injs == [] and projs == []

    def test_ses_verify_accepts_the_canonical_extension(self):
        s1, s2 = simples(F2)
        ses = extension_from_cocycle(s1, s2, ext1_basis(s1, s2)[0])
        assert ses_verify(ses)

    def test_ses_verify_rejects_non_exact(self):
        s1, s2 = simples(F2)
        p = p1(F2)
        # p -> p -> p with identity on both legs is not exact in the middle
        bad = ShortExactSeq(RepMorphism.identity(p), RepMorphism.identity(p))
        assert not ses_verify(bad)

    def test_frozen_socle_sequence_non_split(self):
        s1, s2 = simples(F2)
        p = p1(F2)
        i = RepMorphism(s2, p, [Matrix(F2, 1, 0), Matrix(F2, 1, 1, [1])])
        pr = RepMorphism(p, s1, [Matrix(F2, 1, 1, [1]), Matrix(F2, 0, 1)])
        ses = ShortExactSeq(i, pr)
        assert ses_verify(ses)
        assert is_split(ses) is None

    def test_split_sequence_has_section(self):
        s1, s2 = simples(F2)
        total, injs, projs = direct_sum([s2, s1])
        ses = ShortExactSeq(injs[0], projs[1])
        assert ses_verify(ses)
        sigma = is_split(ses)
        assert sigma is not None
        assert compose(projs[1], sigma) == RepMorphism.identity(s1)


class TestPushout:
    def test_frozen_pushout_along_identity(self):
        s1, s2 = simples(F2)
        p = p1(F2)
        socle = RepMorphism(s2, p, [Matrix(F2, 1, 0), Matrix(F2, 1, 1, [1])])
        z, a, b, _ = pushout(socle, RepMorphism.identity(s2))
        assert z.dims == (1, 1)
        assert compose(a, socle) == compose(b, RepMorphism.identity(s2))
        assert iso_test(z, p) is not None

    def test_pushout_square_commutes_and_mediates(self):
        from approxcat.matrix import hstack

        rng = random.Random(21)
        checked = 0
        for _ in range(15):
            d = [rng.randrange(0, 3) for _ in range(2)]
            k = a2_rep(F2, d[0], d[1], [rng.randrange(2) for _ in range(d[0] * d[1])])
            e = [rng.randrange(1, 3) for _ in range(2)]
            a_rep = a2_rep(F2, e[0], e[1], [rng.randrange(2) for _ in range(e[0] * e[1])])
            homs_f = hom_basis(k, a_rep)
            homs_g = hom_basis(k, k)
            if not homs_f or not homs_g:
                continue
            f, g = homs_f[0], homs_g[0]
            z, a, b, proj = pushout(f, g)
            assert compose(a, f) == compose(b, g)
            # a cone on the same span: u f = v g with u = id wants v = f g^-1,
            # so use the cone (a f = b g legs) itself and check mediation is id
            s_total, injs, _ = direct_sum([a_rep, k])
            # the returned projection is [a | b] on the sum
            assert proj.source == s_total and proj.target == z
            assert compose(proj, injs[0]) == a and compose(proj, injs[1]) == b
            cone = RepMorphism(
                s_total, z,
                [hstack([a.component(x), b.component(x)]) for x in range(2)],
                check=False,
            )
            w = factor_through_cokernel(proj, cone)
            assert compose(w, a) == a and compose(w, b) == b
            checked += 1
        assert checked >= 3

    def test_factor_through_cokernel(self):
        s1, s2 = simples(F2)
        p = p1(F2)
        socle = RepMorphism(s2, p, [Matrix(F2, 1, 0), Matrix(F2, 1, 1, [1])])
        c, proj = cokernel(socle)
        u = RepMorphism(p, s1, [Matrix(F2, 1, 1, [1]), Matrix(F2, 0, 1)])
        w = factor_through_cokernel(proj, u)
        assert compose(w, proj) == u


class TestProjectives:
    def test_frozen_a2_projectives(self):
        p0 = projective(A2, F2, 0)
        p1_ = projective(A2, F2, 1)
        assert p0.dims == (1, 1) and p0.map("a") == Matrix(F2, 1, 1, [1])
        assert p1_.dims == (0, 1)

    def test_chain_projective(self):
        q = Quiver(3, [("a", 0, 1), ("b", 1, 2)])
        p0 = projective(q, F2, 0)
        assert p0.dims == (1, 1, 1)
        assert p0.map("a") == Matrix(F2, 1, 1, [1])
        assert p0.map("b") == Matrix(F2, 1, 1, [1])

    def test_commutative_square_projective_has_two_paths(self):
        q = Quiver(4, [("a", 0, 1), ("b", 0, 2), ("c", 1, 3), ("d", 2, 3)])
        p0 = projective(q, F2, 0)
        assert p0.dims == (1, 1, 1, 2)

    def test_non_acyclic_rejected(self):
        with pytest.raises(NonAcyclicQuiverError):
            projective(LOOP, F2, 0)
        with pytest.raises(NonAcyclicQuiverError):
            projective_epi(Rep(LOOP, F2, [1]))
        with pytest.raises(NonAcyclicQuiverError):
            projective_epi(Rep.zero(LOOP, F2))

    def test_projective_epi_surjective(self):
        rng = random.Random(17)
        for _ in range(15):
            d = [rng.randrange(0, 3) for _ in range(2)]
            m = a2_rep(F2, d[0], d[1], [rng.randrange(2) for _ in range(d[0] * d[1])])
            p, pi = projective_epi(m)
            assert pi.is_surjective()
            assert p.dims == (m.dims[0], m.dims[0] + m.dims[1])

    def test_projective_epi_of_zero(self):
        p, pi = projective_epi(Rep.zero(A2, F2))
        assert p.is_zero_rep() and pi.is_zero()

    def test_yoneda_dims(self):
        rng = random.Random(23)
        for _ in range(10):
            d = [rng.randrange(0, 3) for _ in range(2)]
            m = a2_rep(F2, d[0], d[1], [rng.randrange(2) for _ in range(d[0] * d[1])])
            assert yoneda_dim_check(A2, F2, 0, m)
            assert yoneda_dim_check(A2, F2, 1, m)


class TestSubreps:
    def test_stability(self):
        p = p1(F2)
        socle_only = [Matrix(F2, 1, 0), Matrix.identity(F2, 1)]
        top_only = [Matrix.identity(F2, 1), Matrix(F2, 1, 0)]
        assert subrep_stable(p, socle_only)
        assert not subrep_stable(p, top_only)
        u, incl = subrep_from_bases(p, socle_only)
        assert u.dims == (0, 1) and incl.is_injective()

    def test_preimage(self):
        s1, s2 = simples(F2)
        p = p1(F2)
        pr = RepMorphism(p, s1, [Matrix(F2, 1, 1, [1]), Matrix(F2, 0, 1)])
        zero_sub = RepMorphism(Rep.zero(A2, F2), s1,
                               [Matrix(F2, 1, 0), Matrix(F2, 0, 0)])
        u, incl = preimage_subrep(pr, zero_sub)
        assert u.dims == (0, 1)  # the kernel, i.e. the socle


class TestIso:
    def test_structural_equality_shortcut(self):
        p = p1(F2)
        assert iso_test(p, p) == RepMorphism.identity(p)

    def test_dims_mismatch(self):
        s1, s2 = simples(F2)
        assert iso_test(s1, s2) is None

    def test_frozen_jordan_vs_semisimple(self):
        j2 = Rep(LOOP, F2, [2], {"alpha1": Matrix(F2, 2, 2, [0, 0, 1, 0])})
        ss = Rep(LOOP, F2, [2])
        assert iso_test(j2, ss) is None

    def test_transposed_jordan_blocks_isomorphic(self):
        j2 = Rep(LOOP, F2, [2], {"alpha1": Matrix(F2, 2, 2, [0, 0, 1, 0])})
        j2t = Rep(LOOP, F2, [2], {"alpha1": Matrix(F2, 2, 2, [0, 1, 0, 0])})
        f = iso_test(j2, j2t)
        assert f is not None and f.is_iso()

    def test_rational_grid_decides(self):
        j2 = Rep(LOOP, Q, [2], {"alpha1": Matrix(Q, 2, 2, [0, 0, 1, 0])})
        ss = Rep(LOOP, Q, [2])
        assert iso_test(j2, ss) is None
        j2t = Rep(LOOP, Q, [2], {"alpha1": Matrix(Q, 2, 2, [0, 1, 0, 0])})
        assert iso_test(j2, j2t) is not None

    def test_zero_reps(self):
        z = Rep.zero(A2, F2)
        f = iso_test(z, Rep.zero(A2, F2))
        assert f is not None and f.is_iso()

    def test_arrow_rank_mismatch_is_a_sound_negative(self):
        # Hom(v, w) over F3 has 3^15 elements, beyond the exhaustive bound;
        # the rank of the arrow map decides without enumerating it
        F3 = FieldSpec.prime(3)
        v = Rep(A2, F3, [3, 3], {"a": Matrix(F3, 3, 3, [1, 0, 0, 0, 0, 0, 0, 0, 0])})
        w = Rep(A2, F3, [3, 3])
        assert iso_test(v, w) is None
        assert iso_test(w, v) is None

    def test_direct_sum_reordering(self):
        s1, s2 = simples(F2)
        a, _, _ = direct_sum([s1, s2, s1])
        b, _, _ = direct_sum([s1, s1, s2])
        assert iso_test(a, b) is not None


class TestFiltration:
    def test_valid_chain(self):
        s1, s2 = simples(F2)
        p = p1(F2)
        z = Rep.zero(A2, F2)
        step0 = RepMorphism.zero(z, s2)
        step1 = RepMorphism(s2, p, [Matrix(F2, 1, 0), Matrix(F2, 1, 1, [1])])
        f = Filtration([step0, step1])
        assert f.depth == 2
        assert [r.dims for r in f.factors()] == [(0, 1), (1, 0)]

    def test_rejects_non_injective_step(self):
        s1, s2 = simples(F2)
        z = Rep.zero(A2, F2)
        step0 = RepMorphism.zero(z, s2)
        bad = RepMorphism.zero(s2, s2)
        with pytest.raises(ShapeError):
            Filtration([step0, bad])

    def test_rejects_nonzero_start(self):
        s1, _ = simples(F2)
        with pytest.raises(ShapeError):
            Filtration([RepMorphism.identity(s1)])

import json

import pytest

from approxcat.approx import AddCategory, ExtCategory, member_add, verify_evidence
from approxcat.errors import (
    ApproxcatError,
    BudgetExceededError,
    CertificateError,
    ExtObstructionError,
    FieldMismatchError,
    HypothesisViolationError,
    RationalFieldUnsupportedError,
    ShapeError,
)
from approxcat.extfilt import (
    FiltrationCertificate,
    OrderedFamily,
    filt_exchange,
    filt_normalize,
    fr_enumerate,
    member_ext,
    member_filt,
)
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, a2_quiver, loop_quiver
from approxcat.rep import (
    Filtration,
    Rep,
    RepMorphism,
    direct_sum,
    iso_test,
    subrep_from_bases,
)
from approxcat import extfilt, search
from approxcat.search import (
    Budget,
    SubrepSearch,
    iter_all_reps,
    iter_subreps,
    subspace_count,
    subspace_table,
)
from approxcat.serialize import certificate_to_jsonable

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)

A2 = a2_quiver()
LOOP = loop_quiver(1)
LOOP_EXIT = Quiver(2, [("alpha1", 0, 0), ("beta", 0, 1)])


def a2_rep(field, d0, d1, entries):
    return Rep(A2, field, [d0, d1], {"a": Matrix(field, d1, d0, entries)})


def p1(field):
    return a2_rep(field, 1, 1, [1])


def jordan(field, n):
    entries = [
        field.one if i == j + 1 else field.zero for i in range(n) for j in range(n)
    ]
    return Rep(LOOP, field, [n], {"alpha1": Matrix(field, n, n, entries)})


def beta_module(field):
    """dims (1, 1) on the loop-with-exit quiver: loop acts by zero, the
    exit arrow by the identity."""
    return Rep(
        LOOP_EXIT, field, [1, 1],
        {"alpha1": Matrix(field, 1, 1, [0]), "beta": Matrix(field, 1, 1, [1])},
    )


def w_module(field):
    """dims (2, 1): loop sends e1 to e2, exit kills e2."""
    return Rep(
        LOOP_EXIT, field, [2, 1],
        {"alpha1": Matrix(field, 2, 2, [0, 0, 1, 0]),
         "beta": Matrix(field, 1, 2, [1, 0])},
    )


class TestSubrepSearch:
    def test_subspace_table_counts(self):
        assert len(subspace_table(F2, 2)) == subspace_count(2, 2) == 5
        assert len(subspace_table(F2, 4)) == subspace_count(4, 2) == 67
        assert len(subspace_table(F3, 2)) == subspace_count(2, 3) == 6

    def test_subreps_of_projective(self):
        subs = [s for s, _ in iter_subreps(p1(F2), Budget())]
        assert [s.dims for s in subs] == [(0, 0), (0, 1), (1, 1)]

    def test_subreps_of_jordan_block(self):
        subs = list(iter_subreps(jordan(F2, 2), Budget()))
        assert [s.dims for s, _ in subs] == [(0,), (1,), (2,)]
        for s, incl in subs:
            assert incl.is_injective()
            RepMorphism(s, jordan(F2, 2), incl.components)  # naturality recheck

    def test_full_subrep_is_literal(self):
        m = jordan(F2, 3)
        subs = list(iter_subreps(m, Budget()))
        top, incl = subs[-1]
        assert top == m and incl.is_iso()

    def test_enumeration_of_all_reps(self):
        reps = list(iter_all_reps(LOOP, F2, (2,)))
        assert len(reps) == 1 + 2 + 16
        assert len({r.key() for r in reps}) == len(reps)

    def test_budget_and_field_guards(self):
        with pytest.raises(RationalFieldUnsupportedError):
            SubrepSearch(p1(Q), Budget())
        with pytest.raises(BudgetExceededError):
            SubrepSearch(jordan(F2, 3), Budget(max_total_dim=2))
        with pytest.raises(BudgetExceededError):
            SubrepSearch(jordan(F2, 3), Budget(max_subspaces=3))


class TestMemberExt:
    def test_canonical_summand_found(self):
        s1 = Rep.simple(LOOP_EXIT, F2, 0)
        m = beta_module(F2)
        z, _, _ = direct_sum([s1, m])
        ev = member_ext(z, AddCategory([s1]), AddCategory([m]))
        assert ev is not None
        assert verify_evidence(ev, z, ExtCategory(AddCategory([s1]), AddCategory([m])))

    def test_nonsplit_extension_found(self):
        # W has the vertex-0 socle line as its only useful subobject; the
        # quotient collapses onto the dims (1, 1) module.
        s1 = Rep.simple(LOOP_EXIT, F2, 0)
        m = beta_module(F2)
        w = w_module(F2)
        ev = member_ext(w, AddCategory([s1]), AddCategory([m]))
        assert ev is not None
        assert ev.ses.sub.dims == (1, 0)
        assert ev.ses.quot.dims == (1, 1)
        assert iso_test(ev.ses.quot, m) is not None
        assert verify_evidence(ev, w, ExtCategory(AddCategory([s1]), AddCategory([m])))

    def test_dimension_obstruction(self):
        s1 = Rep.simple(LOOP_EXIT, F2, 0)
        s2 = Rep.simple(LOOP_EXIT, F2, 1)
        m = beta_module(F2)
        assert member_ext(s2, AddCategory([s1]), AddCategory([m])) is None

    def test_nested_handles(self):
        s = Rep.simple(LOOP, F2, 0)
        x = AddCategory([s])
        j3 = jordan(F2, 3)
        assert member_ext(j3, x, x) is None
        ev = member_ext(j3, x, ExtCategory(x, x))
        assert ev is not None
        assert verify_evidence(ev, j3, ExtCategory(x, ExtCategory(x, x)))

    def test_field_guard(self):
        s = Rep.simple(LOOP, Q, 0)
        with pytest.raises(RationalFieldUnsupportedError):
            member_ext(jordan(Q, 2), AddCategory([s]), AddCategory([s]))

    def test_an_ordered_family_is_a_handle(self):
        s1 = Rep.simple(LOOP_EXIT, F2, 0)
        m = beta_module(F2)
        w = w_module(F2)
        x = OrderedFamily([s1])
        assert isinstance(x, AddCategory) and repr(x) == "AddCategory([(1, 0)])"
        ev = member_ext(w, x, AddCategory([m]))
        assert ev is not None
        assert verify_evidence(ev, w, ExtCategory(AddCategory([s1]), AddCategory([m])))


class TestMemberFilt:
    def test_socle_filtration_of_projective(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        family = OrderedFamily([s2, s1])
        cert = member_filt(p1(F2), family, 2)
        assert cert is not None
        assert cert.depth == 2
        assert [t.dims for t in cert.filtration.terms] == [(0, 0), (0, 1), (1, 1)]
        assert cert.factor_assignments[0].multiplicities == (1, 0)
        assert cert.factor_assignments[1].multiplicities == (0, 1)
        assert cert.verify()
        assert member_filt(p1(F2), family, 1) is None

    def test_add_member_gets_depth_one(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        m, _, _ = direct_sum([s1, s2, s2])
        cert = member_filt(m, [s2, s1], 3)
        assert cert is not None and cert.depth == 1
        assert cert.factor_assignments[0].multiplicities == (2, 1)
        assert cert.verify()

    def test_nilpotency_depth(self):
        s = Rep.simple(LOOP, F2, 0)
        j3 = jordan(F2, 3)
        assert member_filt(j3, [s], 2) is None
        cert = member_filt(j3, [s], 3)
        assert cert is not None and cert.depth == 3
        assert cert.verify()

    def test_law_on_small_loop_reps(self):
        # membership at depth r is nilpotency of order r on the loop
        s = Rep.simple(LOOP, F2, 0)
        for v in iter_all_reps(LOOP, F2, (2,)):
            alpha = v.map("alpha1")
            for r in range(1, 4):
                power = Matrix.identity(F2, v.dims[0])
                for _ in range(r):
                    power = alpha @ power
                expected = power.is_zero()
                cert = member_filt(v, [s], r)
                assert (cert is not None) == expected
                if cert is not None:
                    assert cert.verify() and cert.depth <= r

    def test_zero_rep_member(self):
        s1 = Rep.simple(A2, F2, 0)
        cert = member_filt(Rep.zero(A2, F2), [s1], 2)
        assert cert is not None and cert.depth == 1
        assert cert.member.is_zero_rep()
        assert cert.verify()

    def test_rational_field_behavior(self):
        s1 = Rep.simple(A2, Q, 0)
        s2 = Rep.simple(A2, Q, 1)
        m, _, _ = direct_sum([s1, s2])
        cert = member_filt(m, [s2, s1], 3)
        assert cert is not None and cert.depth == 1
        assert member_filt(p1(Q), [s2], 1) is None
        # [S2, S1] is vertex-simple: the Loewy length decides over Q too
        cert = member_filt(p1(Q), [s2, s1], 2)
        assert cert is not None and cert.depth == 2
        assert cert.verify()

    def test_rational_field_refused_beyond_vertex_simple(self):
        # any other family past depth 1 needs the peel search, which
        # enumerates subspaces and so a finite field
        s = Rep.simple(LOOP, Q, 0)
        for gen in (jordan(Q, 2), direct_sum([s, s])[0]):
            with pytest.raises(RationalFieldUnsupportedError):
                member_filt(jordan(Q, 4), [gen], 2)

    def test_family_over_another_field_or_quiver_is_refused(self):
        # a vertex-simple family used to get a certificate that fails its
        # own verify; the peel path (the [J2] family) is refused alike
        m = Rep(LOOP, F2, [2])
        for family in ([Rep.simple(LOOP, F3, 0)], [Rep.simple(loop_quiver(2), F2, 0)],
                       [jordan(F3, 2)]):
            with pytest.raises(FieldMismatchError):
                member_filt(m, family, 2)
        with pytest.raises(FieldMismatchError):
            member_add(m, AddCategory([Rep.simple(LOOP, F3, 0)]))

    def test_handle_input_forms(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        by_list = member_filt(p1(F2), [s2, s1], 2)
        by_handle = member_filt(p1(F2), AddCategory([s2, s1]), 2)
        by_family = member_filt(p1(F2), OrderedFamily([s2, s1]), 2)
        by_tuple = member_filt(p1(F2), (s2, s1), 2)
        for cert in (by_list, by_handle, by_family, by_tuple):
            assert cert is not None and cert.verify()
        dumps = {json.dumps(certificate_to_jsonable(c), sort_keys=True)
                 for c in (by_list, by_handle, by_family, by_tuple)}
        assert len(dumps) == 1

    def test_equal_generator_lists_share_one_handle(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        first = member_filt(p1(F2), [s2, s1], 2).family
        assert member_filt(p1(F2), [Rep.simple(A2, F2, 1), s1], 2).family is first
        assert member_filt(p1(F2), (s2, s1), 2).family is first
        assert member_filt(p1(F2), [s1, s2], 2).family is not first
        handle = OrderedFamily([s2, s1])
        assert handle is not first and handle == first
        assert member_filt(p1(F2), handle, 2).family is handle

    def test_interned_handles_are_bounded(self):
        info = extfilt._interned.cache_info
        assert info().maxsize is not None
        for d in range(100):
            extfilt._as_family([Rep(A2, F2, [d, 1])])
        assert 0 < info().currsize <= info().maxsize

    def test_kind_is_computed_once_per_handle(self):
        s1 = Rep.simple(A2, F2, 0)
        handle = AddCategory([s1, p1(F2)])
        assert handle.kind() == (False, None)
        assert handle.kind() is handle.kind()
        assert AddCategory([s1]).kind() == (True, frozenset({0}))

    def test_depth_must_be_positive(self):
        with pytest.raises(ShapeError):
            member_filt(p1(F2), [p1(F2)], 0)

    def test_vertex_simple_classification(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)

        def support(gens):
            return AddCategory(gens, quiver=A2, field=F2).kind()[1]

        assert support([]) == frozenset()
        assert support([s1, direct_sum([s1, s1])[0]]) == frozenset({0})
        assert support([s2, s1]) == frozenset({0, 1})
        assert support([direct_sum([s1, s2])[0]]) is None
        assert support([p1(F2)]) is None

    def test_search_answer_ignores_earlier_budgets(self):
        # a tight budget refuses the peel search whether or not a call
        # under the default budget has already settled the same question
        m = a2_rep(F2, 3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 0])
        tight = Budget(max_total_dim=2)
        with pytest.raises(BudgetExceededError):
            member_filt(m, [p1(F2)], 3, tight)
        assert member_filt(m, [p1(F2)], 3) is None
        with pytest.raises(BudgetExceededError):
            member_filt(m, [p1(F2)], 3, tight)

    def test_vertex_simple_decision_needs_no_budget(self):
        s = Rep.simple(LOOP, F2, 0)
        tight = Budget(max_total_dim=1, max_subspaces=0)
        assert member_filt(jordan(F2, 3), [s], 2, tight) is None
        cert = member_filt(jordan(F2, 3), [s], 3, tight)
        assert cert is not None and cert.depth == 3 and cert.verify()

    def test_only_the_peel_search_reads_the_budget_variables(self, monkeypatch):
        # a bad APPROXCAT_MAX_TOTAL_DIM is never read for a vertex-simple
        # family, and is still refused where the peel search needs a budget
        monkeypatch.setenv("APPROXCAT_MAX_TOTAL_DIM", "abc")
        s = Rep.simple(LOOP, F2, 0)
        cert = member_filt(jordan(F2, 2), [s], 2)
        assert cert is not None and cert.depth == 2 and cert.verify()
        assert member_filt(jordan(F2, 2), [s], 1) is None
        with pytest.raises(ApproxcatError, match="APPROXCAT_MAX_TOTAL_DIM"):
            member_filt(jordan(F2, 3), [jordan(F2, 2)], 2)

    def test_certificate_past_the_loewy_length_needs_no_budget(self):
        # J3 + J3 + J3 has dim 9, above the default budget 8; at r = 4 no
        # level peels a radical power, and the first peel candidate is read
        # off without enumerating subspaces
        s = Rep.simple(LOOP, F2, 0)
        m = direct_sum([jordan(F2, 3)] * 3)[0]
        assert member_filt(m, [s], 3).depth == 3
        cert = member_filt(m, [s], 4)
        assert cert is not None and cert.verify()
        assert cert.depth == 4
        assert [f.dims for f in cert.filtration.factors()] == [(1,), (2,), (3,), (3,)]

    def test_semisimple_peel_counts_tuples_before_building_tables(self, monkeypatch):
        # a rank-1 loop on F3^6 has a 5-dimensional kernel; over [S + S]
        # the peel search refuses on the count of subspace tuples, before
        # it asks for the subspace table of F3^5
        tables, table = [], search.subspace_table
        monkeypatch.setattr(search, "subspace_table",
                            lambda field, dim: tables.append((field.modulus, dim)) or table(field, dim))
        s = Rep.simple(LOOP, F3, 0)
        m = Rep(LOOP, F3, [6], {"alpha1": Matrix(F3, 6, 6, [int(k == 1) for k in range(36)])})
        with pytest.raises(BudgetExceededError):
            member_filt(m, [direct_sum([s, s])[0]], 2, Budget(max_subspaces=100))
        assert (3, 5) not in tables

    def test_certificates_reuse_the_decision_series(self, monkeypatch):
        # the 531 one-loop F2 reps of dim <= 3, visited once per bound 0..3
        # (554 visits) at r = 4, 3, 2, 1: one radical series per distinct
        # rep, each built on a miss of the series cache, and no certificate
        # builds it again through the uncached function
        extfilt._loewy_series.cache_clear()
        monkeypatch.setattr(extfilt, "_radical_series", None)
        s = Rep.simple(LOOP, F2, 0)
        for bound in range(4):
            for v in iter_all_reps(LOOP, F2, (bound,)):
                for r in (4, 3, 2, 1):
                    member_filt(v, [s], r)
        info = extfilt._loewy_series.cache_info()
        assert (info.misses, info.hits + info.misses) == (531, 4 * 554)

    def test_series_cache_is_bounded(self):
        # more distinct reps than the series cache holds, each decided once
        extfilt._loewy_series.cache_clear()
        s = Rep.simple(LOOP, F2, 0)
        reps = list(iter_all_reps(LOOP, F2, (3,)))
        assert len(reps) > extfilt._loewy_series.cache_info().maxsize
        for v in reps:
            member_filt(v, [s], 2)
        info = extfilt._loewy_series.cache_info()
        assert info.misses == len(reps)
        assert info.currsize <= info.maxsize

    def test_peel_search_memo_lasts_one_decision(self, monkeypatch):
        # J4 over [J2]: a second equal decision searches as much as the
        # first, so no answer is read from an earlier call's memo
        calls, peel = [], extfilt._peel_candidates
        monkeypatch.setattr(extfilt, "_peel_candidates",
                            lambda m, handle, budget: calls.append(m) or peel(m, handle, budget))
        counts = []
        for _ in range(2):
            calls.clear()
            assert member_filt(jordan(F3, 4), [jordan(F3, 2)], 2) is not None
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


def _two_step_filtration(total, sub_bases):
    """0 -> U -> total with U spanned by the given per-vertex bases."""
    u, incl = subrep_from_bases(total, sub_bases)
    z = Rep.zero(total.quiver, total.field)
    return Filtration([RepMorphism.zero(z, u), incl])


class TestFiltExchange:
    def test_split_pair_swaps(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        m, _, _ = direct_sum([s1, s2])
        f = _two_step_filtration(
            m, [Matrix(F2, 1, 1, [1]), Matrix(F2, 1, 0)]
        )
        assert iso_test(f.factor(0), s1) is not None
        assert iso_test(f.factor(1), s2) is not None
        g = filt_exchange(f, 0)
        assert iso_test(g.factor(0), s2) is not None
        assert iso_test(g.factor(1), s1) is not None
        assert g.top == m

    def test_obstructed_exchange_refused(self):
        # the socle of P(1) admits no complement: Ext1(S1, S2) is nonzero
        f = _two_step_filtration(
            p1(F2), [Matrix(F2, 1, 0), Matrix(F2, 1, 1, [1])]
        )
        with pytest.raises(ExtObstructionError):
            filt_exchange(f, 0)

    def test_zero_factor_exchange(self):
        s1 = Rep.simple(A2, F2, 0)
        z = Rep.zero(A2, F2)
        f = Filtration([
            RepMorphism.zero(z, z),
            RepMorphism.zero(z, s1),
        ])
        g = filt_exchange(f, 0)
        assert g.factor(0).dims == (1, 0)
        assert g.factor(1).total_dim == 0

    def test_exchange_is_involutive_without_obstructions(self):
        free = Quiver(2, [])
        s1 = Rep.simple(free, F2, 0)
        s2 = Rep.simple(free, F2, 1)
        m, _, _ = direct_sum([s1, s2])
        f = _two_step_filtration(m, [Matrix(F2, 1, 1, [1]), Matrix(F2, 1, 0)])
        g = filt_exchange(filt_exchange(f, 0), 0)
        for j in range(2):
            assert iso_test(g.factor(j), f.factor(j)) is not None

    def test_bad_index(self):
        s1 = Rep.simple(A2, F2, 0)
        z = Rep.zero(A2, F2)
        f = Filtration([RepMorphism.zero(z, s1)])
        with pytest.raises(ShapeError):
            filt_exchange(f, 0)


def _certify(filt, family):
    evidence = []
    for j in range(filt.depth):
        ev = member_add(filt.factor(j), family)
        assert ev is not None
        evidence.append(ev)
    return FiltrationCertificate(filt, filt.top, family, tuple(evidence))


def _a2_two_step_certificate(field, top, top_bases):
    """A certificate over (S2, S1) whose steps are 0 -> S1 -> top, the second
    step built unchecked with components top_bases."""
    s1, s2 = Rep.simple(A2, field, 0), Rep.simple(A2, field, 1)
    family = OrderedFamily([s2, s1])
    z = Rep.zero(A2, field)
    filt = Filtration([RepMorphism.zero(z, s1), RepMorphism(s1, top, top_bases, check=False)])
    evidence = (member_add(s1, family), member_add(direct_sum([s1, s2])[0], family))
    return FiltrationCertificate(filt, top, family, evidence)


class TestNonNaturalSteps:
    """An unverified certificate whose second step is not a morphism: S1
    put into vertex 0 of a rep whose arrow moves that vector."""

    def test_exchange_refuses_the_step(self):
        # S1 -> P1 at vertex 0 over (S2, S1): normalization exchanges it
        cert = _a2_two_step_certificate(F3, p1(F3), [Matrix(F3, 1, 1, [1]), Matrix(F3, 1, 0)])
        with pytest.raises(CertificateError, match="step 1"):
            filt_exchange(cert.filtration, 0)
        with pytest.raises(CertificateError, match="step 1"):
            filt_normalize(cert)

    def test_refinement_refuses_a_mixed_layer(self):
        # S1 -> P1 + S1 at vertex 0: a layer of dims (1, 1) mixes S2 and S1
        top = a2_rep(F3, 2, 1, [1, 0])
        cert = _a2_two_step_certificate(F3, top, [Matrix(F3, 2, 1, [1, 0]), Matrix(F3, 1, 0)])
        assert not cert.filtration.steps[1].is_natural()
        with pytest.raises(CertificateError, match="step 1"):
            filt_normalize(cert)


class TestFiltrationCertificateVerify:
    def test_step_onto_an_unstable_subspace_is_a_plain_negative(self):
        # S -> J2 onto span(e1), which the loop moves: the factor of that
        # step has no induced loop, so verify must refuse before any cokernel
        s = Rep.simple(LOOP, F2, 0)
        j2 = jordan(F2, 2)
        z = Rep.zero(LOOP, F2)
        filt = Filtration([RepMorphism.zero(z, s),
                           RepMorphism(s, j2, [Matrix(F2, 2, 1, [1, 0])], check=False)])
        family = OrderedFamily([s])
        ev = member_add(s, family)
        assert FiltrationCertificate(filt, j2, family, (ev, ev)).verify() is False


class TestFiltNormalize:
    def test_three_layer_chain_normalizes_to_two(self):
        # factors (S2, S1, S2) inside P(1) + S2 become (S2 + S2, S1)
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        family = OrderedFamily([s2, s1])
        total, _, _ = direct_sum([p1(F2), s2])
        a_rep, a_incl = subrep_from_bases(
            total, [Matrix(F2, 1, 0), Matrix(F2, 2, 1, [1, 0])]
        )
        b_rep, b_incl = subrep_from_bases(
            total, [Matrix(F2, 1, 1, [1]), Matrix(F2, 2, 1, [1, 0])]
        )
        mid_comps = []
        for x in range(2):
            mid_comps.append(b_incl.component(x).solve(a_incl.component(x)))
        z = Rep.zero(A2, F2)
        filt = Filtration([
            RepMorphism.zero(z, a_rep),
            RepMorphism(a_rep, b_rep, mid_comps),
            b_incl,
        ])
        assert [filt.factor(j).dims for j in range(3)] == [(0, 1), (1, 0), (0, 1)]
        cert = _certify(filt, family)
        assert cert.verify()
        out = filt_normalize(cert)
        assert out.depth == 2
        assert out.filtration.factor(0).dims == (0, 2)
        assert out.filtration.factor(1).dims == (1, 0)
        assert out.factor_assignments[0].multiplicities == (2, 0)
        assert out.factor_assignments[1].multiplicities == (0, 1)
        assert out.member == total
        assert out.verify()

    def test_ordering_hypothesis_checked(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        bad_family = OrderedFamily([s1, s2])
        cert = member_filt(p1(F2), [s2, s1], 2)
        with pytest.raises(HypothesisViolationError):
            filt_normalize(cert, bad_family)

    def test_single_generator_layer_unchanged(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        family = OrderedFamily([s2, s1])
        m, _, _ = direct_sum([s2, s2])
        cert = member_filt(m, family, 2)
        assert cert.depth == 1
        out = filt_normalize(cert)
        assert out.depth == 1
        assert out.filtration.steps == cert.filtration.steps

    def test_mixed_single_layer_splits(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        family = OrderedFamily([s2, s1])
        m, _, _ = direct_sum([s1, s2])
        cert = member_filt(m, family, 2)
        assert cert.depth == 1
        out = filt_normalize(cert)
        assert out.depth == 2
        assert out.factor_assignments[0].multiplicities == (1, 0)
        assert out.factor_assignments[1].multiplicities == (0, 1)
        assert out.verify()

    def test_zero_member_stays_depth_one(self):
        s1 = Rep.simple(A2, F2, 0)
        family = OrderedFamily([s1])
        cert = member_filt(Rep.zero(A2, F2), family, 2)
        out = filt_normalize(cert)
        assert out.depth == 1
        assert out.member.is_zero_rep()
        assert out.verify()

    def test_normalized_depth_bounded_by_family_size(self):
        # depth 3 loop filtration over the singleton family {S1} cannot
        # normalize: Ext1(S1, S1) is nonzero, the hypothesis fails
        s = Rep.simple(LOOP, F2, 0)
        cert = member_filt(jordan(F2, 3), [s], 3)
        with pytest.raises(HypothesisViolationError):
            filt_normalize(cert)


def _with_identity_steps(filt):
    """filt with an identity step inserted at each position in turn, two at
    the bottom, two at the top, and one at every position at once."""
    steps, terms = list(filt.steps), filt.terms
    ident = [RepMorphism.identity(t) for t in terms]
    out = [steps[:k] + [ident[k]] + steps[k:] for k in range(len(terms))]
    out += [ident[:1] * 2 + steps, steps + ident[-1:] * 2]
    out.append([g for k, t in enumerate(ident) for g in [t] + steps[k:k + 1]])
    return [Filtration(v) for v in out]


def _normal_form(cert, family=None):
    return json.dumps(certificate_to_jsonable(filt_normalize(cert, family)), sort_keys=True)


class TestNormalizeFoldsZeroLayers:
    """Identity steps are layers with zero factor. Wherever they sit, the
    serialized normal form is the one of the filtration without them."""

    @pytest.mark.parametrize("field, bound", [(F2, (2, 2)), (F3, (2, 1))])
    def test_member_filt_certificates(self, field, bound):
        s1, s2 = Rep.simple(A2, field, 0), Rep.simple(A2, field, 1)
        for family in (OrderedFamily([s2, s1]), OrderedFamily([s2, s1, p1(field)])):
            for v in iter_all_reps(A2, field, bound):
                cert = member_filt(v, family, 4)
                expected = _normal_form(cert)
                for filt in _with_identity_steps(cert.filtration):
                    assert _normal_form(_certify(filt, family)) == expected

    @pytest.mark.parametrize("field, bound", [(F2, (2, 2)), (F3, (2, 1))])
    def test_chains_that_need_exchanges(self, field, bound, monkeypatch):
        # 0 < U < v with U and v/U semisimple, certified over (S1, S2) and
        # renormalized to (S2, S1), which exchanges an S1 layer below an S2
        exchanges = []
        exchange = extfilt.filt_exchange
        monkeypatch.setattr(extfilt, "filt_exchange",
                            lambda f, i: exchanges.append(i) or exchange(f, i))
        s1, s2 = Rep.simple(A2, field, 0), Rep.simple(A2, field, 1)
        family = OrderedFamily([s1, s2])
        swapped = OrderedFamily([s2, s1])
        for v in iter_all_reps(A2, field, bound):
            for _, incl in iter_subreps(v, Budget()):
                filt = _two_step_filtration(v, incl.components)
                if not all(f.map("a").is_zero() for f in filt.factors()):
                    continue
                expected = _normal_form(_certify(filt, family), swapped)
                for f in _with_identity_steps(filt):
                    assert _normal_form(_certify(f, family), swapped) == expected
        assert exchanges


class TestFrEnumerate:
    def test_level_one_is_add_closure(self):
        s = Rep.simple(LOOP, F2, 0)
        out = fr_enumerate([s], 1, 2)
        assert [v.dims for v in out] == [(0,), (1,), (2,)]
        assert all(v.map("alpha1").is_zero() for v in out)

    def test_level_two_on_the_loop(self):
        s = Rep.simple(LOOP, F2, 0)
        out = fr_enumerate([s], 2, 2)
        assert [v.dims for v in out] == [(0,), (1,), (2,), (2,)]
        nonsplit = [v for v in out if not v.map("alpha1").is_zero()]
        assert len(nonsplit) == 1
        j = nonsplit[0]
        assert (j.map("alpha1") @ j.map("alpha1")).is_zero()
        assert iso_test(j, jordan(F2, 2)) is not None

    def test_projective_appears_at_level_two(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        out = fr_enumerate([s2, s1], 2, (1, 1))
        assert len(out) == 5
        assert any(iso_test(v, p1(F2)) is not None for v in out)

    def test_agreement_with_member_filt(self):
        s = Rep.simple(LOOP, F2, 0)
        table = fr_enumerate([s], 2, 2)
        for v in iter_all_reps(LOOP, F2, (2,)):
            enumerated = any(
                v.dims == w.dims and iso_test(v, w) is not None for w in table
            )
            assert enumerated == (member_filt(v, [s], 2) is not None)

    def test_budget_and_field_guards(self):
        s = Rep.simple(LOOP, F2, 0)
        with pytest.raises(BudgetExceededError):
            fr_enumerate([s], 2, 2, budget=Budget(max_subspaces=2))
        with pytest.raises(RationalFieldUnsupportedError):
            fr_enumerate([Rep.simple(LOOP, Q, 0)], 2, 2)

    def test_empty_generators(self):
        out = fr_enumerate([], 2, 2, quiver=LOOP, field=F2)
        assert len(out) == 1 and out[0].is_zero_rep()

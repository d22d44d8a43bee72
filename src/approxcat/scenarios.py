"""Named end-to-end checks over small exhaustive families.

Each scenario replays one of the package's flagship computations at desk
scale and returns a JSON-friendly report: scenario name, pass flag, number
of individual checks, and a truncated failure list. The CLI exposes them
under `scenario`; the acceptance tests call them directly.
"""

import time

from .approx import (
    AddCategory,
    _multiplicities,
    factor_through,
    left_approx_add,
    left_approx_ext,
    member_add,
    minimize_approx,
    right_approx_add,
    verify_evidence,
)
from .counterex import (
    LoopQuiverConfig,
    beta_surjectivity_check,
    candidate_maps,
    refute,
    sample_members,
    standard_handle,
)
from .errors import ShapeError
from .extfilt import filt_normalize, fr_enumerate, member_filt
from .fields import FieldSpec
from .matrix import Matrix
from .quiver import a2_quiver, loop_quiver
from .rep import Rep, direct_sum_rep, ext1_dim, hom_basis
from .search import iter_all_reps

F2 = FieldSpec.prime(2)


def _report(name, checks, failures, **extra):
    out = {
        "scenario": name,
        "passed": not failures,
        "checks": checks,
        "failures": failures[:20],
    }
    out.update(extra)
    return out


def _check_factoring(m, morphism, targets, failures) -> int:
    """One check per hom basis morphism from m into each target: every one
    must factor through morphism, and each that does not is recorded in
    failures. Returns the number of checks."""
    checks = 0
    for z in targets:
        for f in hom_basis(m, z):
            checks += 1
            if factor_through(f, morphism) is None:
                failures.append(
                    f"morphism from dims {m.dims} to dims {z.dims} does not factor"
                )
    return checks


def run_loop_refutation(samples: int = 100, seed: int = 0) -> dict:
    """Certified members of add{S1} * add{M} never admit the candidate as a
    left approximation: every sampled member, every candidate out of S2,
    one verified refutation witness each. A sweep of no samples checks
    nothing, so samples must be at least 1."""
    if samples < 1:
        raise ShapeError(f"loop-refutation needs at least one sample, got {samples}")
    cfg = LoopQuiverConfig(2, F2)
    checks = 0
    failures = []
    refutations = 0
    escalations = 0
    for idx, (v, ev) in enumerate(
        sample_members(cfg, samples, max_total_dim=6, seed=seed)
    ):
        tag = f"sample {idx} dims {v.dims}"
        checks += 1
        if not verify_evidence(ev, v, standard_handle(cfg)):
            failures.append(f"{tag}: membership evidence does not verify")
            continue
        checks += 1
        if not beta_surjectivity_check(v, ev):
            failures.append(f"{tag}: exit map is not surjective")
        for j, phi in enumerate(candidate_maps(v)):
            checks += 1
            witness = refute(phi, ev)
            if not witness.verify():
                failures.append(f"{tag}: witness for candidate {j} fails")
                continue
            refutations += 1
            if witness.escalated:
                escalations += 1
    return _report(
        "loop-refutation", checks, failures,
        samples=samples, refutations=refutations, escalations=escalations,
    )


def run_ext_approx_exhaustive_a2() -> dict:
    """On the two-vertex arrow quiver, the pushout-built morphism into
    add{S1} * add{S2} is a left approximation for every representation
    within dims (2, 2): every morphism into every member of the extension
    category within dims (3, 3) factors through it."""
    target_bound = (3, 3)
    q = a2_quiver()
    s1 = Rep.simple(q, F2, 0)
    s2 = Rep.simple(q, F2, 1)
    x = AddCategory([s1])
    y = AddCategory([s2])
    checks = 0
    failures = []
    # the extension category is split at every size: Ext1(S2^b, S1^a) = 0,
    # so the sums below enumerate it completely within the bound
    targets = []
    for a in range(target_bound[0] + 1):
        for b in range(target_bound[1] + 1):
            sub, _ = x.canonical_sum((a,))
            quot, _ = y.canonical_sum((b,))
            checks += 1
            if ext1_dim(quot, sub) != 0:
                failures.append(f"nonsplit extension class at ({a}, {b})")
            targets.append(direct_sum_rep([sub, quot]))
    members = list(iter_all_reps(q, F2, (2, 2)))
    for m in members:
        cert = left_approx_ext(m, x, y)
        checks += 1
        if not cert.verify():
            failures.append(f"certificate for dims {m.dims} fails")
            continue
        checks += _check_factoring(m, cert.morphism, targets, failures)
    return _report(
        "ext-approx-exhaustive-a2", checks, failures,
        members=len(members), targets=len(targets),
    )


def run_filt_normalize_a2() -> dict:
    """Over the ordered family (S2, S1) on the arrow quiver, every found
    filtration normalizes to a verified certificate of depth at most 2, and
    membership at depth 2 agrees with membership at depth 4."""
    q = a2_quiver()
    s1 = Rep.simple(q, F2, 0)
    s2 = Rep.simple(q, F2, 1)
    family = AddCategory([s2, s1])
    checks = 0
    failures = []
    found = 0
    for v in iter_all_reps(q, F2, (3, 3)):
        tag = f"dims {v.dims} map {v.map('a').to_jsonable()}"
        c4 = member_filt(v, family, 4)
        c2 = member_filt(v, family, 2)
        checks += 1
        if (c4 is None) != (c2 is None):
            failures.append(f"{tag}: depth-2 and depth-4 membership disagree")
            continue
        if c4 is None:
            continue
        found += 1
        out = filt_normalize(c4)
        checks += 1
        if out.depth > 2:
            failures.append(f"{tag}: normalized depth {out.depth}")
        checks += 1
        if out.member != v or not out.verify():
            failures.append(f"{tag}: normalized certificate fails")
    return _report("filt-normalize-a2", checks, failures, members_found=found)


def run_nilpotent_loop() -> dict:
    """On the one-loop quiver, depth-r filtration membership over {S1} is
    exactly nilpotency of order r, for every representation of dimension at
    most 4 and every r up to max_r = 4."""
    max_r = 4
    loop = loop_quiver(1)
    s = Rep.simple(loop, F2, 0)
    checks = 0
    failures = []
    members = 0
    for v in iter_all_reps(loop, F2, (4,)):
        alpha = v.map("alpha1")
        certs = {}
        for r in range(max_r, 0, -1):
            certs[r] = member_filt(v, [s], r)
        power = Matrix.identity(F2, v.dims[0])
        for r in range(1, max_r + 1):
            power = alpha @ power
            checks += 1
            if (certs[r] is not None) != power.is_zero():
                failures.append(f"dims {v.dims}: disagreement at r = {r}")
        if certs[max_r] is not None:
            members += 1
            if v.dims[0] <= 2:
                checks += 1
                if not certs[max_r].verify():
                    failures.append(f"dims {v.dims}: certificate fails")
    return _report("nilpotent-loop", checks, failures, members=members)


def run_simple_covers_a2() -> dict:
    """Minimal right approximations of the simples by the projectives on
    the arrow quiver land on exactly one projective each; the two-step
    filtration closure of the projectives is their add-closure both ways;
    and every small representation has a verified left approximation into
    it."""
    bound = (2, 2)
    q = a2_quiver()
    s1 = Rep.simple(q, F2, 0)
    s2 = Rep.simple(q, F2, 1)
    proj1 = Rep(q, F2, [1, 1], {"a": Matrix(F2, 1, 1, [1])})
    proj2 = s2
    prj = AddCategory([proj1, proj2])
    checks = 0
    failures = []
    for s, expected in ((s1, (1, 0)), (s2, (0, 1))):
        cert = minimize_approx(right_approx_add(s, prj))
        checks += 1
        if cert.evidence.multiplicities != expected or not cert.verify():
            failures.append(
                f"minimal cover of dims {s.dims}: {cert.evidence.multiplicities}"
            )
    # two-sided agreement of the filtration closure with the add-closure
    for v in fr_enumerate([proj1, proj2], 2, bound):
        checks += 1
        if member_add(v, prj) is None:
            failures.append(f"filtration member dims {v.dims} escapes add")
    targets = [
        prj.canonical_sum(c)[0]
        for c in _multiplicities([proj1.dims, proj2.dims], bound, bounded=True)
    ]
    for z in targets:
        checks += 1
        if member_filt(z, [proj1, proj2], 2) is None:
            failures.append(f"sum with dims {z.dims} escapes the closure")
    members = list(iter_all_reps(q, F2, bound))
    for m in members:
        cert = left_approx_add(m, prj)
        checks += 1
        if not cert.verify():
            failures.append(f"left approximation of dims {m.dims} fails")
            continue
        checks += _check_factoring(m, cert.morphism, targets, failures)
    return _report("simple-covers-a2", checks, failures, members=len(members))


SCENARIOS = {
    "loop-refutation": run_loop_refutation,
    "ext-approx-exhaustive-a2": run_ext_approx_exhaustive_a2,
    "filt-normalize-a2": run_filt_normalize_a2,
    "nilpotent-loop": run_nilpotent_loop,
    "simple-covers-a2": run_simple_covers_a2,
}


def run_scenario(name: str, **kwargs) -> dict:
    fn = SCENARIOS.get(name)
    if fn is None:
        known = ", ".join(sorted(SCENARIOS))
        raise ShapeError(f"unknown scenario {name!r}; available: {known}")
    start = time.perf_counter()
    out = fn(**kwargs)
    out["elapsed_s"] = round(time.perf_counter() - start, 3)
    return out

"""The four workloads: what an item is, how a seed makes the items, and how
an answer is checked.

Each workload object has:
- ``build(seed)``: the item list, the same for the same seed (set-up);
- ``run(item)``: the timed work of one item, through approxcat's public
  functions;
- ``check(item, out)``: None, or why the answer disagrees with an oracle;
- ``record(item, out)``: the item's answers and serialized certificates
  for the output digest;
- ``json_bytes(item, out)``: the bytes of JSON the item itself produced.

Workloads reach approxcat through module attributes (``extfilt.member_filt``
rather than a name imported into this module), so the traced run's
wrappers see every call.

``small`` shrinks every workload to a few items for the benchmark's own
tests.
"""

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

from approxcat import approx, cli, counterex, extfilt, rep, search, serialize
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import a2_quiver, loop_quiver

from perfbench import oracles

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _maps(v):
    return {aid: m.to_lists() for aid, m in v.maps.items()}


def _stratified(rng, groups, share):
    """A seeded sample of each group, max(1, round(share * size)) members
    each, in the groups' own order. Fixing the count per group keeps every
    seed's mix of cheap and costly items the same."""
    out = []
    for members in groups:
        keep = set(rng.sample(range(len(members)), max(1, round(share * len(members)))))
        out.extend(m for i, m in enumerate(members) if i in keep)
    return out


# the 2**16 dim-4 maps over F2 by nilpotency index, 0 for not nilpotent
DIM4_INDEX_SIZES = {0: 61440, 1: 1, 2: 315, 3: 1260, 4: 2520}


class Workload:
    def __init__(self, small=False):
        self.small = small

    def rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def json_bytes(self, item, out):
        return 0


class LoopFilt(Workload):
    """One-loop quiver over F2, family {S}. Every rep with dim <= 3, then a
    seeded sample of the 65,536 dim-4 reps with the same share of each
    nilpotency index as the exhaustive sweep. The small reps come first, so
    the quotients of the dim-4 reps hit the depth memo as they do in the
    sweep. An item: member_filt at r = 4, 3, 2, 1 and verification of the
    r = 4 certificate."""

    name = "loop-filt"
    depths = (4, 3, 2, 1)
    dim4_total = 3000

    def build(self, seed):
        rng = random.Random(seed)
        q = loop_quiver(1)
        self.simple = rep.Rep.simple(q, F2, 0)
        items = list(search.iter_all_reps(q, F2, (2 if self.small else 3,)))
        for bits in self._dim4_sample(rng, 16 if self.small else self.dim4_total):
            flat = [x for row in oracles.bits_to_rows(bits, 4) for x in row]
            items.append(rep.Rep(q, F2, [4], {"alpha1": Matrix(F2, 4, 4, flat)}))
        return items

    @staticmethod
    def _dim4_sample(rng, total):
        """Distinct dim-4 maps as bit patterns, ascending (the sweep's
        order), drawn until each nilpotency index has its quota."""
        quota = {
            k: max(1, round(total * n / 65536)) for k, n in DIM4_INDEX_SIZES.items()
        }
        # index 1 holds only the zero map, which random draws would not find
        chosen = {0}
        quota[1] = 0
        while any(quota.values()):
            bits = rng.getrandbits(16)
            k = oracles.f2_nilpotency_index(bits, 4)
            if quota[k] and bits not in chosen:
                chosen.add(bits)
                quota[k] -= 1
        return sorted(chosen)

    def run(self, v):
        certs = [extfilt.member_filt(v, [self.simple], r) for r in self.depths]
        top = certs[0]
        return certs, (top.verify() if top is not None else None)

    def check(self, v, out):
        certs, verified = out
        index = oracles.nilpotency_index(v.map("alpha1").to_lists(), 2)
        for r, cert in zip(self.depths, certs):
            if (cert is not None) != (0 < index <= r):
                return f"dims {v.dims}: membership at r = {r} disagrees with alpha^{r} = 0"
        if certs[0] is not None and not verified:
            return f"dims {v.dims}: the r = 4 certificate fails verification"
        return None

    def record(self, v, out):
        certs, _ = out
        return {
            "maps": _maps(v),
            "depths": [c.depth if c is not None else None for c in certs],
            "certificate": (
                serialize.certificate_to_jsonable(certs[0]) if certs[0] is not None else None
            ),
        }


def _a2_simples(field):
    q = a2_quiver()
    return q, rep.Rep.simple(q, field, 0), rep.Rep.simple(q, field, 1)


class A2Filt(Workload):
    """Arrow quiver A2 over F2, ordered family (S2, S1). Every rep with dims
    <= (3, 3) except the 512 of dims (3, 3), of which a seeded quarter is
    kept with the same share of each rank of the arrow map. An item:
    member_filt at depths 4, 2 and 1, filt_normalize of the depth-4
    certificate, its verification and its serialization."""

    name = "a2-filt"
    top_share = 0.25

    def build(self, seed):
        rng = random.Random(seed)
        q, s1, s2 = _a2_simples(F2)
        self.family = extfilt.OrderedFamily([s2, s1])
        bound = (2, 2) if self.small else (3, 3)
        items, top = [], {}
        for v in search.iter_all_reps(q, F2, bound):
            if v.dims == bound:
                top.setdefault(oracles.rank(v.map("a").to_lists(), 2), []).append(v)
            else:
                items.append(v)
        items.extend(_stratified(rng, [top[k] for k in sorted(top)], self.top_share))
        return items

    def run(self, v):
        c4 = extfilt.member_filt(v, self.family, 4)
        c2 = extfilt.member_filt(v, self.family, 2)
        c1 = extfilt.member_filt(v, self.family, 1)
        if c4 is None:
            return c4, c2, c1, None, None, None
        norm = extfilt.filt_normalize(c4)
        verified = norm.verify()
        text = json.dumps(serialize.certificate_to_jsonable(norm), sort_keys=True)
        return c4, c2, c1, norm, verified, text

    def check(self, v, out):
        c4, c2, c1, norm, verified, _ = out
        tag = f"dims {v.dims} map {v.map('a').to_lists()}"
        if c4 is None or c2 is None:
            return f"{tag}: not a member at depth 2 or 4, yet every rep is"
        if (c1 is not None) != oracles.is_zero(v.map("a").to_lists()):
            return f"{tag}: depth-1 membership disagrees with the arrow map being zero"
        if norm.depth > 2 or norm.member != v or not verified:
            return f"{tag}: the normalized certificate fails"
        return None

    def record(self, v, out):
        c4, c2, c1, _, _, text = out
        return {
            "maps": _maps(v),
            "dims": list(v.dims),
            "certificates": [
                serialize.certificate_to_jsonable(c) if c is not None else None
                for c in (c4, c2, c1)
            ],
            "normalized": text,
        }

    def json_bytes(self, item, out):
        return len(out[-1] or "")


class RefuteApprox(Workload):
    """Everything over F3; no subrepresentation search and no depth memo.

    Part one, the loop-and-exit quiver with two loops: members of
    add{S1} * add{M}, three per (S1, M) multiplicity shape with total dim
    <= 6 and seeded cocycle coefficients. This is the distribution
    sample_members draws from, but with a fixed count per shape, because
    the shape sets the number of candidates and so the work. An item: the
    member's verify_evidence, refute on every candidate map, and each
    witness serialized and re-verified from its JSON.

    Part two, the arrow quiver: every rep with dims <= (2, 2). An item:
    left_approx_ext into add{S1} * add{S2}, then factor_through on every
    hom_basis morphism into the 16 split targets up to dims (3, 3)."""

    name = "refute-approx-f3"
    per_shape = 3
    max_total_dim = 6

    def build(self, seed):
        rng = random.Random(seed)
        cfg = counterex.LoopQuiverConfig(2, F3)
        self.handle = counterex.standard_handle(cfg)
        top = 2 if self.small else self.max_total_dim
        items = []
        for a in range(top + 1):
            for b in range(top // 2 + 1):
                if a + 2 * b > top:
                    continue
                sub, _ = self.handle.left.canonical_sum((a,))
                quot, _ = self.handle.right.canonical_sum((b,))
                n = len(rep.ext1_basis(quot, sub))
                for _ in range(1 if self.small else self.per_shape):
                    coeffs = [rng.randrange(3) for _ in range(n)]
                    v, ev = counterex.assemble_member(cfg, a, b, coeffs)
                    items.append(("member", (a, b, coeffs), v, ev))
        q, s1, s2 = _a2_simples(F3)
        self.x = approx.AddCategory([s1])
        self.y = approx.AddCategory([s2])
        self.targets = []
        for a in range(4):
            for b in range(4):
                sub, _ = self.x.canonical_sum((a,))
                quot, _ = self.y.canonical_sum((b,))
                self.targets.append(rep.direct_sum([sub, quot])[0])
        bound = (1, 1) if self.small else (2, 2)
        items.extend(("a2", None, m, None) for m in search.iter_all_reps(q, F3, bound))
        return items

    def run(self, item):
        kind, _, v, ev = item
        if kind == "member":
            evidence_ok = approx.verify_evidence(ev, v, self.handle)
            texts, verified = [], []
            for phi in counterex.candidate_maps(v):
                witness = counterex.refute(phi, ev)
                text = json.dumps(serialize.certificate_to_jsonable(witness), sort_keys=True)
                texts.append(text)
                verified.append(serialize.verify_certificate(json.loads(text)))
            return evidence_ok, texts, verified
        cert = approx.left_approx_ext(v, self.x, self.y)
        verified = cert.verify()
        pairs = []
        for z in self.targets:
            for f in rep.hom_basis(v, z):
                pairs.append((f, approx.factor_through(f, cert.morphism)))
        return cert, verified, pairs

    def check(self, item, out):
        kind, shape, v, _ = item
        if kind == "member":
            evidence_ok, texts, verified = out
            if not evidence_ok:
                return f"member {shape}: the membership evidence fails"
            if not texts or not all(verified):
                return f"member {shape}: a witness fails re-verification from JSON"
            return None
        cert, verified, pairs = out
        tag = f"A2 dims {v.dims} map {v.map('a').to_lists()}"
        if not verified:
            return f"{tag}: the approximation certificate fails"
        z = [c.to_lists() for c in cert.morphism.components]
        for f, g in pairs:
            if g is None:
                return f"{tag}: a morphism into dims {f.target.dims} does not factor"
            g_comps = [c.to_lists() for c in g.components]
            if not oracles.factors(g_comps, z, [c.to_lists() for c in f.components], 3):
                return f"{tag}: a returned factorization g has g o approx != f"
        return None

    def record(self, item, out):
        kind, shape, v, _ = item
        if kind == "member":
            return {"shape": shape, "evidence": out[0], "witnesses": out[1]}
        cert, _, pairs = out
        return {
            "maps": _maps(v),
            "dims": list(v.dims),
            "approximation": serialize.certificate_to_jsonable(cert),
            "factorizations": [
                [c.to_lists() for c in g.components] if g is not None else None
                for _, g in pairs
            ],
        }

    def json_bytes(self, item, out):
        return sum(len(t) for t in out[1]) if item[0] == "member" else 0


class CliCold(Workload):
    """Each item is one ``python -m approxcat.cli --json-only`` command in a
    process of its own, so every cache starts cold and interpreter start and
    import are paid each time. Four commands of each kind, in two variants
    with a fixed quiver, field, dimensions and expected outcome each and
    seeded entries, so every seed asks for the same kind of work. The
    expected exit code (0 for a found object, 1 for a sound negative) is
    checked against the plain-integer oracles when the command is made.

    The absent member-add is over F2 at dims (3, 3), about 0.1 s of work.
    Over F3 the same negative answer takes 4-5 s in an exhaustive
    isomorphism search; one such command would outweigh the other 39 and
    hide the start-up cost this workload is for. That path needs a
    workload of its own.

    With ``inproc`` the same commands run through ``cli.main(argv)`` in this
    process instead; the traced run uses that."""

    name = "cli-cold"
    commands = (
        "hom", "ext1", "member-add", "member-ext", "member-filt",
        "approx-left", "approx-right", "approx-ext", "verify", "refute",
    )
    # copies of each command; 40 commands leave ten beyond the 75th
    # percentile of one repetition
    copies = 4

    def __init__(self, workdir, small=False, inproc=False):
        super().__init__(small)
        self.workdir = Path(workdir)
        self.inproc = inproc

    def rss_mb(self):
        if self.inproc:
            return super().rss_mb()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def _write(self, name, data):
        (self.workdir / name).write_text(json.dumps(data))
        return "@" + name

    def build(self, seed):
        self.rng = random.Random(seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.reps = {
            label: {
                "S1": {"dims": [1, 0], "maps": {}},
                "S2": {"dims": [0, 1], "maps": {}},
                "P1": {"dims": [1, 1], "maps": {"a": [[1]]}},
            }
            for label in ("F2", "F3")
        }
        self.loop_reps = {"S": {"dims": [1], "maps": {"alpha1": [[0]]}}}
        items = []
        for command in self.commands:
            for k in range(2 if self.small else self.copies):
                make = getattr(self, "_" + command.replace("-", "_"))
                argv, expect = make(k % 2, len(items))
                items.append({"argv": [command, *argv], "expect": expect})
        a2_handles = {
            "addS1": {"add": ["S1"]},
            "addS2": {"add": ["S2"]},
            "projs": {"add": ["P1", "S2"]},
            "s1s2": {"ext": ["addS1", "addS2"]},
            "s2s1": {"ext": ["addS2", "addS1"]},
        }
        for label, reps in self.reps.items():
            self._write(f"a2-{label}.json", {
                "format": 1, "quiver": a2_quiver().to_jsonable(), "field": label,
                "reps": reps, "handles": a2_handles,
            })
        self._write("loop-F3.json", {
            "format": 1, "quiver": loop_quiver(1).to_jsonable(), "field": "F3",
            "reps": self.loop_reps, "handles": {"adds": {"add": ["S"]}},
        })
        self._write("loopexit-F3.json", {
            "format": 1, "quiver": counterex.LoopQuiverConfig(2, F3).quiver().to_jsonable(),
            "field": "F3", "reps": {},
        })
        self.rng.shuffle(items)
        return items

    # one method per command: (argv after the command name, expected exit)
    # for variant k of that command

    def _a2(self, field, dims, accept=lambda a: True):
        """A new arrow-quiver rep with a seeded map that passes accept."""
        p = field.modulus
        while True:
            a = [[self.rng.randrange(p) for _ in range(dims[0])] for _ in range(dims[1])]
            if accept(a):
                break
        reps = self.reps[field.label]
        name = f"R{len(reps)}"
        reps[name] = {"dims": list(dims), "maps": {"a": a}}
        return f"@a2-{field.label}.json", name, a

    def _loop(self, dim, nilpotent):
        """A new one-loop rep over F3; nilpotent maps are strictly upper
        triangular."""
        alpha = [
            [self.rng.randrange(3) if (j > i or not nilpotent) else 0 for j in range(dim)]
            for i in range(dim)
        ]
        name = f"L{len(self.loop_reps)}"
        self.loop_reps[name] = {"dims": [dim], "maps": {"alpha1": alpha}}
        return "@loop-F3.json", name, alpha

    def _hom(self, k, n):
        field, dims = (F2, ((2, 3), (3, 2))) if k == 0 else (F3, ((2, 2), (2, 2)))
        ws, source, _ = self._a2(field, dims[0])
        _, target, _ = self._a2(field, dims[1])
        return ["--workspace", ws, "--from", source, "--to", target], 0

    _ext1 = _hom

    def _member_add(self, k, n):
        # found: an injective map over F3; absent: a rank-deficient map over
        # F2, which exhausts the isomorphism search
        if k == 0:
            ws, r, a = self._a2(F3, (2, 3), lambda a: oracles.rank(a, 3) == 2)
        else:
            ws, r, a = self._a2(F2, (3, 3), lambda a: oracles.rank(a, 2) < 3)
        injective = oracles.rank(a, F3.modulus if k == 0 else 2) == len(a[0])
        return ["--workspace", ws, "--rep", r, "--in", "projs"], 0 if injective else 1

    def _member_ext(self, k, n):
        # add{S2} * add{S1} holds every rep; add{S1} * add{S2} only those
        # with a zero arrow map
        field, handle = (F2, "s2s1") if k == 0 else (F3, "s1s2")
        ws, r, a = self._a2(field, (2, 2), lambda a: not oracles.is_zero(a))
        member = handle == "s2s1" or oracles.is_zero(a)
        return ["--workspace", ws, "--rep", r, "--in", handle], 0 if member else 1

    def _member_filt(self, k, n):
        if k == 0:
            ws, r, alpha = self._loop(3, nilpotent=True)
            depth = 3
            member = oracles.power_vanishes(alpha, depth, 3)
            family = "S"
        else:
            ws, r, a = self._a2(F2, (3, 3), lambda a: not oracles.is_zero(a))
            depth = 1
            member = oracles.is_zero(a)
            family = "S2,S1"
        argv = ["--workspace", ws, "--rep", r, "--family", family, "--depth", str(depth)]
        return argv, 0 if member else 1

    def _approx_left(self, k, n):
        field, dims = (F2, (3, 3)) if k == 0 else (F3, (2, 2))
        ws, r, _ = self._a2(field, dims)
        argv = ["--workspace", ws, "--of", r, "--into", "projs"]
        return argv + (["--minimize"] if k == 0 else []), 0

    def _approx_right(self, k, n):
        field, dims = (F2, (3, 3)) if k == 0 else (F3, (2, 2))
        ws, r, _ = self._a2(field, dims)
        argv = ["--workspace", ws, "--of", r, "--into", "projs"]
        return argv + (["--minimize"] if k == 1 else []), 0

    def _approx_ext(self, k, n):
        if k == 0:
            ws, r, _ = self._a2(F2, (3, 3))
            return ["--workspace", ws, "--of", r, "--x", "addS1", "--y", "addS2"], 0
        ws, r, _ = self._loop(3, nilpotent=False)
        argv = ["--workspace", ws, "--of", r, "--x", "adds", "--y", "adds",
                "--assume-subobject-closed"]
        return argv, 0

    def _verify(self, k, n):
        """A depth-2 filtration certificate of an arrow-quiver rep; the
        second copy alters its member's map, so it must not verify."""
        field, dims = (F2, (3, 3)) if k == 0 else (F3, (2, 2))
        _, _, a = self._a2(field, dims, lambda a: not oracles.is_zero(a))
        q = a2_quiver()
        member = rep.Rep(q, field, dims, {"a": Matrix(field, dims[1], dims[0],
                                                      [x for row in a for x in row])})
        family = [rep.Rep.simple(q, field, 1), rep.Rep.simple(q, field, 0)]
        cert = serialize.certificate_to_jsonable(extfilt.member_filt(member, family, 2))
        if k == 1:
            row = cert["member"]["maps"]["a"][0]
            row[0] = (row[0] + 1) % field.modulus
        return ["--certificate", self._write(f"cert-{n}.json", cert)], k

    def _refute(self, k, n):
        """A certified member of add{S1} * add{M} on the loop-and-exit
        quiver and one of its candidate maps out of S2, which is refuted."""
        cfg = counterex.LoopQuiverConfig(2, F3)
        handle = counterex.standard_handle(cfg)
        a, b = (2, 1) if k == 0 else (1, 2)
        sub, _ = handle.left.canonical_sum((a,))
        quot, _ = handle.right.canonical_sum((b,))
        coeffs = [self.rng.randrange(3) for _ in rep.ext1_basis(quot, sub)]
        v, ev = counterex.assemble_member(cfg, a, b, coeffs)
        phi = self.rng.choice(counterex.candidate_maps(v))
        path = self._write(f"candidate-{n}.json", {
            "candidate": serialize.morphism_to_jsonable(phi),
            "evidence": serialize.evidence_to_jsonable(ev),
        })
        return ["--workspace", "@loopexit-F3.json", "--candidate", path], 1

    def _resolve(self, argv):
        return [str(self.workdir / a[1:]) if a.startswith("@") else a for a in argv]

    def run(self, item):
        argv = ["--json-only", *self._resolve(item["argv"])]
        if self.inproc:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        # the command processes import the same sources as this one
        src = Path(cli.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "approxcat.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=30,
        )
        return proc.returncode, proc.stdout

    def check(self, item, out):
        code, stdout = out
        if code != item["expect"]:
            return f"{' '.join(item['argv'])}: exit {code}, expected {item['expect']}"
        try:
            json.loads(stdout)
        except json.JSONDecodeError:
            return f"{' '.join(item['argv'])}: the report is not JSON"
        return None

    def record(self, item, out):
        code, stdout = out
        return {"argv": item["argv"], "exit": code, "report": json.loads(stdout)}

    def json_bytes(self, item, out):
        return len(out[1])


WORKLOADS = {w.name: w for w in (LoopFilt, A2Filt, RefuteApprox, CliCold)}


def make(name, workdir, small=False, inproc=False):
    if name == CliCold.name:
        return CliCold(workdir, small=small, inproc=inproc)
    return WORKLOADS[name](small=small)

"""tools/op_counts.py on one repetition of refute-approx-f3, seed 0: every
hom system it counts gives one counted kernel, wherever rep._hom_kernel
computes it, and no kernel's unit rows are scanned again outside
Matrix.solve, since the kernel hands them out with its basis.

On a2-filt, seed 0, in a fresh process so that no bounded cache starts
warm: the family's Ext1 hypothesis makes one hom system per distinct
generator pair, and the handle builds each canonical sum and each
zero-map evidence once, so neither count passes the 16 distinct
multiplicity vectors the workload asks for; and the value-keyed matrix
caches leave at most a tenth of its eliminations to compute.

On refute-approx-f3, seed 0, in a fresh process as well: the workload
factors maps into the semisimple targets S1^a + S2^b, and a map into one
of them is factored one simple copy at a time, each distinct (z, x,
slice) once while the bounded rep._copy_lift cache holds it, so it
computes at most 300 per-copy answers (244) and
eliminates at most 160 factorization systems (1,404 before Hom into a
semisimple rep was read through its summands, 212 when the systems were
assembled from theirs), 400 hom systems and 200 RREFs; the bounded
rep._hom_kernel cache misses at most 400 times (1,782 when the kernels
of semisimple ends were assembled there, nearly all first-time misses).
The 107 left approximations it verifies were built by the library, which
records them as their own approximations, so checking the approximation
property adds no factorization system to those bounds. Every memo of the
package is a bounded lru_cache: the five that hold results computed from
several values (factorization systems, per-copy answers, canonical sums,
zero-map evidence and verified evidence) are listed with 256 entries, and
so is the one reader cache, serialize._read. Each witness is verified
from its JSON, and the reader cache reads each distinct rep, morphism and
evidence once, so at most 300 RepMorphisms are constructed (220; 2,484
when only reps were read once) and Matrix._fill runs at most 5,500 times
(4,755; 9,283 before). Hom bases, summand splits and rep JSON forms are
each built once per distinct input while their bounded caches hold it:
rep._hom_basis misses at most 1,900 times (1,796 at its bound of 32; every
one of the 2,658 calls built its basis before), serialize._rep_text at
most 100 (35 distinct reps, of 5,184 writes) and rep._simple_summands at
most 100 (47, of 8,514 splits computed before); each is listed with its
bound.

On loop-filt, seed 0: a rep computes its hash once and keeps it, so of
the 28,248 Rep.__hash__ calls at most 4,000 compute one (3,532 distinct
reps; every call computed one before the hash was kept)."""

import importlib.util
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_counts_follow_the_hom_kernels(monkeypatch):
    # main puts the checkout's paths in front of sys.path; the copy is restored
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("op_counts", ROOT / "tools" / "op_counts.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    counts = tool.main(ROOT, "refute-approx-f3", 0)
    assert counts["items"] > 0 and counts["hom_systems"] > 0
    assert counts["hom_kernels"] == counts["hom_systems"]
    assert counts["unit_rows_outside_solve"] == 0


def test_a2_filt_builds_each_handle_value_once():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "op_counts.py"), "a2-filt", "0"],
                          capture_output=True, text=True, check=True, timeout=300)
    counts = json.loads(done.stdout)
    assert counts["items"] > 0
    assert counts["hom_systems"] == 3
    assert 0 < counts["canonical_sums_built"] <= 16
    assert 0 < counts["add_evidence_built"] <= 16
    # equal matrices are eliminated once while the bounded cache holds them:
    # at most a tenth of the 10,206 rrefs the workload ran before it existed
    assert 0 < counts["rref_computed"] <= 1020
    assert all(c["currsize"] <= c["maxsize"] for c in counts["caches"].values())


def test_refute_factors_into_semisimple_ends_copy_by_copy():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "op_counts.py"),
                           "refute-approx-f3", "0"],
                          capture_output=True, text=True, check=True, timeout=300)
    counts = json.loads(done.stdout)
    assert counts["items"] > 0
    assert 0 < counts["copy_factorizations"] <= 300
    assert 0 < counts["factor_systems"] <= 160
    assert counts["caches"]["rep._hom_kernel"]["misses"] <= 400
    assert 0 < counts["hom_systems"] <= 400
    assert counts["hom_kernels"] == counts["hom_systems"]
    assert 0 < counts["rref_computed"] <= 200
    assert 0 < counts["RepMorphism.__init__"] <= 300
    assert 0 < counts["Matrix._fill"] <= 5500
    for name in ("rep._factor_system", "rep._copy_lift", "approx._canonical_sum",
                 "approx._zero_map_evidence", "counterex._member_verified", "serialize._read"):
        assert counts["caches"][name]["maxsize"] == 256
    assert 0 < counts["hom_bases_built"] <= 1900
    assert 0 < counts["rep_writes"] <= 100
    assert 0 < counts["summand_splits"] <= 100
    assert counts["caches"]["rep._hom_basis"]["maxsize"] == 32
    for name in ("rep._simple_summands", "serialize._rep_text"):
        assert counts["caches"][name]["maxsize"] == 256


def test_loop_filt_hashes_each_rep_once():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "op_counts.py"), "loop-filt", "0"],
                          capture_output=True, text=True, check=True, timeout=300)
    counts = json.loads(done.stdout)
    assert counts["items"] > 0 and counts["rep_hashes"] > 0
    assert 0 < counts["rep_hashes_computed"] <= 4000

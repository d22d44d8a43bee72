"""tools/op_counts.py on one repetition of refute-approx-f3, seed 0: every
hom system it counts gives one counted kernel, wherever rep._hom_kernel
computes it, and no kernel's unit rows are scanned again outside
Matrix.solve, since the kernel hands them out with its basis.

On a2-filt, seed 0, in a fresh process so that no bounded cache starts
warm: the family's Ext1 hypothesis makes one hom system per distinct
generator pair, and the handle builds each canonical sum and each
zero-map evidence once, so neither count passes the 16 distinct
multiplicity vectors the workload asks for; and the value-keyed matrix
caches leave at most a tenth of its eliminations to compute."""

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

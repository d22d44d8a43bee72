"""tools/op_counts.py on one repetition of refute-approx-f3, seed 0: every
hom system it counts gives one counted kernel, wherever rep._hom_kernel
computes it, and no kernel's unit rows are scanned again outside
Matrix.solve, since the kernel hands them out with its basis."""

import importlib.util
import pathlib
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

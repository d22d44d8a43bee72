"""Smoke runs of every workload at a tiny size, repeatable traced counts,
and agreement between BENCHMARK.json and what run.py prints."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, run, worker
from perfbench.run import ROOT


def small_run(capsys, workload, *flags):
    worker.main(["--workload", workload, "--seed", "3", "--launched", "0", "--small", *flags])
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_run_passes_its_oracles(capsys, workload):
    out = small_run(capsys, workload)
    assert out["attempted"] > 0
    assert out["failed"] == 0, out["failures"]
    assert len(out["item_s"]) == out["attempted"]


def test_cli_commands_give_the_same_reports_in_process(capsys):
    cold = small_run(capsys, "cli-cold")
    inproc = small_run(capsys, "cli-cold", "--inproc")
    assert inproc["failed"] == 0, inproc["failures"]
    assert inproc["digest"] == cold["digest"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_and_digest_repeat_across_fresh_processes(workload):
    inproc = ["--inproc"] if workload == "cli-cold" else []
    first = run.spawn(workload, 5, "--small", "--trace", *inproc)
    second = run.spawn(workload, 5, "--small", "--trace", *inproc)
    assert first["failed"] == second["failed"] == 0
    assert layers.repeatable(first["trace"]) == layers.repeatable(second["trace"])
    assert first["digest"] == second["digest"]
    untraced = run.spawn(workload, 5, "--small", *inproc)
    assert untraced["digest"] == first["digest"]
    metrics, problems = run.per_layer([untraced], [first, second])
    assert not problems
    assert metrics.keys() == {name for name, _, _ in layers.METRICS}
    layer_calls = {m: metrics[f"{m}.calls"]["value"] for m in layers.LAYERS}
    assert any(layer_calls.values())


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(3531) == 99
    assert run.tail_percentile(306) == 95
    assert run.tail_percentile(155) == 90
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(5) == 50
    assert run.percentile(list(range(1, 101)), 99) == 99


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop-filt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

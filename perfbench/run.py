"""approxcat benchmark: one workload, one seed, measured for a set time.

    python3 perfbench/run.py --workload loop-filt --seed 1 --seconds 20 --trace 0

Every repetition of the workload runs in a fresh interpreter
(perfbench/worker.py), so approxcat's module-level caches start empty, and
each item starts only after the previous one ends (closed loop, one
client). Repetitions are started until --seconds have passed, and at
least MIN_REPS of them.

--trace 0 prints the end-to-end metrics, taken over every repetition.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of perfbench/layers.py; tracing never touches the
end-to-end numbers.

Each item's answer is checked against a plain-integer oracle, and a digest
of all answers and serialized certificates must repeat across repetitions
and, for seeds recorded in perfbench/baseline.json, match the recorded
digest. The last line of output is one JSON object with the keys correct,
attempted, failed and metrics; a run record goes to
.perfbench/records/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, layers  # noqa: E402

WORKLOADS = ("loop-filt", "a2-filt", "refute-approx-f3", "cli-cold")
MIN_REPS = 3
MIN_TRACED = 2
# set-ups timed per run; repetitions count, and set-up-only workers make up
# the rest
SETUP_SAMPLES = 9
# whatever --seconds says, no repetition starts after LAST_START_S and none
# may take longer than WORKER_TIMEOUT_S, so a run ends within 180 s
LAST_START_S = 100
WORKER_TIMEOUT_S = 60
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
BASELINE = Path(__file__).resolve().parent / "baseline.json"

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, *flags):
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", "--workload", workload,
         "--seed", str(seed), "--launched", repr(launched), *flags],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


def tail_percentile(n):
    """The highest ladder percentile with at least ten of n samples above it."""
    for q in TAIL_LADDER:
        if n * (100 - q) / 100 >= 10:
            return q
    return TAIL_LADDER[-1]


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "approxcat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def recorded_digest(workload, seed):
    if not BASELINE.exists():
        return None
    data = json.loads(BASELINE.read_text())
    return data.get("digests", {}).get(workload, {}).get(str(seed))


def digest_problems(reps, workload, seed):
    """Why the repetitions' output digests are not acceptable, if they are not."""
    problems = []
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        problems.append(f"output digest differs between repetitions: {sorted(digests)}")
    expected = recorded_digest(workload, seed)
    if expected is not None and digests != {expected}:
        problems.append(f"output digest {sorted(digests)} != recorded {expected}")
    return problems, expected


def end_to_end(reps, setups):
    """The end-to-end metrics of a --trace 0 run.

    Every repetition runs the same items, so an item's time is its median
    over the repetitions; the median and the tail are taken over those."""
    per_item = sorted(statistics.median(ts) for ts in zip(*(r["item_s"] for r in reps)))
    q = tail_percentile(len(per_item))
    total_items = len(reps) * len(per_item)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": total_items / sum(sum(r["item_s"]) for r in reps),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_tail_ms": percentile(per_item, q) * 1e3,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    samples = {
        "setup_s": len(setups), "items_per_s": total_items, "item_p50_ms": len(per_item),
        "item_tail_ms": len(per_item), "peak_rss_mb": len(reps),
    }
    metrics = {
        name: {"value": values[name], "unit": unit, "samples": samples[name]}
        for name, unit in END_TO_END.items()
    }
    metrics["item_tail_ms"]["percentile"] = q
    return metrics


def raw_wall(rep):
    """Seconds the traced spans can cover: building the inputs and the items."""
    return rep["build_s"] + rep["raw_items_s"]


def per_layer(untraced, traced):
    """(metrics, problems) from paired untraced and traced repetitions."""
    problems = []
    counts = [layers.repeatable(r["trace"]) for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced runs of one seed")
    names = traced[0]["trace"]["self_s"]
    self_s = {n: statistics.median(r["trace"]["self_s"][n] for r in traced) for n in names}
    def item_time(reps):
        return statistics.median(sum(r["item_s"]) for r in reps)

    values = layers.per_layer(
        traced[0]["trace"], self_s, statistics.median(raw_wall(r) for r in traced),
        import_s=statistics.median(r["import_s"] for r in traced),
        serialized_bytes=traced[0]["json_bytes"],
        overhead_ratio=item_time(traced) / item_time(untraced),
    )
    metrics = {
        name: {"value": values[name], "unit": unit, "samples": len(traced)}
        for name, unit, _ in layers.METRICS
    }
    return metrics, problems


def measure_untraced(workload, seed, seconds):
    """(repetitions, set-up times) of a --trace 0 run."""
    started = time.monotonic()
    reps = []
    while len(reps) < MIN_REPS or (
        time.monotonic() - started < min(seconds, LAST_START_S)
    ):
        reps.append(spawn(workload, seed))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "--setup-only")["setup_s"])
    return reps, setups


def measure_traced(workload, seed, seconds):
    """(untraced repetitions, traced repetitions, warm/cold gap) of a
    --trace 1 run. The first untraced repetition times a second, warm pass
    over its items too."""
    # the cli workload runs its commands in-process when traced, so its
    # untraced comparison runs them in-process too
    inproc = ["--inproc"] if workload == "cli-cold" else []
    started = time.monotonic()
    untraced, traced = [], []
    while len(traced) < MIN_TRACED or (
        time.monotonic() - started < min(seconds, LAST_START_S)
    ):
        untraced.append(spawn(workload, seed, *inproc,
                              *([] if untraced else ["--warm-pass"])))
        traced.append(spawn(workload, seed, "--trace", *inproc))
    cold = sum(untraced[0]["item_s"])
    warm = sum(untraced[0].pop("warm_item_s"))
    gap = {"cold_items_s": cold, "warm_items_s": warm, "warm_over_cold": warm / cold}
    return untraced, traced, gap


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "approxcat" / "cli.py").is_file():
        print(f"approxcat sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    traced, warm = [], None
    try:
        if args.trace:
            reps, traced, warm = measure_traced(args.workload, args.seed, args.seconds)
        else:
            reps, setups = measure_untraced(args.workload, args.seed, args.seconds)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    everything = reps + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    problems, expected = digest_problems(everything, args.workload, args.seed)
    if args.trace:
        metrics, trace_problems = per_layer(reps, traced)
        problems += trace_problems
    else:
        metrics = end_to_end(reps, setups)
    kernel_s = [k for r in everything for k in r["kernel_s"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "items_per_repetition": reps[0]["attempted"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for r in everything for f in r["failures"]][:20],
        "digest": everything[0]["digest"],
        "recorded_digest": expected,
        "problems": problems,
        "warm_cold_gap": warm,
        "kernel_s": {
            "reference": calibrate.REFERENCE_S,
            "median": statistics.median(kernel_s),
            "min": min(kernel_s),
            "max": max(kernel_s),
        },
        "raw_items_s": sum(r["raw_items_s"] for r in reps),
        "scaled_items_s": sum(sum(r["item_s"]) for r in reps),
        "metrics": metrics,
    }
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )

    for failure in record["failures"]:
        print(f"FAILED item {failure[0]}: {failure[1]}")
    for problem in problems:
        print(f"FAILED: {problem}")
    if expected is None:
        digest_note = "no digest recorded for this seed"
    else:
        same = {r["digest"] for r in everything} == {expected}
        digest_note = "recorded digest " + ("matches" if same else "differs")
    print(f"{args.workload} seed {args.seed}: {len(reps)} untraced and {len(traced)} "
          f"traced repetitions of {reps[0]['attempted']} items; failed_frac "
          f"{failed / attempted:g}; digest {record['digest'][:16]}, {digest_note}")
    if warm:
        print(f"warm/cold gap: a second in-process pass takes {warm['warm_over_cold']:.3f} "
              "of the cold pass's item time")
    for name, m in metrics.items():
        extra = f" (p{m['percentile']:g} of {m['samples']})" if "percentile" in m else ""
        print(f"{name}: {m['value']:.6g} {m['unit']}{extra}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

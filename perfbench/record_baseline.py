"""Write perfbench/baseline.json: output digests per workload and seed, and
the end-to-end numbers of the run records in .perfbench/records/.

    python3 perfbench/record_baseline.py --digest-seeds 0-31
    python3 perfbench/record_baseline.py --numbers 20-29

--digest-seeds runs one cold repetition per workload and seed and stores
its digest; run.py then marks a run of a recorded seed failed when its
digest differs. Record digests only from a commit whose answers are
trusted: the digest fixes the bytes of every answer and certificate.

--numbers summarizes the end-to-end run records (trace 0) of the given
seeds, made from the current source tree: per workload and metric, the
median and quartiles over those seeds.
"""

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def numbers(seeds):
    source = run.source_digest()
    table = {}
    for path in sorted((run.ROOT / ".perfbench" / "records").glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        if rec["seed"] not in seeds or rec["source_sha256"] != source:
            continue
        if rec["failed"] or rec["problems"]:
            sys.exit(f"{path.name} records failures: {rec['failures'] or rec['problems']}")
        for name, m in rec["metrics"].items():
            entry = table.setdefault(rec["workload"], {}).setdefault(
                name, {"unit": m["unit"], "seeds": [], "values": []}
            )
            entry["seeds"].append(rec["seed"])
            entry["values"].append(m["value"])
            for key in ("samples", "percentile"):
                if key in m:
                    entry.setdefault(key, []).append(m[key])
    for metrics in table.values():
        for entry in metrics.values():
            values = entry["values"]
            entry["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["q1"], entry["q3"] = q1, q3
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digest-seeds", type=seed_range)
    parser.add_argument("--numbers", type=seed_range, metavar="SEEDS")
    args = parser.parse_args(argv)
    data = json.loads(run.BASELINE.read_text()) if run.BASELINE.exists() else {}
    data.update({
        "commit": run.commit(),
        "source_sha256": run.source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    })
    if args.digest_seeds is not None:
        digests = data.setdefault("digests", {})
        for workload in run.WORKLOADS:
            for seed in args.digest_seeds:
                out = run.spawn(workload, seed)
                if out["failed"]:
                    sys.exit(f"{workload} seed {seed}: {out['failures']}")
                digests.setdefault(workload, {})[str(seed)] = out["digest"]
                print(workload, seed, out["digest"][:16], flush=True)
    if args.numbers is not None:
        data["end_to_end"] = numbers(args.numbers)
    run.BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

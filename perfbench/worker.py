"""One repetition of one workload, in a fresh interpreter.

run.py starts this as ``python3 -m perfbench.worker`` with the checkout's
``src`` on PYTHONPATH, so approxcat's module-level caches start empty. It
prints one JSON object: set-up time, every item's time, oracle failures,
the output digest, peak memory and, with --trace, the tracer's summary;
the traced spans go to .perfbench/spans/.
Checking and digesting happen outside the timed region, with the tracer
switched off.
"""

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

from perfbench import calibrate

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
# items run between two measurements of the machine's speed
CALIBRATE_EVERY_S = 0.05


def run_items(wl, items, tracer=None):
    """(item times, calibration marks, failures, failed count, digest, JSON
    bytes). The times are as measured; calibrate.scale turns them into
    times at the reference speed with the marks."""
    from perfbench.workloads import canonical

    digest = hashlib.sha256()
    times, failures = [], []
    failed = json_bytes = 0
    marks = [(0, calibrate.measure())]
    since = 0.0
    for index, item in enumerate(items):
        if since >= CALIBRATE_EVERY_S:
            marks.append((index, calibrate.measure()))
            since = 0.0
        start = time.perf_counter()
        try:
            out = wl.run(item)
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        times.append(time.perf_counter() - start)
        since += times[-1]
        if tracer is not None:
            tracer.on = False
        try:
            if error is None:
                error = wl.check(item, out)
                json_bytes += wl.json_bytes(item, out)
                record = wl.record(item, out)
            else:
                record = {"error": error.strip().splitlines()[-1]}
        except Exception:
            error = traceback.format_exc(limit=3)
            record = {"error": "checking raised"}
        digest.update(canonical(record).encode() + b"\n")
        if error is not None:
            failed += 1
            if len(failures) < 20:
                failures.append([index, error])
        if tracer is not None:
            tracer.on = True
    marks.append((len(items), calibrate.measure()))
    return times, marks, failures, failed, digest.hexdigest(), json_bytes


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--inproc", action="store_true",
                        help="cli-cold only: run commands through cli.main in-process")
    parser.add_argument("--warm-pass", action="store_true",
                        help="after the cold pass, time the same items again")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only its time")
    parser.add_argument("--small", action="store_true",
                        help="a few items per workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import approxcat.cli  # noqa: F401  (the whole package, as a user loads it)
    import_s = time.perf_counter() - start

    from approxcat import extfilt, search
    from perfbench import layers, workloads
    from perfbench.tracer import Tracer

    workdir = WORK / "work" / str(os.getpid())
    wl = workloads.make(args.workload, workdir, small=args.small, inproc=args.inproc)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(layers.SPAN_TARGETS)
        tracer.install(layers.COUNT_TARGETS, count_only=True)
    try:
        start = time.perf_counter()
        items = wl.build(args.seed)
        build_s = time.perf_counter() - start
        setup_s = time.monotonic() - args.launched
        if args.setup_only:
            speed = calibrate.REFERENCE_S / calibrate.measure()
            print(json.dumps({"setup_s": setup_s * speed, "raw_setup_s": setup_s}))
            return 0
        times, marks, failures, failed, digest, json_bytes = run_items(wl, items, tracer)
        speed = calibrate.REFERENCE_S / marks[0][1]
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "import_s": import_s,
            "build_s": build_s,
            "setup_s": setup_s * speed,
            "item_s": calibrate.scale(times, marks),
            "raw_setup_s": setup_s,
            "raw_items_s": sum(times),
            "kernel_s": [m[1] for m in marks],
            "attempted": len(items),
            "failed": failed,
            "failures": failures,
            "digest": digest,
            "json_bytes": json_bytes,
            "rss_mb": wl.rss_mb(),
        }
        if tracer is not None:
            tracer.on = False
            summary = tracer.summary()
            summary["sizes"] = {
                "subspace_cache": len(getattr(search, "_subspace_cache", ())),
                "depth_memo": len(getattr(extfilt, "_depth_memo", ())),
            }
            result["trace"] = summary
            spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.spans"
            spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(spans)
        if args.warm_pass:
            warm_times, warm_marks = run_items(wl, items)[:2]
            result["warm_item_s"] = calibrate.scale(warm_times, warm_marks)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if workdir.exists():
            shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

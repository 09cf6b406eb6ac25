#!/usr/bin/env python3
"""lipcheck job-stream benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lp-sweep --seed 1 --seconds 30 --trace 0

One workload runs in this process as a closed loop: one client, no threads,
one job at a time. The package is imported from ``src/`` next to this
directory, on the fractions backend. The run is sized from ``--seconds``
(see ``workloads.CYCLE_SECONDS``) but its job list depends only on the
workload, the seed and ``--seconds``, so equal arguments mean equal work.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same jobs
with every public layer function wrapped in spans, prints the per-layer
metrics and a layer-share table, then replays the first cycle untraced to
measure the tracing overhead and to check that tracing changed no report
byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Per-job records and
report digests (and, when tracing, the spans) go to ``.perfbench/`` under
the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import types

from tracer import SPAN_NAMES, Tracer, per_layer_units
from workloads import WORKLOADS, cycle_count

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
MODULES = ("rational", "metric", "lipfun", "plfun", "freespace", "embeddings",
           "rtree", "cli")

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_lipcheck():
    """Import the package from ``src/`` afresh, dropping any earlier copy.

    Jobs reach functions through the returned namespace (``libs.cli.main``)
    at call time, so they see the tracer's wrappers; ``libs.modules`` maps
    every lipcheck module name to its module."""
    for name in [m for m in sys.modules if m == "lipcheck" or m.startswith("lipcheck.")]:
        del sys.modules[name]
    importlib.import_module("lipcheck")
    for name in MODULES:
        importlib.import_module("lipcheck." + name)
    modules = {m: sys.modules[m] for m in sys.modules
               if m == "lipcheck" or m.startswith("lipcheck.")}
    return types.SimpleNamespace(
        modules=modules, **{name: modules["lipcheck." + name] for name in MODULES})


def run_jobs(jobs, libs, reports, tracer=None):
    """Run ``jobs`` in order; a job that raises or fails its verdict check
    counts as failed and the loop goes on. Returns the per-job records and
    the loop's wall time."""
    records = []
    clock = time.perf_counter
    # The subcommands' one-line summaries are dropped; the report files carry
    # the results.
    with contextlib.redirect_stdout(io.StringIO()):
        loop_start = clock()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            out = os.path.join(reports, f"{i}.json")
            start = clock()
            try:
                ok, report, written = job.execute(libs, out)
            except Exception:
                ok, report, written = False, b"", 0
                print(f"job {i} {job.kind} {job.label} raised:\n{traceback.format_exc()}",
                      file=sys.stderr)
            latency = clock() - start
            if not ok and report:
                print(f"job {i} {job.kind} {job.label}: verdict check failed",
                      file=sys.stderr)
            records.append({
                "job": i, "kind": job.kind, "label": job.label, "ok": bool(ok),
                "latency_s": latency, "report_bytes": written,
                "sha256": hashlib.sha256(report).hexdigest() if report else None,
            })
        wall = clock() - loop_start
    return records, wall


def setup(workload, seed, cycles, work):
    """Import, generate and write the seeded inputs, warm up; repeated
    ``SETUP_REPEATS`` times. Returns the last libs and jobs and the median
    set-up time."""
    build, warmup = WORKLOADS[workload]
    times = []
    for rep in range(SETUP_REPEATS):
        inputs = os.path.join(work, f"inputs-{rep}")
        warm_reports = os.path.join(work, f"warmup-{rep}")
        os.makedirs(inputs)
        os.makedirs(warm_reports)
        start = time.perf_counter()
        libs = import_lipcheck()
        jobs = build(libs, seed, cycles, inputs)
        warm, _ = run_jobs(warmup(libs, seed, inputs), libs, warm_reports)
        times.append(time.perf_counter() - start)
        for rec in warm:
            if not rec["ok"]:
                print(f"warm-up job {rec['kind']} {rec['label']} failed", file=sys.stderr)
    return libs, jobs, statistics.median(times)


def tail(latencies):
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    above it, with that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def combined_digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update((rec["sha256"] or "-").encode())
    return h.hexdigest()


def layer_share_lines(layers, wall):
    rows = sorted(((layers[name + ".self_s"], name) for name in SPAN_NAMES),
                  reverse=True)
    spans_s = sum(v for v, _ in rows)
    lines = [f"layer shares of traced wall {wall:.3f} s (self time):"]
    for value, name in rows:
        if value > 0:
            lines.append(f"  {name:36s} {value:10.4f} s  {100 * value / wall:6.2f} %")
    lines.append(f"  {'(benchmark: checks, report reads)':36s} {wall - spans_s:10.4f} s  "
                 f"{100 * (wall - spans_s) / wall:6.2f} %")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "lipcheck", "__init__.py")):
        print(f"error: no lipcheck sources under {SRC}", file=sys.stderr)
        return 2

    # Pin the backend so figures are comparable wherever gmpy2 is installed.
    os.environ["LIPCHECK_PURE_RATIONAL"] = "1"
    sys.path.insert(0, SRC)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    os.makedirs(OUT_ROOT, exist_ok=True)
    work = os.path.join(OUT_ROOT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, tag, work, cycle_count(args.workload, args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, tag, work, cycles) -> int:
    libs, jobs, setup_s = setup(args.workload, args.seed, cycles, work)
    reports = os.path.join(work, "reports")
    os.makedirs(reports)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(libs.modules)
        try:
            records, wall = run_jobs(jobs, libs, reports, tracer)
        finally:
            tracer.uninstall()
        # Replaying the first cycle untraced prices the tracing and shows
        # whether it changed any report byte.
        replay_reports = os.path.join(work, "replay")
        os.makedirs(replay_reports)
        replay, _ = run_jobs(jobs[:len(jobs) // cycles], libs, replay_reports)
    else:
        records, wall = run_jobs(jobs, libs, reports)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(records)
    failed = sum(not rec["ok"] for rec in records)
    correct = failed == 0
    latencies = [rec["latency_s"] for rec in records]
    tail_s, tail_pct = tail(latencies)
    digest = combined_digest(records)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles, "attempted": attempted,
        "failed": failed, "failed_ratio": failed / attempted,
        "loop_wall_s": wall, "tail_percentile": tail_pct, "report_digest": digest,
    }
    print(f"{args.workload} seed={args.seed} cycles={cycles} jobs={attempted} "
          f"failed_ratio={failed}/{attempted} loop_wall={wall:.3f}s")
    print(f"job_tail_s is p{tail_pct:.2f} of {attempted} samples")
    print(f"report_digest={digest}")

    if tracer is None:
        values = {
            "jobs_per_s": (attempted - failed) / wall,
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        layers = tracer.layer_metrics()
        layers["cli.report_bytes"] = sum(rec["report_bytes"] for rec in records)
        traced_s = sum(rec["latency_s"] for rec in records[:len(replay)])
        replay_s = sum(rec["latency_s"] for rec in replay)
        layers["trace.overhead_ratio"] = traced_s / replay_s
        changed = [rec["job"] for rec, again in zip(records, replay)
                   if rec["sha256"] != again["sha256"] or not again["ok"]]
        if changed:
            correct = False
            print(f"tracing changed the outcome of jobs {changed[:10]}", file=sys.stderr)
        summary.update(replay_jobs=len(replay), replay_s=replay_s, replay_changed=changed)
        for line in layer_share_lines(layers, wall):
            print(line)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_units()}
        with open(os.path.join(OUT_ROOT, f"{tag}.spans.json"), "w") as fh:
            json.dump({"jobs": [[r["job"], r["kind"], r["label"]] for r in records],
                       "spans": tracer.spans}, fh, separators=(",", ":"))

    summary["end_to_end" if tracer is None else "per_layer"] = {
        k: v["value"] for k, v in metrics.items()}
    with open(os.path.join(OUT_ROOT, f"{tag}.jobs.json"), "w") as fh:
        json.dump({"summary": summary, "jobs": records}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

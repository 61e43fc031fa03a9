"""One benchmark session in a fresh process.

Started by ``run.py``; not meant to be run by hand.  It sets one workload up,
prints ``READY`` (the launcher times set-up up to that line), then either

* runs the timed passes for ``--seconds`` and prints the end-to-end metrics
  (medians over the passes), or, with ``--trace 1``,
* runs an untraced, a traced, another untraced and a profiled pass and
  prints the per-layer metrics, writing spans and metrics to
  ``perfbench/out/trace-<workload>-seed<seed>.json``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics`` (name -> value, unit) and ``notes``.
With ``--setup-only`` it exits right after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the source tree on sys.path)
from workloads import Tally  # noqa: E402

OUT = HERE / "out"


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_session(wl, seconds: float, tally: Tally) -> dict:
    """Whole passes until the next one would end past ``seconds``."""
    records, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        records.append(wl.run_pass(tally))
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            break
    tally.notes.append(f"timed passes: {len(records)}")
    med = statistics.median
    return {
        "wall_s": (med([r.wall_s for r in records]), "s"),
        "cpu_s": (med([r.cpu_s for r in records]), "s"),
        "sim_events_per_s": (med([r.events / r.wall_s for r in records]),
                             "events/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "asman_sim_s": (records[0].asman_sim_s, "sim_s"),
    }


def traced_session(wl, tally: Tally, seed: int) -> dict:
    """Untraced, traced, untraced again, then profiled.  The overhead is
    the traced pass against the mean of the two untraced ones, which
    cancels a steady drift of host speed."""
    before = wl.run_pass(tally)
    import tracing  # only the traced run loads the tracer
    traced, doc = tracing.traced(lambda phase: wl.run_pass(tally, phase))
    cache_root = getattr(wl, "cache_root", None)
    cache_bytes = (workloads.ResultCache(cache_root).stats()["bytes"]
                   if cache_root is not None else 0)
    after = wl.run_pass(tally)
    self_times = tracing.profiled(lambda: wl.run_pass(tally))
    untraced_wall = (before.wall_s + after.wall_s) / 2
    metrics = tracing.layer_metrics(doc, self_times, cache_bytes, after,
                                    untraced_wall, traced)
    path = OUT / f"trace-{wl.name}-seed{seed}.json"
    spans = doc["spans"]
    origin = min((s["start"] for s in spans), default=0.0)
    for s in spans:
        s["start"] -= origin
        s["end"] -= origin
    path.write_text(json.dumps({
        "workload": wl.name, "seed": seed,
        "untraced_wall_s": untraced_wall, "traced_wall_s": traced.wall_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
        "spans": spans}, indent=None) + "\n", encoding="utf-8")
    print(f"trace: {len(spans)} spans and per-layer metrics written to "
          f"{path.relative_to(HERE.parent)}", file=sys.stderr)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        tally = Tally()
        if args.trace:
            metrics = traced_session(wl, tally, args.seed)
        else:
            metrics = timed_session(wl, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not tally.failures, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
        "notes": sorted(set(tally.notes)), "failures": tally.failures}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

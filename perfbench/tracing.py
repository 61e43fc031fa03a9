"""Layer tracing for the benchmark's traced run (``--trace 1``).

Loaded only by the traced run; the timed runs never import it.  It wraps the
program's layer-boundary calls from the outside (no change to ``src/``):

* a *span* (name, start, end, parent span, cell id, phase) around each cell
  execution, each ``Testbed`` set-up call, each ``Simulator`` run loop, each
  result-cache read and write, each supervised batch and each conformance
  generate/judge call;
* a *count* (and, for canonical keys, the time) of calls too frequent for a
  span each: ``Workload.rounds_completed``, ``CellSpec.canonical`` and
  ``os.fsync``;
* deterministic per-cell counts read from each cell's ``Testbed`` when the
  cell ends: events, heap peak, spin waits, VCRD changes, Monitoring Module
  over-threshold waits and injected faults.

Spans are kept in memory and written out when the run ends.  Every
workload runs in one process, so one recorder sees every call.
"""

from __future__ import annotations

import cProfile
import functools
import hashlib
import os
import pstats
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

import repro
from repro.conformance import driver as conformance_driver
from repro.experiments.setup import Testbed
from repro.parallel import cache as cache_mod
from repro.parallel import cells as cells_mod
from repro.parallel import supervisor
from repro.sim.engine import Simulator
from repro.workloads.base import Workload

#: Span names of the Testbed set-up calls.
TESTBED_SPANS = ("experiments.testbed.init", "experiments.testbed.add_domain0",
                 "experiments.testbed.add_vm", "experiments.testbed.start")

#: Packages whose profiled self-time is reported as ``<pkg>.self_s``.
SELF_TIME_PACKAGES = ("sim", "workloads", "guest", "vmm", "asman", "hardware")

#: ``experiments.cell_p98_ms`` is reported only for batches of at least this
#: many cells; smaller batches have no tail beyond the 98th percentile.
P98_MIN_CELLS = 200


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: [name, start, end, parent index, cell id, phase]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.cell: Optional[str] = None
        self.phase = "setup"
        self.counts: Dict[str, int] = defaultdict(int)
        self.times: Dict[str, float] = defaultdict(float)
        self.cell_counts: List[Dict[str, int]] = []
        self._testbeds: List[Testbed] = []

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def to_doc(self) -> dict:
        spans = [{"id": f"{self.pid}:{i}", "name": s[0], "start": s[1],
                  "end": s[2], "cell": s[4], "phase": s[5],
                  "parent": None if s[3] is None else f"{self.pid}:{s[3]}"}
                 for i, s in enumerate(self.spans)]
        return {"spans": spans, "counts": dict(self.counts),
                "times": dict(self.times), "cells": self.cell_counts}


# --------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------- #
def _span(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = [name, time.perf_counter(), None,
                rec.stack[-1] if rec.stack else None, rec.cell, rec.phase]
        rec.stack.append(len(rec.spans))
        rec.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            rec.stack.pop()
    return wrapper


def _count(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[f"{rec.phase}/{name}"] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_time(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            key = f"{rec.phase}/{name}"
            rec.counts[key] += 1
            rec.times[key] += time.perf_counter() - start
    return wrapper


def _testbed_init(rec: Recorder, fn):
    traced = _span(rec, "experiments.testbed.init", fn)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        traced(self, *args, **kwargs)
        rec._testbeds.append(self)
    return wrapper


def testbed_counts(tb: Testbed) -> Dict[str, int]:
    """Deterministic counts of one finished cell, read from its Testbed."""
    spins = [tb.spin_stats(name).summary() for name in tb.workloads]
    return {
        "events": tb.sim.events_executed,
        "peak_heap": tb.sim.peak_heap_entries,
        "spin_acquisitions": int(sum(s["recorded"] for s in spins)),
        "spins_over_2p20": int(sum(s["over_2^20"] for s in spins)),
        "vcrd_changes": sum(vm.vcrd_changes for vm in tb.vms.values()),
        "over_threshold": sum(m.over_threshold_count
                              for m in tb.monitors.values()),
        "faults_injected": (sum(tb.faults.stats().values())
                            if tb.faults is not None else 0),
    }


def _cell(rec: Recorder, fn):
    traced = _span(rec, "experiments.cell", fn)

    @functools.wraps(fn)
    def wrapper(spec):
        rec.cell = hashlib.sha1(repr(spec).encode("utf-8")).hexdigest()[:12]
        rec._testbeds = []
        try:
            return traced(spec)
        finally:
            rec.cell_counts.extend(testbed_counts(tb)
                                   for tb in rec._testbeds)
            rec._testbeds = []
            rec.cell = None
    return wrapper


def _patch_points(rec: Recorder):
    """(owner, attribute, wrapper factory) of every traced boundary."""
    span = lambda name: functools.partial(_span, rec, name)  # noqa: E731
    return [
        (Simulator, "run_until_stopped", span("sim.run_until_stopped")),
        (Simulator, "run_until_true", span("sim.run_until_true")),
        (Workload, "rounds_completed",
         functools.partial(_count, rec, "workloads.rounds_completed")),
        (Testbed, "__init__", functools.partial(_testbed_init, rec)),
        (Testbed, "add_domain0", span("experiments.testbed.add_domain0")),
        (Testbed, "add_vm", span("experiments.testbed.add_vm")),
        (Testbed, "start", span("experiments.testbed.start")),
        (supervisor, "execute_cell", functools.partial(_cell, rec)),
        (supervisor, "run_supervised", span("parallel.batch")),
        (cache_mod.ResultCache, "put", span("parallel.cache.put")),
        (cache_mod.ResultCache, "get", span("parallel.cache.get")),
        (cells_mod.CellSpec, "canonical",
         functools.partial(_count_time, rec, "parallel.canonical")),
        (os, "fsync", functools.partial(_count, rec, "parallel.fsync")),
        (conformance_driver, "generate", span("conformance.generate")),
        (conformance_driver, "judge", span("conformance.judge")),
    ]


def _install(points) -> list:
    """Wrap every boundary that exists; return what to restore."""
    saved = []
    for owner, attr, make in points:
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            print(f"trace: {getattr(owner, '__name__', owner)}.{attr} "
                  f"not found; its metrics read 0", file=sys.stderr)
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))
    return saved


@contextmanager
def _patched(points):
    saved = _install(points)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --------------------------------------------------------------------- #
# Traced and profiled passes
# --------------------------------------------------------------------- #
def traced(run):
    """Run ``run(phase_hook)`` with every boundary traced; return its value
    and the span document of the run."""
    rec = Recorder()
    with _patched(_patch_points(rec)):
        value = run(rec.set_phase)
    return value, rec.to_doc()


def profiled(run) -> Dict[str, float]:
    """Run ``run()`` under cProfile; return self-time seconds summed by
    ``repro`` package."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    stats = pstats.Stats(prof)
    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    totals: Dict[str, float] = defaultdict(float)
    for (filename, _line, _func), row in stats.stats.items():
        if filename.startswith(root):
            package = filename[len(root):].split(os.sep, 1)[0]
            totals[package] += row[2]  # tottime: the function's own time
    return dict(totals)


# --------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------- #
def _durations(spans, name: str, phase: Optional[str] = None) -> List[float]:
    return [s["end"] - s["start"] for s in spans
            if s["name"] == name and (phase is None or s["phase"] == phase)]


def _sum_of(table: Dict[str, float], name: str,
            phase: Optional[str] = None) -> float:
    """Total of ``name`` in a ``phase/name`` keyed table (all phases when
    ``phase`` is None)."""
    return sum(v for key, v in table.items()
               if key.endswith("/" + name)
               and (phase is None or key.startswith(phase + "/")))


def layer_metrics(doc, self_times: Dict[str, float], cache_bytes: int,
                  base, untraced_wall: float,
                  traced_pass) -> Dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``; ``base`` is an
    untraced pass and ``untraced_wall`` the untraced wall time the traced
    pass is compared with."""
    spans = doc["spans"]
    by_id = {s["id"]: s for s in spans}
    cells = doc["cells"]

    def total(key: str) -> int:
        return sum(c[key] for c in cells)

    testbed = sum(s["end"] - s["start"] for s in spans
                  if s["name"] in TESTBED_SPANS
                  and (s["parent"] is None
                       or by_id[s["parent"]]["name"] not in TESTBED_SPANS))
    cell_ms = sorted(1000.0 * d for d in
                     _durations(spans, "experiments.cell", "cold"))

    puts = _durations(spans, "parallel.cache.put", "cold")
    gets = _durations(spans, "parallel.cache.get", "warm")
    metrics = {
        "sim.loop_s": (sum(_durations(spans, "sim.run_until_stopped")), "s"),
        "sim.poll_s": (sum(_durations(spans, "sim.run_until_true")), "s"),
        "sim.events": (total("events"), "count"),
        "sim.peak_heap": (max((c["peak_heap"] for c in cells), default=0),
                          "count"),
        "workloads.rounds_completed.calls": (
            _sum_of(doc["counts"], "workloads.rounds_completed"), "count"),
        "guest.spin_acquisitions": (total("spin_acquisitions"), "count"),
        "guest.spins_over_2p20": (total("spins_over_2p20"), "count"),
        "vmm.vcrd_changes": (total("vcrd_changes"), "count"),
        "asman.over_threshold": (total("over_threshold"), "count"),
        "experiments.testbed_setup_s": (testbed, "s"),
        "experiments.cell_p50_ms": (statistics.median(cell_ms)
                                    if cell_ms else 0.0, "ms"),
        "experiments.cell_p98_ms": (
            statistics.quantiles(cell_ms, n=50)[-1]
            if len(cell_ms) >= P98_MIN_CELLS else 0.0, "ms"),
        "parallel.cache.put_s": (sum(puts), "s"),
        "parallel.cache.put.calls": (len(puts), "count"),
        "parallel.fsync.calls": (
            _sum_of(doc["counts"], "parallel.fsync", "cold"), "count"),
        "parallel.warm_s": (base.warm_s, "s"),
        "parallel.cache.get_s": (sum(gets), "s"),
        "parallel.canonical.calls": (
            _sum_of(doc["counts"], "parallel.canonical", "warm"), "count"),
        "parallel.canonical_s": (
            _sum_of(doc["times"], "parallel.canonical", "warm"), "s"),
        "parallel.cache.bytes": (cache_bytes, "bytes"),
        "conformance.generate_s": (
            sum(_durations(spans, "conformance.generate", "cold")), "s"),
        "conformance.judge_s": (
            sum(_durations(spans, "conformance.judge", "cold")), "s"),
        "faults.injected": (total("faults_injected"), "count"),
        "tracing.overhead_s": (traced_pass.wall_s - untraced_wall, "s"),
        "tracing.overhead_pct": (
            100.0 * (traced_pass.wall_s - untraced_wall) / untraced_wall,
            "%"),
    }
    for package in SELF_TIME_PACKAGES:
        metrics[f"{package}.self_s"] = (self_times.get(package, 0.0), "s")
    return metrics

"""The repository benchmark: one workload, its metrics and its checks.

Run from the repository root::

    python3 perfbench/run.py --workload lu_single_vm --seed 0 --seconds 40

Workloads: ``lu_single_vm``, ``multi_vm_mix``, ``conform_corpus`` (see
``perfbench/README.md``).  With ``--trace 0`` it prints every end-to-end
metric; with ``--trace 1`` it runs the traced run and prints every per-layer
metric.  Each metric is printed on its own line with its unit, and the last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every correctness check
passed, 1 when one failed or the session broke, 2 on bad arguments or a
missing source tree.

The workload runs in a fresh child process (``session.py``), so its set-up
and memory belong to it alone.  ``setup_s`` is the time from starting that
process to its ``READY`` line: interpreter start, imports, cell or corpus
generation and cache directory creation.  The set-up is repeated in
``SETUP_SAMPLES - 1`` extra processes that stop after ``READY``, and the
median is reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lu_single_vm", "multi_vm_mix", "conform_corpus")
SETUP_SAMPLES = 3
#: A session that runs longer than this is killed and the run fails.
SESSION_LIMIT_S = 170.0


class SessionError(RuntimeError):
    pass


def run_session(args, deadline: float, setup_only: bool = False):
    """Start one session; return (set-up seconds, its result or None)."""
    cmd = [sys.executable, str(HERE / "session.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    setup_s, last = None, None
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - started
            elif line.strip():
                last = line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or setup_s is None:
        raise SessionError(f"session exited with code {proc.returncode}")
    return setup_s, (None if setup_only else json.loads(last))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed (cell seeds derive from it)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + SESSION_LIMIT_S
    try:
        setups = [] if args.trace else [
            run_session(args, deadline, setup_only=True)[0]
            for _ in range(SETUP_SAMPLES - 1)]
        setup_s, result = run_session(args, deadline)
    except SessionError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(setup_s)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    for note in result["notes"]:
        print(f"# {note}")
    for failure in result["failures"][:20]:
        print(f"# FAILED {failure}")
    print(f"# operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

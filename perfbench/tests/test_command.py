"""The benchmark command prints every metric BENCHMARK.json names, and
refuses to run without the source tree.

These run the real command with ``--seconds 1`` (one pass per workload), so
they take about a minute in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, trace, cwd=ROOT):
    program, *rest = SPEC["command"]
    cmd = [sys.executable if program == "python3" else program, *rest,
           "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def assert_prints(out, metrics):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert any(line.startswith(f"{m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    return doc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_timed_run_prints_every_end_to_end_metric(workload):
    doc = assert_prints(run(workload, 0), SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    assert_prints(run("lu_single_vm", 1), SPEC["per_layer"])


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run("lu_single_vm", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""

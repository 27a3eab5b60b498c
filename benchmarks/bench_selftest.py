"""Self-test of the benchmark, at tiny size.

The file name keeps it out of the default pytest collection, and so out of
the test suite's time budget.  Run it with

    python3 -m pytest benchmarks/bench_selftest.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = [f"{layer}.calls" for layer in LAYERS] + ["generators.stack_bytes", "serialize.bytes_out"]


def run(workload, trace, script=HERE / "run.py", cwd=ROOT):
    return subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "5",
                           "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


def assert_metrics(out, specs):
    assert set(out["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert out["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = result(run(workload, 0))
    assert_metrics(out, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_counts_repeat_for_a_seed(workload):
    first, second = result(run(workload, 1)), result(run(workload, 1))
    assert_metrics(first, SPEC["per_layer"])
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    # each workload's traced pass runs only its own operations; cli_mix reaches every layer
    reached = [name for name in EXACT if first["metrics"][name]["value"] > 0]
    if workload == "cli_mix":
        assert reached == EXACT
    else:
        assert reached


def test_run_without_the_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, script=tmp_path / HERE.name / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

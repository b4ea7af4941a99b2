"""Smoke tests of the benchmark at tiny scale.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import layers
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 120


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=TIMEOUT_S)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == layers.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run("perfbench/run.py", "--workload", workload, "--seed", "3",
                "--seconds", "0.5", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        metrics = result["metrics"]
        assert all(metrics[f"{name}.errors"]["value"] == 0 for name in layers.SPAN_NAMES)
        assert metrics["trace.top_level_coverage"]["value"] > 0.5
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_summary_prints_every_workload():
    proc = _run("perfbench/summary.py", "--tiny", "--seconds", "0.2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = proc.stdout.strip().splitlines()[1:]
    assert [r.split()[0] for r in rows] == list(run.WORKLOAD_NAMES)
    assert all(r.split()[-2] == "0.0000" for r in rows)  # fail_frac


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("perfbench/run.py", "--workload", "frontier", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_follow_the_seed():
    assert inputs.frontier_problem(4, 8) == inputs.frontier_problem(4, 8)
    assert inputs.frontier_problem(4, 8) != inputs.frontier_problem(5, 8)
    n1, k1 = inputs.check_records(4, 100)
    n2, k2 = inputs.check_records(4, 100)
    assert n1.tolist() == n2.tolist() and k1.tolist() == k2.tolist()
    assert inputs.linear_model(4) != inputs.linear_model(5)

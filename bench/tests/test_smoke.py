"""Smoke test of the benchmark at a tiny budget.

Every workload, including those ``BENCHMARK.json`` leaves out, runs once
untraced and once traced, passes its checks, and reports exactly the
metrics ``BENCHMARK.json`` names, with the same units.  Run from the
repository root with ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402

sys.path.remove(str(ROOT / "bench"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_names_implemented_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_reports_the_named_metrics(workload):
    calls = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        record_path = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
        record = json.loads(record_path.read_text())
        calls[trace] = {(c["index"], c["streams"]): c for c in record["calls"]}
    # a call recomputed in another process, from the same config, has the same bits
    shared = calls[0].keys() & calls[1].keys()
    assert shared
    for key in shared:
        assert calls[0][key]["log_mean"] == calls[1][key]["log_mean"]
        assert calls[0][key]["std_error"] == calls[1][key]["std_error"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

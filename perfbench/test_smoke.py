"""Smoke test: every workload at tiny size emits every metric in
BENCHMARK.json, repeats its modeled numbers across processes, and the
bench refuses to run without the program source.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, seed=3, cwd=ROOT, bench=BENCH_DIR):
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    stamp = json.loads(next(l for l in lines if l.startswith("# stamp "))[8:])
    return result, stamp


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result, stamp = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for key in ("host_cpus", "python", "numpy", "seed", "N", "M"):
        assert key in stamp


@pytest.mark.parametrize("workload", WORKLOADS)
def test_modeled_numbers_repeat_across_processes(workload):
    first = result_of(run_bench(workload, 0, seed=5))
    second = result_of(run_bench(workload, 0, seed=5))
    assert first[1]["digest"] == second[1]["digest"]
    assert (
        first[0]["metrics"]["modeled_s"]["value"]
        == second[0]["metrics"]["modeled_s"]["value"]
    )


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path, bench=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

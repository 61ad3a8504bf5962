"""Self-test of the benchmark: every workload at reduced size, untraced and traced.

Run from the root of a checkout::

    python3 -m pytest -q eptas_bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(cwd / "eptas_bench" / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "smoke",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> dict:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload: str) -> None:
    metrics = _result(workload, 0)["metrics"]
    declared = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {name: metric["unit"] for name, metric in metrics.items()} == declared
    assert all(metric["value"] > 0 for metric in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload: str) -> None:
    metrics = {name: m["value"] for name, m in _result(workload, 1)["metrics"].items()}
    declared = {metric["name"] for metric in SPEC["per_layer"]}
    assert set(metrics) == declared
    assert metrics["trace.overhead"] > 0
    if workload == "pattern-cap":
        assert metrics["search.fallback_share"] == 1.0
        assert metrics["patterns.cap_hits"] == metrics["regime.cap"] >= 1
        assert metrics["solver.solves"] == 0
    else:
        assert metrics["search.fallback_share"] == 0.0
        assert metrics["solver.status.optimal"] == metrics["regime.optimal"] >= 1
        assert metrics["solver.highs_s"] > 0 and metrics["compile.nnz"] > 0


def test_same_seed_same_inputs_other_seed_relabels() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS as SPECS, build_instance

    spec = SPECS["milp-solve"].specs[0]

    def jobs(seed: int) -> list[tuple[int, float, int]]:
        return [(job.id, job.size, job.bag) for job in build_instance(spec, seed).jobs]

    assert jobs(1) == jobs(1)
    assert jobs(1) != jobs(2)
    assert sorted(j[1:] for j in jobs(1)) == sorted(j[1:] for j in jobs(2))


def test_fails_without_program_source(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "eptas_bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

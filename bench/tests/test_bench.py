"""Self-test of the benchmark: its output format, its traced mode, and that its
checks fail when a reference is wrong.

    python -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import worker  # noqa: E402
from references import References  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_lists_every_workload():
    assert NAMES == list(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_job_list_leaves_ten_jobs_beyond_p90(workload):
    jobs = WORKLOADS[workload].make_jobs(np.random.default_rng(6))
    assert len(jobs) >= 100
    for members in worker.job_classes(jobs):
        assert len({jobs[i]._replace(seed=0) for i in members}) == 1


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0")
    result = result_line(proc)
    jobs = WORKLOADS[workload].make_jobs(np.random.default_rng(3))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(worker.job_classes(jobs))
    assert f"jobs {len(jobs)} in " in proc.stdout
    lines = proc.stdout.splitlines()
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0
        assert any(line.startswith(metric["name"] + " ") and line.split()[2] == metric["unit"]
                   for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any(line.startswith("fail_ratio 0 fraction") for line in lines)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_per_layer_metrics(workload):
    result = result_line(bench("--workload", workload, "--seed", "4", "--seconds", "0.5",
                               "--trace", "1"))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert result["correct"] and metrics["trace.jobs"] >= 1
    sim_calls = sum(v for k, v in metrics.items() if k.startswith("sim.") and k.endswith(".calls"))
    rewrite_calls = sum(v for k, v in metrics.items()
                        if k.startswith("rewrite.") and k.endswith(".calls"))
    if workload == "build_count":
        assert sim_calls == 0 and rewrite_calls == 0
    elif workload == "rewrite_pairs":
        assert metrics["share.rewrite"] > 0.5 and sim_calls == 0
        assert metrics["rewrite.ccx_paired_ratio"] == 1.0
    else:
        assert metrics["share.sim"] > 0.5 and rewrite_calls == 0

    spans = json.loads((BENCH_DIR / "out" / f"trace-{workload}-seed4.json").read_text())["spans"]
    assert set(spans[0]) == {"name", "start_ns", "end_ns", "parent", "job"}
    assert all(s["parent"] is None if s["name"] == "job" else spans[s["parent"]]["name"] == "job"
               for s in spans)


class OffByOneT(References):
    def report(self, kind, n):
        return {k: v + 1 if k == "t_count" else v for k, v in super().report(kind, n).items()}


class WrongAdder(References):
    def add(self, a, b, n):
        return (a + b + 1) % (1 << n)


def fail_ratio(workload: str, refs: References, jobs: int | None = None) -> float:
    """fail_ratio of one round over the first ``jobs`` jobs checked against ``refs``."""
    order = np.random.default_rng(5)
    job_list = WORKLOADS[workload].make_jobs(order)[:jobs]
    result = worker.measure(WORKLOADS[workload], job_list, order, 0, refs)
    assert result["attempted"] == len(worker.job_classes(job_list))
    return result["failed"] / result["attempted"]


def test_correct_references_pass():
    assert fail_ratio("verify_basis", References()) == 0


@pytest.mark.parametrize("workload", ["build_count", "rewrite_pairs"])
def test_off_by_one_t_count_fails(workload):
    assert fail_ratio(workload, OffByOneT(), 4) > 0


@pytest.mark.parametrize("workload", ["verify_basis", "verify_dense"])
def test_wrong_adder_ideal_fails(workload):
    # The job list holds adders and non-adders: only the adder jobs may fail.
    rate = fail_ratio(workload, WrongAdder())
    assert 0 < rate < 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

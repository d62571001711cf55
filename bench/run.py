"""tclean benchmark: one workload, measured in its own single-threaded process.

    python3 bench/run.py --workload build_count --seed 1 --seconds 30 --trace 0

Workloads: build_count, rewrite_pairs, verify_basis, verify_dense (see
bench/README.md for why each exists).  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it reports the per-layer
metrics of a traced run and writes its spans to ``bench/out/``.  Every job's
output is checked against the benchmark's own references.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Set-up time is measured from outside: this launcher notes the clock, starts
the worker process, and the worker reports when its first timed job
starts.  It does so SETUP_REPS extra times with workers that stop there,
half before and half after the measured run, and reports the median.
Unlike the job latencies it is not scaled by the calibration task, whose
slowdowns process start-up does not follow (see bench/README.md).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

SETUP_REPS = 10
#: Every run must end well inside the three minutes a run is allowed.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_worker(args: list[str], timeout: float) -> tuple[dict, float]:
    """Start a worker, wait for it, return its JSON result and its start time."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1]), started


def setup_time(base: list[str], deadline: float) -> float:
    out, started = run_worker(base + ["--setup-only"], deadline - time.monotonic())
    return out["first_job_at"] - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tclean" / "__init__.py").is_file():
        print(f"bench: no tclean sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + DEADLINE_S
    try:
        reps = 0 if args.trace else SETUP_REPS // 2
        setups = [setup_time(base, deadline) for _ in range(reps)]
        result, started = run_worker(base, deadline - time.monotonic())
        setups.append(result["first_job_at"] - started)
        setups += [setup_time(base, deadline) for _ in range(reps)]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    env = dict(result["env"], commit=git_commit(), workload=args.workload, seed=args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    for problem in result["problems"]:
        print("FAIL " + problem.rstrip().replace("\n", "\n     "))
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
        print(f"trace spans written to {result['trace_file']}")
    else:
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "jobs_per_s": (result["jobs_per_s"], "1/s"),
            "job_p50_ms": (result["job_p50_ms"], "ms"),
            "job_p90_ms": (result["job_p90_ms"], "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        print(f"jobs {result['jobs']} in {result['classes']} classes; {result['rounds']} rounds, "
              f"{attempted} job runs in {result['wall_s']:.3f} s; "
              f"{result['beyond_p90']} jobs beyond job_p90_ms")
        print(f"setup_s samples {' '.join(f'{s:.4f}' for s in setups)}")
        print(f"calibration task median {result['calibration_ms']:.4f} ms; unscaled "
              f"p50 {result['raw_p50_ms']:.4f} ms, p90 {result['raw_p90_ms']:.4f} ms")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} fraction ({failed} of {attempted} job runs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

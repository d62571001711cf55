"""Run one workload in this single-threaded process as a closed loop.

One client: the next job starts only after the previous one has finished.
``run.py`` starts this script once per measurement; it prints one JSON line
with the time its first timed job started and, unless ``--setup-only``, the
loop's results.

The seed draws the run's job list once.  Jobs that do the same work (same
kind, size, command and expression) form a class; they differ at most in
their input values.  Each round runs one job of every class, the classes
in a fresh seeded order and each class's jobs in turn, until ``--seconds``
have passed.  A fixed calibration task that does not touch tclean runs
after every execution; a job's latency is the median over its class of
execution time divided by the calibration time around it, in reference
milliseconds.  The host's speed drifts by tens of percent within seconds
and over minutes, and moves the job and the calibration task alike.

With ``--trace 1`` every execution runs twice, untraced and traced in
alternating order, so the tracing overhead is measured on the same jobs,
and the spans are written to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Iterator

from references import References
from tracing import NullTracer, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

#: A run measures whole rounds until it has run ``--seconds``.  It stops
#: mid-round after LOOP_CAP_S, so that a run always ends within three minutes.
LOOP_CAP_S = 120.0

#: Size and seed of the calibration task (see :func:`calibrate`).
CAL_ITEMS = 700
CAL_SEED = 7
CAL_ROWS = 300
CAL_DOC = {"rows": [{"k": i, "v": str(i) * 3, "f": [i / 3, i * 2]} for i in range(CAL_ROWS)]}
#: Reference time of the calibration task: latencies are reported as if
#: it took this long.  It is its typical time between jobs on a 2-vCPU
#: x86-64 VM that shares its host with other tenants.
CAL_REF_MS = 2.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Layer functions the jobs call, as ``<layer>.<function>`` span names.
LAYER_CALLS = (
    "gadgets.build",
    "textfmt.to_text",
    "textfmt.from_text",
    "ir.validate",
    "resources.count",
    "resources.serialize_report",
    "rewrite.replace_pairs",
    "rewrite.lower_ccx",
    "sim.run",
    "sim.enumerate_branches",
    "sim.channel_equiv",
    "oracle.compile_oracle",
)
LAYERS = ("gadgets", "textfmt", "ir", "resources", "rewrite", "sim", "oracle")
#: Sizes and branch counts the jobs record, reported per traced job.
PER_JOB_COUNTERS = (
    ("gadgets.build.instr_out", "count/job"),
    ("textfmt.to_text.bytes_out", "B/job"),
    ("textfmt.from_text.instr_out", "count/job"),
    ("ir.validate.instr_in", "count/job"),
    ("resources.count.instr_in", "count/job"),
    ("rewrite.replace_pairs.instr_in", "count/job"),
    ("rewrite.replace_pairs.instr_out", "count/job"),
    ("rewrite.lower_ccx.instr_out", "count/job"),
    ("oracle.compile_oracle.instr_out", "count/job"),
    ("sim.run.branches", "count/job"),
    ("sim.enumerate_branches.branches", "count/job"),
    ("sim.channel_equiv.branches", "count/job"),
)


def import_tclean() -> None:
    """Import tclean from this checkout's ``src``, never from anywhere else."""
    if not (SRC_DIR / "tclean" / "__init__.py").is_file():
        raise SystemExit(f"bench: no tclean sources at {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import tclean
    if Path(tclean.__file__).resolve().parent != SRC_DIR / "tclean":
        raise SystemExit(f"bench: imported tclean from {tclean.__file__}, not {SRC_DIR}")


def attempt(workload, job, job_id: int, tracer, refs) -> list[str]:
    """Run one job; an exception is a failed job, never the end of the run."""
    with tracer.job(job_id):
        try:
            return workload.run_job(job, tracer, refs)
        except Exception:
            return [f"{job.kind} n={job.n}: " + traceback.format_exc(limit=-3)]


def job_classes(jobs) -> list[list[int]]:
    """Indices of the jobs, grouped by the work they do: jobs of one class
    differ at most in their input seed."""
    groups: dict = {}
    for i, job in enumerate(jobs):
        groups.setdefault(job._replace(seed=0), []).append(i)
    return list(groups.values())


def rounds_of(classes, order) -> Iterator[list[tuple[int, int]]]:
    """Endless rounds of ``(class, job)``: every class once, in a fresh seeded
    order, each class's jobs taking turns from round to round."""
    for r in itertools.count():
        yield [(int(c), classes[c][r % len(classes[c])])
               for c in order.permutation(len(classes))]


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python task that does not touch tclean.

    It builds, sorts and indexes small tuples, then writes and reads back a
    JSON document: allocation-heavy work, like tclean's passes.  Of the
    tasks tried, this pair slowed down most nearly as the jobs did.
    """
    t0 = time.perf_counter()
    rng = random.Random(CAL_SEED)
    rows = [(rng.random(), i, str(i)) for i in range(CAL_ITEMS)]
    rows.sort()
    index = {key: (r, i) for r, i, key in rows}
    doc = json.loads(json.dumps(CAL_DOC))
    if (sum(i for _, i in index.values()) != CAL_ITEMS * (CAL_ITEMS - 1) // 2
            or len(doc["rows"]) != CAL_ROWS):
        raise AssertionError("calibration task miscounted")
    return time.perf_counter() - t0


def measure(workload, jobs, order, seconds: float, refs) -> dict:
    """Untraced closed loop over whole rounds for ``seconds`` (at least one round).

    Every execution sits between two runs of :func:`calibrate`.  Its time
    divided by the mean of those two is its time in calibration units; a
    job's latency is the median of that over its class's executions, given
    in reference milliseconds (times CAL_REF_MS).  Throughput and latency
    percentiles are taken over the job list; every execution is checked.
    """
    null = NullTracer()
    classes = job_classes(jobs)
    ratios: list[list[float]] = [[] for _ in classes]
    raw_ms: list[list[float]] = [[] for _ in classes]
    cals = [calibrate()]
    problems: list[str] = []
    executions = failed = rounds = 0
    start = time.perf_counter()
    for batch in rounds_of(classes, order):
        for c, i in batch:
            if time.perf_counter() - start >= LOOP_CAP_S:
                break
            t0 = time.perf_counter()
            found = attempt(workload, jobs[i], i, null, refs)
            took = time.perf_counter() - t0
            cals.append(calibrate())
            ratios[c].append(took / ((cals[-2] + cals[-1]) / 2))
            raw_ms[c].append(took * 1e3)
            executions += 1
            if found:
                failed += 1
                problems.extend(found)
        else:
            rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= LOOP_CAP_S:
            break
    latencies = sorted(statistics.median(ratios[c]) * CAL_REF_MS
                       for c, members in enumerate(classes) for _ in members if ratios[c])
    raw = sorted(statistics.median(raw_ms[c]) for c, members in enumerate(classes)
                 for _ in members if raw_ms[c])
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "attempted": executions,
        "failed": failed,
        "problems": problems[:20],
        "jobs": len(latencies),
        "classes": len(classes),
        "rounds": rounds,
        "wall_s": elapsed,
        "calibration_ms": statistics.median(cals) * 1e3,
        "raw_p50_ms": statistics.median(raw),
        "raw_p90_ms": statistics.quantiles(raw, n=10, method="inclusive")[8],
        "jobs_per_s": len(latencies) / sum(latencies) * 1e3,
        "job_p50_ms": statistics.median(latencies),
        "job_p90_ms": p90,
        "beyond_p90": sum(ms > p90 for ms in latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(workload, jobs, order, seconds: float, refs, tracer) -> dict:
    """Whole rounds for ``seconds`` (at least one), each execution untraced and
    traced, alternating which runs first; per-layer metrics from the traced ones."""
    null = NullTracer()
    spent = {False: 0.0, True: 0.0}
    problems: list[str] = []
    failed = pairs = 0
    start = time.perf_counter()
    for batch in rounds_of(job_classes(jobs), order):
        for _, i in batch:
            for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
                t0 = time.perf_counter()
                found = attempt(workload, jobs[i], pairs, tracer if traced else null, refs)
                spent[traced] += time.perf_counter() - t0
                if found:
                    failed += 1
                    problems.extend(found)
            pairs += 1
        if time.perf_counter() - start >= seconds:
            break
    return {
        "attempted": 2 * pairs,
        "failed": failed,
        "problems": problems[:20],
        "metrics": layer_metrics(tracer, pairs, spent[False], spent[True]),
    }


def layer_metrics(tracer, jobs: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from the traced executions, as ``name: (value, unit)``."""
    calls = tracer.calls()
    self_ms = tracer.self_ms()
    per_job = 1 / max(jobs, 1)
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_CALLS:
        metrics[name + ".calls"] = (calls.get(name, 0) * per_job, "count/job")
        metrics[name + ".self_ms"] = (self_ms.get(name, 0.0) * per_job, "ms/job")
        metrics[name + ".errors"] = (tracer.counters.get(name + ".errors", 0) * per_job,
                                     "count/job")
    for name, unit in PER_JOB_COUNTERS:
        metrics[name] = (tracer.counters.get(name, 0) * per_job, unit)

    ccx_in = tracer.counters.get("rewrite.ccx_in", 0)
    metrics["rewrite.ccx_paired_ratio"] = (
        tracer.counters.get("rewrite.ccx_paired", 0) / ccx_in if ccx_in else 0.0, "fraction")
    peak = int(tracer.peaks.get("sim.peak_live_qubits", 0))
    metrics["sim.peak_live_qubits"] = (peak, "qubits")
    metrics["sim.peak_state_bytes"] = (16 * 2 ** peak if peak else 0, "B")
    sim_ms = sum(self_ms.get(name, 0.0) for name in LAYER_CALLS if name.startswith("sim."))
    branch_instr = tracer.counters.get("sim.branch_instr", 0)
    metrics["sim.us_per_branch_instr"] = (
        sim_ms * 1e3 / branch_instr if branch_instr else 0.0, "us")

    total_ms = sum(self_ms.values())
    for layer in LAYERS:
        ms = sum(v for k, v in self_ms.items() if k.startswith(layer + "."))
        metrics["share." + layer] = (ms / total_ms if total_ms else 0.0, "fraction")
    metrics["share.bench"] = (self_ms.get("job", 0.0) / total_ms if total_ms else 0.0,
                              "fraction")

    metrics["trace.jobs"] = (jobs, "count")
    metrics["trace.jobs_per_s_untraced"] = (jobs / untraced_s if untraced_s else 0.0, "1/s")
    metrics["trace.jobs_per_s_traced"] = (jobs / traced_s if traced_s else 0.0, "1/s")
    metrics["trace.overhead"] = (traced_s / untraced_s - 1 if untraced_s else 0.0, "fraction")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:  # before numpy is first imported, by tclean
        os.environ[var] = "1"
    import_tclean()
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    refs = References()
    order = np.random.default_rng(args.seed)
    jobs = workload.make_jobs(order)
    warmup = attempt(workload, workload.warmup, -1, NullTracer(), refs)
    if warmup:
        raise SystemExit("bench: warm-up job failed:\n" + "\n".join(warmup))
    first_job_at = time.monotonic()

    out: dict = {"first_job_at": first_job_at}
    if not args.setup_only:
        if args.trace:
            tracer = Tracer()
            out.update(measure_traced(workload, jobs, order, args.seconds, refs, tracer))
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_file)
            out["trace_file"] = str(trace_file.relative_to(BENCH_DIR.parent))
        else:
            out.update(measure(workload, jobs, order, args.seconds, refs))
        out["env"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

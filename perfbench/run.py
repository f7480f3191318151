"""dtikit benchmark: one workload, one seed, measured in fresh processes.

    python3 perfbench/run.py --workload train-small --seed 0 --seconds 15 --trace 0

With --trace 0 the last stdout line carries the end-to-end metrics
(setup_s, job_s, peak_rss_mb); with --trace 1 it carries the per-layer
metrics of a traced run, plus trace.overhead_s against an untraced run of
the same seed.  The line before it records the environment and the
workload's named figures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (the benchmark's own module, no dtikit import)

WORKLOADS = ("train-small", "paper-long", "split-large", "transfer-small")

# One BLAS thread: the ops are small, so extra threads add scheduling noise
# rather than speed, and every run sees the same machine however many cores
# it has.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# The whole command must finish within 180 s; the workers share this.
BUDGET_S = 170.0

# Span totals and self times may exceed the wall time by float rounding only.
SPAN_SLACK_S = 1e-6


class BenchmarkError(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _worker(args, trace: int, deadline: float) -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, _nproc()))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError("worker ran past the time budget") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no result")
    return json.loads(lines[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(trace: dict, overhead_s: float) -> dict:
    calls, errors, self_s = trace["calls"], trace["errors"], trace["self_s"]
    out = {}
    for module, qualname in spans.SPANNED:
        name = f"{module}.{qualname}"
        out[f"{name}.calls"] = _metric(calls.get(name, 0), "count")
        out[f"{name}.self_s"] = _metric(self_s.get(name, 0.0), "s")
        out[f"{name}.errors"] = _metric(errors.get(name, 0), "count")
    out["optim.ParameterStore.save_bytes.bytes"] = _metric(trace["checkpoint_bytes"], "B")
    for module, qualname in spans.COUNTED:
        name = f"{module}.{qualname}"
        out[f"{name}.calls"] = _metric(calls.get(name, 0), "count")
    pairs = trace["pairs_trained"]
    out["tensor.nodes_per_pair"] = _metric(
        trace["graph_nodes"] / pairs if pairs else 0.0, "nodes/pair"
    )
    interacts = calls.get("encoder.DTIEncoder.interact", 0)
    towers = calls.get("encoder.DTIEncoder.drug_levels", 0) + calls.get(
        "encoder.DTIEncoder.protein_levels", 0
    )
    out["train.tower_calls_per_pair"] = _metric(
        towers / interacts if interacts else 0.0, "calls/pair"
    )
    out["trace.overhead_s"] = _metric(overhead_s, "s")
    return {name: out[name] for name in spans.metric_names()}


def span_problems(trace: dict) -> list[str]:
    """Span accounting that cannot hold if the tracer is wrong."""
    wall = trace["wall_s"] + SPAN_SLACK_S
    problems = []
    if trace["root_s"] > wall:
        problems.append("outermost spans add up to more than the wall time")
    for name, total in trace["total_s"].items():
        if total > wall:
            problems.append(f"{name} spans more than the wall time")
    if any(s < -SPAN_SLACK_S for s in trace["self_s"].values()):
        problems.append("a self time is negative")
    if sum(trace["self_s"].values()) > wall:
        problems.append("self times add up to more than the wall time")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = monotonic() + BUDGET_S

    if not (ROOT / "src" / "dtikit" / "__init__.py").is_file():
        print(f"benchmark: no dtikit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        base = _worker(args, 0, deadline)
        runs = [base]
        problems = list(base["problems"])
        if args.trace:
            traced = _worker(args, 1, deadline)
            runs.append(traced)
            problems += traced["problems"] + span_problems(traced["trace"])
            metrics = _layer_metrics(traced["trace"], traced["job_s"] - base["job_s"])
        else:
            metrics = {
                "setup_s": _metric(base["setup_s"], "s"),
                "job_s": _metric(base["job_s"], "s"),
                "peak_rss_mb": _metric(base["peak_rss_mb"], "MB"),
            }
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # a figure whose every call failed is null rather than NaN, which JSON lacks
    report = {
        name: _metric(v if math.isfinite(v) else None, unit)
        for name, (v, unit) in base["report"].items()
    }
    report["setup_s"] = _metric(base["setup_s"], "s")
    report["peak_rss_mb"] = _metric(base["peak_rss_mb"], "MB")
    report["ops_failed_frac"] = _metric(failed / attempted, "ratio")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": base["rounds"],
        "env": dict(
            base["env"], git_sha=_git_sha(), blas_threads=min(BLAS_THREADS, _nproc()),
            nproc=_nproc(),
        ),
        "report": report,
        "problems": problems,
    }
    if args.trace:
        context["absent"] = traced["trace"]["absent"]
    print(json.dumps(context))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

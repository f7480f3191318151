"""One benchmark run inside a fresh process: set up, measure, check, report.

run.py starts this file with BLAS threads pinned in the environment and
`src` on the import path; it prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads
from dtikit.train import NumericFailure

ROOT = Path(__file__).resolve().parent.parent


def _blas() -> str:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


def measure(workload: str, seed: int, seconds: float, tracer) -> dict:
    make = workloads.WORKLOADS[workload]
    started = perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setup_s = []
        for i in range(workloads.SETUP_REPEATS[workload]):
            wl = None  # let the previous set-up go before building the next
            t0 = perf_counter()
            wl = make(seed, Path(tmp) / f"setup{i}")
            setup_s.append(perf_counter() - t0)

        # closed loop, one caller: rounds start until the measuring window
        # has passed, and the last one runs to completion
        times: dict[str, list[float]] = {step.name: [] for step in wl.steps()}
        jobs, problems = [], []
        attempted = failed = pairs_trained = 0
        begin = perf_counter()
        while True:
            job = 0.0
            broken = False
            for step in wl.steps():
                attempted += 1
                if broken:  # an earlier step of this round produced nothing to go on
                    failed += 1
                    continue
                t0 = perf_counter()
                try:
                    out = step.run()
                except NumericFailure as exc:
                    out, error = None, f"{step.name}: {exc}"
                else:
                    error = None
                elapsed = perf_counter() - t0
                job += elapsed
                if error is None:
                    try:
                        step.check(out)
                    except workloads.CheckFailed as exc:
                        error = f"{step.name}: {exc}"
                if error is not None:
                    problems.append(error)
                    failed += 1
                    broken = True
                    continue
                times[step.name].append(elapsed)
                pairs_trained += step.pairs_trained
            jobs.append(job)
            if perf_counter() - begin >= seconds:
                break
        wall = perf_counter() - started

    result = {
        "setup_s": statistics.median(setup_s),
        "job_s": statistics.median(jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": len(jobs),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "report": wl.report(times),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
        },
    }
    if tracer is not None:
        result["trace"] = dict(tracer.summary(), wall_s=wall, pairs_trained=pairs_trained)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    print(json.dumps(measure(args.workload, args.seed, args.seconds, tracer)))


if __name__ == "__main__":
    main()

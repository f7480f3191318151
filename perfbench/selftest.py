"""Self-tests of the benchmark's own accounting.

    python3 perfbench/selftest.py [workload ...]

Checks that BENCHMARK.json names exactly the metrics run.py prints, that
the tracer's self-time arithmetic and absent-hook reporting work, that the
split-large leak check catches a leak, and, for each workload given
(default: train-small and transfer-small), that two traced runs of one seed
keep span totals and self times within the wall time and repeat the derived
counts exactly.  Exits non-zero on the first failing group.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import monotonic

import run
import spans

DERIVED = ("tensor.nodes_per_pair", "train.tower_calls_per_pair")


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {msg}")


def test_benchmark_json_names() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        [m["name"] for m in bench["per_layer"]] == spans.metric_names(),
        "BENCHMARK.json per_layer differs from spans.metric_names()",
    )
    check(
        [m["name"] for m in bench["end_to_end"]] == ["setup_s", "job_s", "peak_rss_mb"],
        "BENCHMARK.json end_to_end differs from what run.py prints",
    )
    check(
        [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json workloads differ from run.WORKLOADS",
    )


def test_self_time_arithmetic() -> None:
    tracer = spans.Tracer()
    # a(0..10) encloses b(2..5) and a nested a(6..8)
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 2.0, 5.0, 0], ["a", 6.0, 8.0, 0]]
    got = tracer.summary()
    check(got["self_s"] == {"a": 7.0, "b": 3.0}, f"self times {got['self_s']}")
    check(got["total_s"] == {"a": 10.0, "b": 3.0}, f"totals {got['total_s']}")
    check(got["root_s"] == 10.0, f"root total {got['root_s']}")


def test_absent_hook_is_reported() -> None:
    from dtikit import splits

    tracer = spans.Tracer()
    tracer._patch([splits], "splits", "no_such_function", tracer._spanned)
    tracer._patch([splits], "no_such_module", "f", tracer._spanned)
    check(
        tracer.absent == ["splits.no_such_function", "no_such_module.f"],
        f"absent hooks {tracer.absent}",
    )


def test_leak_check_catches_a_leak() -> None:
    from dtikit.datasets import InteractionRecord
    from dtikit.splits import SOURCE, TARGET, TEST, TRAIN, SplitManifest

    import workloads

    recs = [
        InteractionRecord("D0", "P0", "CC", "MKV", 1.0),
        InteractionRecord("D0", "P1", "CC", "WWV", 0.0),
        InteractionRecord("D1", "P1", "CN", "WWV", 1.0),
    ]
    clean = SplitManifest(
        "cluster_cross_domain", 0,
        assignments={0: (SOURCE, TRAIN), 2: (TARGET, TEST)}, dropped=[1],
        drug_clusters={"D0": 0, "D1": 1}, protein_clusters={"P0": 0, "P1": 1},
    )
    check(workloads.leak_problems(clean, recs) == [], "clean manifest flagged")
    leaky = SplitManifest(
        clean.strategy, 0,
        assignments={0: (SOURCE, TRAIN), 1: (TARGET, TEST), 2: (TARGET, TEST)},
        drug_clusters=clean.drug_clusters, protein_clusters=clean.protein_clusters,
    )
    check(
        workloads.leak_problems(leaky, recs) == ["a drug cluster sits on both sides"],
        "shared drug cluster not flagged",
    )
    lost = SplitManifest(
        clean.strategy, 0, assignments={0: (SOURCE, TRAIN)},
        drug_clusters=clean.drug_clusters, protein_clusters=clean.protein_clusters,
    )
    check(
        workloads.leak_problems(lost, recs) == ["a record is neither assigned nor dropped"],
        "unassigned record not flagged",
    )


def traced_counts(workload: str, seed: int) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1.0)
    result = run._worker(args, 1, monotonic() + run.BUDGET_S)
    trace = result["trace"]
    wall = trace["wall_s"]
    check(result["failed"] == 0, f"{workload}: failed operations {result['problems']}")
    check(trace["root_s"] <= wall, f"{workload}: outermost spans exceed wall time")
    for name, total in trace["total_s"].items():
        check(total <= wall, f"{workload}: {name} total {total} > wall {wall}")
    for name, self_s in trace["self_s"].items():
        check(self_s >= 0.0, f"{workload}: {name} self time {self_s} < 0")
    check(sum(trace["self_s"].values()) <= wall, f"{workload}: self times exceed wall")
    metrics = run._layer_metrics(trace, 0.0)
    return {name: metrics[name]["value"] for name in DERIVED}


def test_traced_runs(workload: str) -> None:
    first = traced_counts(workload, 0)
    second = traced_counts(workload, 0)
    check(first == second, f"{workload}: derived counts differ: {first} vs {second}")
    if workload != "split-large":  # the only workload without autodiff
        check(first["tensor.nodes_per_pair"] > 0, f"{workload}: no autodiff nodes counted")
    print(f"ok  {workload}: {first}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=["train-small", "transfer-small"])
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    for test in (
        test_benchmark_json_names,
        test_self_time_arithmetic,
        test_absent_hook_is_reported,
        test_leak_check_catches_a_leak,
    ):
        test()
        print(f"ok  {test.__name__}")
    for workload in args.workloads:
        test_traced_runs(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())

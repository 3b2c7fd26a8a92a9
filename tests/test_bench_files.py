"""The committed performance trajectory: every ``BENCH_<n>.json`` at the
repository root must report the benchmark's gated end-to-end metrics.

A speedup counts only with its BENCH entry, so an entry that lost a
metric, a median or its claim would drop a point from the trajectory
without notice.  ``BENCHMARK.json`` is read, never written.
"""

import json
import numbers
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_files():
    names = [n for n in os.listdir(ROOT) if re.fullmatch(r"BENCH_\d+\.json", n)]
    return sorted(names, key=lambda n: int(n[6:-5]))


def load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as f:
        return json.load(f)


def test_the_trajectory_is_not_empty():
    assert bench_files()


@pytest.mark.parametrize("name", bench_files())
def test_bench_file_reports_every_gated_metric(name):
    benchmark = load("BENCHMARK.json")
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    workloads = {w["name"] for w in benchmark["workloads"]}
    bench = load(name)
    assert isinstance(bench.get("claim"), dict) and bench["claim"]
    assert isinstance(bench.get("meta"), dict) and bench["meta"]
    reported = bench.get("workloads")
    assert isinstance(reported, dict) and reported
    assert set(reported) <= workloads
    for workload, entry in reported.items():
        for metric in metrics:
            assert metric in entry["metrics"], f"{name}: {workload} lacks {metric}"
            for side in ("parent", "change"):
                median = entry["metrics"][metric][side]["median"]
                assert isinstance(median, numbers.Real) and not isinstance(median, bool), \
                    f"{name}: {workload} {metric} has no {side} median"

"""Smoke test of the benchmark runner: every workload at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
END_TO_END = {"setup_s": "s", "ops_per_kref": "1/kref", "op_p50_ref": "ref",
              "op_p90_ref": "ref", "ok_frac": "fraction"}
WALL_CLOCK = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "ref_ms": "ms"}
FUNCTIONS = ["identify.identify", "identify.hedge_expansion_witness", "formula.render",
             "formula.tabulate", "oracle.random_cbn", "oracle.joint_distribution",
             "oracle.interventional_distribution", "oracle.sample_dataset",
             "oracle.empirical_table", "cli.simulate", "sampler.sample_batch",
             "graphs.m_separated", "cluster.cdag_d_separated", "docalc.rules", "bench.check"]
PER_LAYER = {**{f"{f}.{kind}": unit for f in FUNCTIONS
                for kind, unit in (("calls", "1/op"), ("self_ms", "ms/op"))},
             "identify.identified": "1/op", "identify.hedges": "1/op",
             "identify.formula_chars": "1/op", "oracle.sample_dataset.rows": "1/op",
             "oracle.cap_errors": "1/op", "bench.tracing_overhead_pct": "%"}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def printed(lines):
    """Metric name -> (value, unit) from the human-readable table."""
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            table[parts[0]] = (float(parts[1]), parts[2])
    return table


@pytest.mark.parametrize("workload", ["identify", "simulate", "verify"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    table = printed(lines)
    for name, unit in {**expected, **({} if trace else WALL_CLOCK)}.items():
        assert table[name][1] == unit
    assert table["failed_frac"] == (0.0, "fraction")
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    for key in ("python", "numpy", "nproc", "git_commit", "seed", "src_cdag_lines"):
        assert key in meta


def test_traced_layers_see_their_workload():
    per_op = {name: m["value"]
              for name, m in json.loads(run("simulate", 1)[-1])["metrics"].items()}
    assert per_op["cli.simulate.calls"] == 1.0
    assert per_op["oracle.sample_dataset.rows"] > 0
    assert per_op["docalc.rules.calls"] == 0.0

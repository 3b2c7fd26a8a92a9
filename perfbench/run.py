"""Closed-loop benchmark of cdag on the identify, simulate and verify workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload identify --seed 0 --seconds 20 --trace 0

One client sends one operation at a time, in one process and one thread.
The inputs come from ``--seed`` alone; every answer is checked before it
is counted.  Op latencies are gated in units of ``ref``, the time of a
fixed piece of reference work timed between ops, because the speed of a
shared host drifts by tens of percent within minutes; the wall-clock
figures are printed beside them.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the operations untraced for half the time,
then runs the same ones traced, prints the per-layer metrics with the
tracing overhead, and writes the spans to ``perfbench/out/`` as JSON
lines.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--tiny`` shrinks the inputs
for the smoke test.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import gc
import importlib
import json
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

from layers import CHECK, OP, Tracer, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_OPS = 100
MAX_PASS_WALL_S = 75.0
REF_EVERY_S = 0.1
REF_WINDOW = 5


def load_library():
    """Import cdag from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    if not (src / "cdag" / "__init__.py").is_file():
        raise SystemExit(f"error: no cdag sources under {src}")
    sys.path.insert(0, str(src))
    cdag = importlib.import_module("cdag")
    importlib.import_module("cdag.cli")
    if Path(cdag.__file__).resolve().parent != (src / "cdag").resolve():
        raise SystemExit(f"error: cdag was imported from {cdag.__file__}")
    return cdag


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metadata(args, cdag):
    import numpy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "cdag").glob("*.py")))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "clients": 1,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "src_cdag_lines": src_lines,
            "cdag_version": getattr(cdag, "__version__", None)}


class Reference:
    """A fixed piece of work of the kinds the library does: pure-Python
    graph search over frozensets and dicts, then one vectorised draw of a
    binary column from a conditional table over ROWS rows, as the dataset
    sampler draws one.  The library is never called.  Its time, measured
    between ops, is the unit ``ref`` of the end-to-end metrics, so that a
    change in the shared host's speed scales the op latencies and the unit
    alike.  Trial runs tracked the op times of all three workloads better
    with both parts than with either part alone."""

    NODES = 300
    ROWS = 32768

    def __init__(self, numpy):
        rng = numpy.random.default_rng(0)
        table = rng.random((2, 2, 2))
        self.table = table / table.sum(axis=-1, keepdims=True)
        self.parents = rng.integers(2, size=(2, self.ROWS))
        self.np = numpy

    def __call__(self):
        n = self.NODES
        adj = {v: frozenset((v * 7 + k) % n for k in (1, 2, 3)) for v in range(n)}
        reached = 0
        for start in range(0, n, 10):
            seen, stack = {start}, [start]
            while stack:
                for u in adj[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            reached += len(seen)
        rows = self.table[self.parents[0], self.parents[1]]
        u = self.np.random.default_rng(1).random(self.ROWS)
        column = (rows.cumsum(axis=1) > u[:, None]).argmax(axis=1)
        return reached + int(self.np.bincount(column * 2 + self.parents[0], minlength=4)[0])

    def time(self):
        t0 = time.perf_counter()
        self()
        return t0, time.perf_counter() - t0


class Pass:
    """The record of one closed-loop pass: per op its start, latency and
    failure flag, and the reference samples taken between ops."""

    def __init__(self):
        self.starts, self.latencies, self.failures, self.refs = [], [], [], []

    def in_refs(self):
        """Each op's latency in units of the reference time around it: the
        median of the REF_WINDOW samples nearest to the op's start."""
        times = [t for t, _ in self.refs]
        window = min(REF_WINDOW, len(self.refs))
        units = []
        for start, latency in zip(self.starts, self.latencies):
            k = bisect.bisect(times, start) - window // 2
            k = max(0, min(k, len(self.refs) - window))
            units.append(latency / statistics.median(d for _, d in self.refs[k:k + window]))
        return units


def run_pass(workload, reference, seconds=None, count=None, tracer=None):
    """One closed-loop pass from op 0: ``count`` ops, or else until
    ``seconds`` of wall time have passed and at least MIN_OPS have run.
    The op clock stops while an answer is checked, so latencies cover
    library time only.  Every REF_EVERY_S, and once at the end, the
    reference work is timed between two ops."""
    record = Pass()
    wall0 = time.perf_counter()
    last_ref = -float("inf")

    def more():
        if count is not None:
            return len(record.latencies) < count
        now = time.perf_counter() - wall0
        if now > MAX_PASS_WALL_S:
            return False
        return now < seconds or len(record.latencies) < MIN_OPS

    while more():
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            record.refs.append(reference.time())
            last_ref = time.perf_counter()
        i, ok = len(record.latencies), True
        if tracer:
            tracer.op = i
            tracer.begin(OP)
        t0 = time.perf_counter()
        try:
            out = workload.op(i)
        except Exception:
            ok = False
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end()
            tracer.begin(CHECK)
            tracer.checking = True
        try:
            if ok:
                workload.check(i, out)
        except Exception:
            ok = False
            traceback.print_exc(file=sys.stderr)
        if tracer:
            tracer.checking = False
            tracer.end()
            tracer.op = None
        record.starts.append(t0)
        record.latencies.append(elapsed)
        record.failures.append(not ok)
    record.refs.append(reference.time())
    return record


def setup(cdag, make, seed, tiny):
    """Generate the inputs and warm up by running the first ops."""
    t0 = time.perf_counter()
    workload = make(cdag, seed, tiny)
    for i in range(workload.warmup):
        workload.check(i, workload.op(i))
    return workload, time.perf_counter() - t0


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 \
        else values[0]


def end_to_end(record, setup_s):
    """The gated metrics, op times in reference units."""
    units = record.in_refs()
    ops, failed = len(units), sum(record.failures)
    return {"setup_s": (setup_s, "s"),
            "ops_per_kref": (1e3 * ops / sum(units), "1/kref"),
            "op_p50_ref": (statistics.median(units), "ref"),
            "op_p90_ref": (p90(units), "ref"),
            "ok_frac": ((ops - failed) / ops, "fraction")}


def wall_clock(record):
    """The same op times in wall-clock units, printed but not gated."""
    ms = [t * 1e3 for t in record.latencies]
    return {"ops_per_s": (len(ms) / sum(record.latencies), "1/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_p90_ms": (p90(ms), "ms"),
            "ref_ms": (statistics.median(d * 1e3 for _, d in record.refs), "ms")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["identify", "simulate", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke test")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    cdag = load_library()
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS  # imports numpy, so after the timed import

    meta = metadata(args, cdag)
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)

    make = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload = None
        workload, took = setup(cdag, make, args.seed, args.tiny)
        setup_times.append(took)
    setup_s = import_s + statistics.median(setup_times)
    # Keep the input pool out of the collector's scans, so that its size
    # does not slow the library calls being timed.
    gc.collect()
    gc.freeze()

    import numpy
    reference = Reference(numpy)
    reference()

    printed = {}
    if args.trace:
        # Half the time untraced, then the same ops traced: the gap between
        # the two, in reference units, is the tracing overhead.
        plain = run_pass(workload, reference, seconds=args.seconds / 2)
        tracer = Tracer(cdag.StateSpaceCapError)
        tracer.install()
        try:
            traced = run_pass(workload, reference, count=len(plain.latencies), tracer=tracer)
        finally:
            tracer.uninstall()
        overhead = (sum(traced.in_refs()) / sum(plain.in_refs()) - 1.0) * 100.0
        metrics = per_layer_metrics(tracer, len(traced.latencies), overhead)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(trace_file, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
        print(f"spans {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
        failures = plain.failures + traced.failures
    else:
        record = run_pass(workload, reference, seconds=args.seconds)
        metrics = end_to_end(record, setup_s)
        printed = wall_clock(record)
        failures = record.failures
    attempted, failed = len(failures), sum(failures)

    print(f"{args.workload}: {attempted} ops attempted, {failed} failed")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} fraction")
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

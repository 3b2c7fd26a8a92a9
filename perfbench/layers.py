"""Layer tracing by interposition, with no edit to the library.

Each traced function is wrapped at every module attribute its callers
resolve it through: ``cdag.cli`` imports ``identify``, ``tabulate`` and the
oracle functions by name, so those names are wrapped in ``cdag.cli`` as
well as in their home modules and the package.  ``cdag/__init__.py``
rebinds ``cdag.identify`` to the function, so the module is reached
through ``sys.modules["cdag.identify"]``.  A site that does not exist is
skipped, but every layer needs at least one.

Spans (name, start, end, parent span, op id) stay in memory until the
run ends.  Calls made while the benchmark checks an answer pass through
unrecorded, so checking time is counted once, as ``bench.check``.
"""

import functools
import sys
import time
from collections import Counter

# layer function -> the (module, attribute path) sites that callers use
SITES = {
    "identify.identify": [("cdag.identify", "identify"), ("cdag", "identify"),
                          ("cdag.cli", "identify")],
    "identify.hedge_expansion_witness": [("cdag.identify", "hedge_expansion_witness"),
                                         ("cdag", "hedge_expansion_witness")],
    "formula.render": [("cdag.formula", "render"), ("cdag", "render"), ("cdag.cli", "render")],
    "formula.tabulate": [("cdag.formula", "tabulate"), ("cdag.cli", "tabulate")],
    "oracle.random_cbn": [("cdag.oracle", "random_cbn"), ("cdag", "random_cbn"),
                          ("cdag.cli", "random_cbn")],
    "oracle.joint_distribution": [("cdag.oracle", "joint_distribution"),
                                  ("cdag", "joint_distribution"),
                                  ("cdag.cli", "joint_distribution")],
    "oracle.interventional_distribution": [("cdag.oracle", "interventional_distribution"),
                                           ("cdag", "interventional_distribution")],
    "oracle.sample_dataset": [("cdag.oracle", "sample_dataset"), ("cdag", "sample_dataset"),
                              ("cdag.cli", "sample_dataset")],
    "oracle.empirical_table": [("cdag.oracle", "empirical_table"),
                               ("cdag.cli", "empirical_table")],
    "cli.simulate": [("cdag.cli", "_cmd_simulate")],
    "sampler.sample_batch": [("cdag.sampler", "sample_batch"), ("cdag", "sample_batch"),
                             ("cdag.cli", "sample_batch")],
    "graphs.m_separated": [("cdag.graphs", "Admg.m_separated")],
    "cluster.cdag_d_separated": [("cdag.cluster", "cdag_d_separated"),
                                 ("cdag", "cdag_d_separated"),
                                 ("cdag.docalc", "cdag_d_separated"),
                                 ("cdag.cli", "cdag_d_separated")],
    "docalc.rules": [(module, rule) for module in ("cdag.docalc", "cdag", "cdag.cli")
                     for rule in ("rule1", "rule2", "rule3")],
}

# counts taken from a layer's return value: layer -> {count: f(result)}
COUNTS = {
    "identify.identify": {"identify.identified": lambda r: int(r.identifiable),
                          "identify.hedges": lambda r: int(not r.identifiable)},
    "formula.render": {"identify.formula_chars": len},
    "oracle.sample_dataset": {"oracle.sample_dataset.rows": len},
}
COUNT_NAMES = [name for counts in COUNTS.values() for name in counts] + ["oracle.cap_errors"]
CHECK = "bench.check"
OP = "bench.op"


class Tracer:
    """Spans and counts of one traced run; ``install`` wraps the layers."""

    def __init__(self, cap_error):
        self.cap_error = cap_error
        self.spans = []          # [name, start, end, parent, op]
        self.stack = []
        self.counts = Counter()
        self.op = None
        self.installed = []
        self.checking = False

    def begin(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        counts = COUNTS.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.checking or self.op is None:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except self.cap_error as err:
                if not getattr(err, "_bench_counted", False):
                    err._bench_counted = True
                    self.counts["oracle.cap_errors"] += 1
                raise
            finally:
                self.end()
            for count, of in counts.items():
                self.counts[count] += of(result)
            return result

        return traced

    def install(self):
        for name, sites in SITES.items():
            found = 0
            for module, path in sites:
                owner = sys.modules.get(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, attr):
                    continue
                original = getattr(owner, attr)
                self.installed.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                found += 1
            if not found:
                self.uninstall()
                raise RuntimeError(f"no call site found for layer {name}")

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    def self_times(self):
        """Per span name: (calls, self seconds), where self time is the span
        minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child)
        return out

    def records(self):
        t0 = self.spans[0][1] if self.spans else 0.0
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            yield {"id": index, "name": name, "start": start - t0, "end": end - t0,
                   "parent": parent, "op": op}


def per_layer_metrics(tracer, ops, overhead_pct):
    """The per-layer metrics of a traced phase of ``ops`` operations, as
    rates per operation."""
    times = tracer.self_times()
    metrics = {}
    for name in list(SITES) + [CHECK]:
        calls, self_s = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / ops, "1/op")
        metrics[f"{name}.self_ms"] = (self_s * 1e3 / ops, "ms/op")
    for name in COUNT_NAMES:
        metrics[name] = (tracer.counts[name] / ops, "1/op")
    metrics["bench.tracing_overhead_pct"] = (overhead_pct, "%")
    return metrics

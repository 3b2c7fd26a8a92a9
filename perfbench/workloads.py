"""Inputs, operations and correctness checks of the three cdag workloads.

Each workload builds a pool of inputs from the workload seed alone, then
serves one operation per index: ``op(i)`` makes only library calls, and
``check(i, out)`` verifies its output and raises :class:`CheckFailed`
when it is wrong.  Library functions are always looked up through the
``cdag`` package or its modules at call time, so the layer tracer in
``run.py`` sees every call it wraps.
"""

import contextlib
import io
import itertools
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-9


class CheckFailed(AssertionError):
    """An operation returned a wrong answer."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _derive(seed, *key):
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key)
               .generate_state(1, np.uint32)[0])


def free_names(cdag, e):
    """Free variables of a formula, walked over the public node classes."""
    if isinstance(e, cdag.CondProb):
        return set(e.target) | set(e.given)
    if isinstance(e, cdag.Product):
        return set().union(*(free_names(cdag, f) for f in e.factors))
    if isinstance(e, cdag.Sum):
        return free_names(cdag, e.body) - set(e.bound)
    if isinstance(e, cdag.Fraction):
        return free_names(cdag, e.numerator) | free_names(cdag, e.denominator)
    return set()


def _at(variables, arr, assignment):
    return float(arr[tuple(assignment[v] for v in variables)]) if variables else float(arr)


def _states(names):
    for values in itertools.product((0, 1), repeat=len(names)):
        yield dict(zip(names, values))


def effect_gap(variables, arr, x_vars, y_vars, posts):
    """Largest gap between a tabulated effect formula and the exact
    interventional distributions ``posts``, one per binary state of x."""
    worst = 0.0
    for x_assign, post in zip(_states(x_vars), posts):
        for y_assign in _states(y_vars):
            got = _at(variables, arr, x_assign | y_assign)
            worst = max(worst, abs(got - post.prob_of(y_assign)))
    return worst


# ---------------------------------------------------------------------------
# identify: a size sweep of singleton-cluster graphs
# ---------------------------------------------------------------------------

class Identify:
    """One op: ``identify(c, [x], [y])`` and ``render`` of the formula.

    The sweep holds sparse graphs with n in {10, 20, 40, 80, 160} and dense
    graphs with n in {20, 40, 60}, taken in turn.  Y is the last node of a
    random topological order, so it is a sink, and x is a random other
    node.  In a sparse graph a random half of the other nodes are
    ancestors of Y; in a dense graph all of them are.  Bidirected edges
    join random blocks of ``BLOCK`` nodes into paths, which makes the
    districts large enough that the biggest formulas pass 100k characters.
    """

    SWEEP = [("sparse", n) for n in (10, 20, 40, 80, 160)] + \
            [("dense", n) for n in (20, 40, 60)]
    TINY_SWEEP = [("sparse", 6), ("sparse", 10), ("dense", 8)]
    # More graphs than a 30 s run reaches, so that no run meets a graph twice:
    # most of the spread between seeds comes from which graphs a run sees.
    PER_CONFIG = 128
    BLOCK = {"sparse": 10, "dense": 12}
    ORACLE_MAX_NODES = 10
    warmup = 3

    def __init__(self, cdag, seed, tiny=False):
        self.cdag = cdag
        self.seed = seed
        sweep = self.TINY_SWEEP if tiny else self.SWEEP
        self.pool = []
        for k in range(2 if tiny else self.PER_CONFIG):
            for kind, n in sweep:
                self.pool.append(self._graph(_rng(seed, len(self.pool)), kind, n))
        self.verified = {}

    def _graph(self, rng, kind, n):
        order = [f"V{i}" for i in rng.permutation(n)]
        y = order[-1]
        if kind == "dense":
            ancestors = set(order)
        else:
            ancestors = set(rng.choice(order[:-1], size=(n - 1) // 2, replace=False)) | {y}
        # Each node takes one parent among the earlier nodes of its own
        # group, so nodes outside ``ancestors`` never reach Y; every
        # childless ancestor then points at a later ancestor.
        directed = set()
        for i, v in enumerate(order[1:], start=1):
            group = [u for u in order[:i] if (u in ancestors) == (v in ancestors)]
            if group:
                directed.add((group[int(rng.integers(len(group)))], v))
        tails = {t for t, _ in directed}
        for i, v in enumerate(order[:-1]):
            if v in ancestors and v not in tails:
                later = [u for u in order[i + 1:] if u in ancestors]
                directed.add((v, later[int(rng.integers(len(later)))]))
        shuffled = [order[i] for i in rng.permutation(n)]
        block = self.BLOCK[kind]
        bidirected = [(a, b) for s in range(0, n, block)
                      for a, b in zip(shuffled[s:s + block], shuffled[s + 1:s + block])]
        x = order[int(rng.integers(n - 1))]
        graph = self.cdag.Admg(order, sorted(directed), bidirected)
        return self.cdag.ClusterDag(graph), x, y

    def op(self, i):
        c, x, y = self.pool[i % len(self.pool)]
        result = self.cdag.identify(c, [x], [y])
        text = self.cdag.render(result.expr) if result.identifiable else None
        return result, text

    def check(self, i, out):
        cdag = self.cdag
        index = i % len(self.pool)
        c, x, y = self.pool[index]
        result, text = out
        if index in self.verified:
            expect(self.verified[index] == hash(text), "identify is not deterministic")
            return
        if result.identifiable:
            expr = result.expr
            expect(free_names(cdag, expr) <= {x, y},
                   f"free variables {sorted(free_names(cdag, expr))} outside x, y")
            expect(cdag.parse_formula_json(cdag.render(expr, "json")) == expr,
                   "formula does not round-trip through JSON")
            if len(c.graph.nodes) <= self.ORACLE_MAX_NODES:
                model = cdag.random_cbn(c.graph, {v: 2 for v in c.graph.nodes},
                                        seed=_derive(self.seed, index))
                variables, arr = cdag.formula.tabulate(expr, cdag.joint_distribution(model))
                posts = [cdag.interventional_distribution(model, x_assign)
                         for x_assign in _states([x])]
                gap = effect_gap(variables, arr, [x], [y], posts)
                expect(gap < TOL, f"formula misses the oracle by {gap}")
        else:
            hedge = result.hedge
            expect(hedge.intersected_x == {x}, "hedge does not meet x")
            expect(hedge.root_set and hedge.root_set <= set(hedge.forest_fprime.nodes),
                   "hedge roots are not in F'")
        self.verified[index] = hash(text)


# ---------------------------------------------------------------------------
# simulate: the criterion-10 command line, one diagram per op
# ---------------------------------------------------------------------------

class Simulate:
    """One op: ``cdag.cli.main(["simulate", "graphs/backdoor.cdag", ...])``
    with one diagram and one dataset per sample size, stdout captured and a
    fresh seed per op.

    Internal bidirected edges are drawn with density 0.1, not the default
    0.3.  At 0.3 a Z cluster of 10 gets up to about 28 shared noise terms,
    and in trial runs about one diagram in a thousand exceeded the exact
    oracle's state cap, which fails the op."""

    GRAPH = ROOT / "graphs" / "backdoor.cdag"
    POOL = 1024
    warmup = 1

    def __init__(self, cdag, seed, tiny=False):
        self.cdag = cdag
        sizes, ns = ("Z=3", "500,1000") if tiny else ("Z=10", "5000,10000,50000")
        self.pool = [["simulate", str(self.GRAPH), "-x", "X", "-y", "Y", "--sizes", sizes,
                      "--n", ns, "--bidirected-density", "0.1", "--diagrams", "1",
                      "--datasets", "1", "--seed", str(_derive(seed, i))]
                     for i in range(self.POOL)]
        self.ns = ns.split(",")

    def op(self, i):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cdag.cli.main(self.pool[i % len(self.pool)])
        return code, out.getvalue()

    def check(self, i, out):
        code, text = out
        expect(code == 0, f"simulate exited with {code}")
        rows = {}
        for line in text.strip().splitlines()[1:]:
            metric, n, value, _ = line.split(",")
            rows[(metric, n)] = float(value)
        expect(rows.get(("identifiable_fraction", "")) == 1.0,
               "not every diagram is identifiable")
        expect(rows.get(("effect_diff_exact", ""), 1.0) < TOL,
               "cluster and variable formulas disagree on the exact table")
        for n in self.ns:
            expect(0.0 <= rows.get(("effect_diff", n), -1.0) < 1.0,
                   f"no sampled effect gap at n={n}")


# ---------------------------------------------------------------------------
# verify: one cluster query checked end to end
# ---------------------------------------------------------------------------

class Verify:
    """One op checks one query on a random cluster DAG (4-7 clusters of
    1-3 binary variables, at most 12 variables): identification, a sampled
    compatible expansion, the exact model and its interventional
    distributions, or the hedge witness, one d-separation query and the
    three do-calculus rules."""

    MAX_VARIABLES = 12
    # The exact oracle keeps one axis per variable and per shared noise
    # term, so 12 variables and at most 10 bidirected edges stay within
    # its default state cap of 2**22 entries.
    MAX_BIDIRECTED = 10
    P_DIRECTED, P_BIDIRECTED = 0.5, 0.25
    INTERNAL = (0.5, 0.2)      # directed and bidirected edge densities
    CROSS = 0.25
    # More queries than a 30 s run reaches, as in Identify.
    POOL = 4096
    warmup = 3

    def __init__(self, cdag, seed, tiny=False):
        self.cdag = cdag
        self.pool = [self._query(_rng(seed, i)) for i in range(16 if tiny else self.POOL)]

    def _query(self, rng):
        cdag = self.cdag
        while True:
            k = int(rng.integers(4, 8))
            names = [f"C{j}" for j in range(1, k + 1)]
            order = list(rng.permutation(names))
            directed = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]
                        if rng.random() < self.P_DIRECTED]
            bidirected = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]
                          if rng.random() < self.P_BIDIRECTED]
            c = cdag.ClusterDag(cdag.Admg(names, directed, bidirected))
            sizes = {name: int(rng.integers(1, 4)) for name in names}
            while sum(sizes.values()) > self.MAX_VARIABLES:
                sizes[max(sizes, key=sizes.get)] -= 1
            spec = cdag.ExpansionSpec(sizes=sizes,
                                      internal=cdag.InternalPolicy("random", *self.INTERNAL),
                                      cross=cdag.CrossPolicy("random", self.CROSS),
                                      seed=int(rng.integers(2 ** 32)))
            [(graph, _)] = cdag.sample_batch(c, spec, 1)
            if len(graph.bidirected) <= self.MAX_BIDIRECTED:
                break
        x, y, z, w = (frozenset([str(v)]) for v in rng.permutation(names)[:4])
        w = w if rng.random() < 0.5 else frozenset()
        a, b, s = (frozenset(map(str, part))
                   for part in np.split(rng.permutation(names), [1, 2]))
        s = frozenset(list(s)[:int(rng.integers(0, 3))])
        return dict(c=c, sizes=sizes, x=x, y=y, spec=spec, sep=(a, b, s),
                    model_seed=int(rng.integers(2 ** 32)),
                    rules=cdag.DoQuery(x=x, y=y, z=z, w=w))

    def op(self, i):
        cdag = self.cdag
        q = self.pool[i % len(self.pool)]
        c, x, y = q["c"], q["x"], q["y"]
        out = {"result": cdag.identify(c, x, y)}
        [(graph, partition)] = cdag.sample_batch(c, q["spec"], 1)
        out["expansion"] = graph, partition
        if out["result"].identifiable:
            model = cdag.random_cbn(graph, {v: 2 for v in graph.nodes}, seed=q["model_seed"])
            out["table"] = cdag.formula.tabulate(out["result"].expr,
                                                 cdag.joint_distribution(model),
                                                 partition.to_cluster_map())
            x_vars = sorted(partition.variables_of(x))
            out["post"] = [cdag.interventional_distribution(model, x_assign)
                           for x_assign in _states(x_vars)]
        else:
            witness = cdag.hedge_expansion_witness(c, out["result"].hedge, q["sizes"])
            # witness members are named <cluster> or <cluster>_<k>
            wx, wy = (sorted(v for v in witness.nodes if v.split("_")[0] in s) for s in (x, y))
            out["witness"] = cdag.identify(cdag.singleton_cdag(witness), wx, wy)
        a, b, s = q["sep"]
        out["sep"] = cdag.cdag_d_separated(c, a, b, s)
        out["var_sep"] = graph.m_separated(*(partition.variables_of(v) for v in (a, b, s)))
        rq = q["rules"]
        out["rules"] = [rule(c, rq) for rule in (cdag.rule1, cdag.rule2, cdag.rule3)]
        return out

    def check(self, i, out):
        q = self.pool[i % len(self.pool)]
        graph, partition = out["expansion"]
        expect(self.cdag.is_compatible(graph, q["c"], partition),
               "expansion is not compatible with the cluster DAG")
        if out["result"].identifiable:
            gap = effect_gap(*out["table"], sorted(partition.variables_of(q["x"])),
                             sorted(partition.variables_of(q["y"])), out["post"])
            expect(gap < TOL, f"identified formula misses the oracle by {gap}")
        else:
            expect(not out["witness"].identifiable, "hedge witness became identifiable")
        expect(out["var_sep"] or not out["sep"],
               "cluster separation does not hold in the expansion")
        self._check_rules(q, out["rules"], graph, partition)

    def _check_rules(self, q, verdicts, graph, partition):
        # An applicable rule's separation must also hold in the expansion
        # cut the same way, since the cut expansion is compatible with the
        # cut cluster DAG.
        rq = q["rules"]
        cut_x = q["c"].graph.mutilate(cut_into=rq.x)
        w_anc = cut_x.ancestral_closure(rq.w) if rq.w else frozenset()
        cuts = {"R1": (rq.x, ()), "R2": (rq.x, rq.z),
                "R3": (rq.x | {v for v in rq.z if v not in w_anc}, ())}
        for verdict in verdicts:
            expect(isinstance(verdict.applies, bool), "verdict is not a bool")
            if not verdict.applies:
                continue
            into, out_of = cuts[verdict.rule]
            g = graph.mutilate(cut_into=partition.variables_of(into),
                               cut_out_of=partition.variables_of(out_of))
            expect(g.m_separated(partition.variables_of(rq.y), partition.variables_of(rq.z),
                                 partition.variables_of(rq.x | rq.w)),
                   f"{verdict.rule} applies but fails on the expansion")


WORKLOADS = {"identify": Identify, "simulate": Simulate, "verify": Verify}

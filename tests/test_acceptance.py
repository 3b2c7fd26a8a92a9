"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
fixed here; the random harnesses use hard-coded seeds so the whole suite
is reproducible.
"""

import functools
import hashlib
import itertools

import numpy as np
import pytest

from cdag import (Admg, ClusterDag, CondProb, DoQuery, Identified, NonIdentified,
                  Product, Sum, hedge_expansion_witness, identify, joint_distribution,
                  random_cbn, rule1, rule2, rule3, sample_batch, singleton_cdag)
from cdag.cli import main as cli_main
from cdag.cluster import Partition
from cdag.sampler import CrossPolicy, ExpansionSpec, InternalPolicy, expand

from oracles import (MacroScm, _linked, cluster_factorization_check, counterfactual_prob,
                     equivalent_on, m_separated_brute_force, reference_random_cbn)
from randutil import (licensed_equality_deviation, oracle_deviation, random_admg, random_cdag,
                      random_disjoint_sets, random_query, rng_for)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {number:2d}: {description}", flush=True)
                raise
            print(f"PASS  criterion {number:2d}: {description}", flush=True)
        return wrapper
    return decorate


def binary(graph):
    return {v: 2 for v in graph.nodes}


GOLDEN_CASES = [
    ("front-door adjustment",
     ClusterDag(Admg(["S", "X", "Y", "Z"],
                     [("Z", "X"), ("Z", "Y"), ("X", "S"), ("S", "Y")],
                     [("X", "Z"), ("Y", "Z")])),
     ["X"], ["Y"],
     Sum(["S"], Product([
         CondProb(["S"], ["X"]),
         Sum(["X'"], Product([CondProb(["Y"], ["X'", "S"]), CondProb(["X'"])]))]))),
    ("split covariates backdoor",
     ClusterDag(Admg(["X", "Y", "Z1", "Z2"],
                     [("X", "Y"), ("Z1", "Y"), ("Z2", "X")],
                     [("Z1", "X"), ("Z2", "Y")])),
     ["X"], ["Y"],
     Sum(["Z1", "Z2"], Product([CondProb(["Y"], ["X", "Z1", "Z2"]),
                                CondProb(["Z1", "Z2"])]))),
    ("split treatments backdoor",
     ClusterDag(Admg(["X1", "X2", "Y", "Z"],
                     [("X1", "X2"), ("X2", "Y"), ("Z", "X2"), ("Z", "Y")],
                     [("Z", "Y"), ("Z", "X1")])),
     ["X1", "X2"], ["Y"],
     Sum(["Z", "X1'"], Product([CondProb(["Y"], ["X1'", "X2", "Z"]),
                                CondProb(["X1'", "Z"])]))),
    ("joint sequential intervention",
     singleton_cdag(Admg(["X1", "X2", "Y1", "Y2"],
                         [("X1", "X2"), ("X2", "Y1"), ("X2", "Y2"),
                          ("X1", "Y1"), ("Y1", "Y2")],
                         [("X1", "Y2")])),
     ["X1", "X2"], ["Y1", "Y2"],
     Product([CondProb(["Y1"], ["X1", "X2"]),
              Sum(["X1'"], Product([CondProb(["Y2"], ["X1'", "X2", "Y1"]),
                                    CondProb(["X1'"])]))])),
    ("covariate-cluster backdoor",
     ClusterDag(Admg(["X", "Y", "Z"], [("Z", "X"), ("Z", "Y"), ("X", "Y")])),
     ["X"], ["Y"],
     Sum(["Z"], Product([CondProb(["Y"], ["X", "Z"]), CondProb(["Z"])]))),
]


@criterion(1, "golden identification formulas match their closed forms "
              "on 20 compatible tables at 1e-9")
def test_criterion_01_golden_formulas():
    for name, cdag, x, y, closed_form in GOLDEN_CASES:
        result = identify(cdag, x, y)
        assert isinstance(result, Identified), name
        for seed in range(20):
            table = joint_distribution(random_cbn(cdag.graph, binary(cdag.graph),
                                                  seed=seed))
            assert equivalent_on(result.expr, closed_form, table, tol=1e-9), \
                (name, seed)


NON_ID_CASES = [
    ("confounded covariate cluster",
     ClusterDag(Admg(["X", "Y", "Z"], [("Z", "Y"), ("X", "Y")],
                     [("X", "Z"), ("Y", "Z")])), ["X"], ["Y"]),
    ("merged covariates",
     ClusterDag(Admg(["X", "Y", "Z"], [("X", "Y"), ("Z", "X"), ("Z", "Y")],
                     [("Z", "X"), ("Z", "Y")])), ["X"], ["Y"]),
    ("bow", ClusterDag(Admg(["X", "Y"], [("X", "Y")], [("X", "Y")])),
     ["X"], ["Y"]),
    ("merged mediator",
     ClusterDag(Admg(["D", "W", "X", "Y", "Z"],
                     [("D", "X"), ("X", "W"), ("W", "Y"), ("W", "Z"), ("Z", "Y")],
                     [("W", "X"), ("Y", "Z"), ("D", "Z")])), ["X"], ["Y"]),
]


def check_hedge(c, h, x, y):
    x = frozenset(x)
    for forest in (h.forest_f, h.forest_fprime):
        child_count = {}
        for tail, _ in forest.directed:
            child_count[tail] = child_count.get(tail, 0) + 1
        assert all(n <= 1 for n in child_count.values())
        roots = frozenset(v for v in forest.nodes if v not in child_count)
        assert roots == h.root_set
        assert _linked(set(forest.nodes), forest.bidirected)
    assert set(h.forest_fprime.nodes) <= set(h.forest_f.nodes)
    assert h.forest_fprime.directed <= h.forest_f.directed
    assert h.forest_fprime.bidirected <= h.forest_f.bidirected
    assert not set(h.forest_fprime.nodes) & x
    assert set(h.forest_f.nodes) & x == h.intersected_x != frozenset()
    assert h.root_set <= c.graph.mutilate(cut_into=x).ancestral_closure(y)


@criterion(2, "non-identifiable benchmarks return validated hedges")
def test_criterion_02_non_identifiability():
    for name, cdag, x, y in NON_ID_CASES:
        result = identify(cdag, x, y)
        assert isinstance(result, NonIdentified), name
        check_hedge(cdag, result.hedge, x, y)


@criterion(3, "cluster separation implies variable separation on 1000 "
              "random expansions")
def test_criterion_03_separation_soundness():
    rng = rng_for(101)
    separated = 0
    for _ in range(1000):
        c = random_cdag(rng, int(rng.integers(2, 7)))
        x, y, z = random_query(rng, c.graph.nodes)
        sizes = {name: int(rng.integers(1, 4)) for name in c.graph.nodes}
        graph, partition = expand(c, ExpansionSpec(
            sizes=sizes, internal=InternalPolicy("random", 0.5, 0.4),
            cross=CrossPolicy("random", 0.5), seed=int(rng.integers(10 ** 6))))
        if not c.graph.m_separated(x, y, z):
            continue
        separated += 1
        assert graph.m_separated(partition.variables_of(x),
                                 partition.variables_of(y),
                                 partition.variables_of(z))
    assert separated >= 100


@criterion(4, "500 connected cluster queries stay connected in the "
              "singleton expansion")
def test_criterion_04_separation_completeness():
    rng = rng_for(103)
    connected = 0
    while connected < 500:
        c = random_cdag(rng, int(rng.integers(2, 7)))
        x, y, z = random_query(rng, c.graph.nodes)
        if c.graph.m_separated(x, y, z):
            continue
        connected += 1
        assert not c.graph.m_separated(x, y, z)


@criterion(5, "300 applicable do-calculus verdicts hold numerically at 1e-9")
def test_criterion_05_docalc_soundness():
    rng = rng_for(107)
    rules = {"1": rule1, "2": rule2, "3": rule3}
    checked = {"1": 0, "2": 0, "3": 0}
    while sum(checked.values()) < 300:
        c = random_cdag(rng, int(rng.integers(3, 6)))
        sets = random_disjoint_sets(rng, list(c.graph.nodes), 4,
                                    min_sizes=[0, 1, 1, 0])
        x, y, z, w = sets
        x = frozenset(list(x)[:1])
        w = frozenset(list(w)[:1])
        y = frozenset(list(y)[:1])
        z = frozenset(list(z)[:1])
        try:
            q = DoQuery(x=x, y=y, z=z, w=w)
        except Exception:
            continue
        for rule_name, rule in rules.items():
            if checked[rule_name] >= 100 or sum(checked.values()) >= 300:
                continue
            if not rule(c, q).applies:
                continue
            sizes = {name: int(rng.integers(1, 3)) for name in c.graph.nodes}
            graph, partition = expand(c, ExpansionSpec(
                sizes=sizes, internal=InternalPolicy("random", 0.4, 0.4),
                cross=CrossPolicy("random", 0.4), seed=int(rng.integers(10 ** 6))))
            if len(graph.nodes) > 10:
                continue
            model = random_cbn(graph, binary(graph), seed=int(rng.integers(10 ** 6)))
            dev = licensed_equality_deviation(model, partition, rule_name, q)
            assert dev < 1e-9, (rule_name, c.graph, q, dev)
            checked[rule_name] += 1
    assert sum(checked.values()) == 300


@criterion(6, "200 identifiable queries x 3 expansions match the oracle "
              "at every assignment within 1e-9")
def test_criterion_06_id_soundness():
    rng = rng_for(109)
    done = 0
    while done < 200:
        c = random_cdag(rng, int(rng.integers(3, 6)), p_dir=0.5, p_bi=0.3)
        nodes = list(c.graph.nodes)
        rng.shuffle(nodes)
        x, y = [nodes[0]], [nodes[1]]
        result = identify(c, x, y)
        if not isinstance(result, Identified):
            continue
        sizes = {name: int(rng.integers(1, 3)) for name in c.graph.nodes}
        batch = sample_batch(c, ExpansionSpec(
            sizes=sizes, internal=InternalPolicy("random", 0.5, 0.4),
            cross=CrossPolicy("random", 0.4), seed=int(rng.integers(10 ** 6))), 3)
        if any(len(g.nodes) > 9 for g, _ in batch):
            continue
        for graph, partition in batch:
            dev = oracle_deviation(x, y, result.expr, graph, partition,
                                   model_seed=int(rng.integers(10 ** 6)))
            assert dev < 1e-9, (c.graph, x, y, dev)
        done += 1


@criterion(7, "100 hedge witnesses stay non-identifiable at unit and "
              "mixed cluster sizes")
def test_criterion_07_id_completeness():
    rng = rng_for(113)
    done = 0
    while done < 100:
        c = random_cdag(rng, int(rng.integers(2, 6)), p_dir=0.5, p_bi=0.4)
        nodes = list(c.graph.nodes)
        rng.shuffle(nodes)
        x, y = [nodes[0]], [nodes[1]]
        result = identify(c, x, y)
        if not isinstance(result, NonIdentified):
            continue
        hedge = result.hedge
        ones = {name: 1 for name in c.graph.nodes}
        mixed = {name: int(rng.integers(1, 4)) for name in c.graph.nodes}
        mixed[nodes[1]] = max(mixed[nodes[1]], 2)
        for sizes in (ones, mixed):
            witness = hedge_expansion_witness(c, hedge, sizes)
            partition = Partition([(name, [v for v in witness.nodes
                                           if v == name or v.startswith(f"{name}_")])
                                   for name in c.graph.nodes])
            var_x = sorted(partition.variables_of(x))
            var_y = sorted(partition.variables_of(y))
            verdict = identify(singleton_cdag(witness), var_x, var_y)
            assert isinstance(verdict, NonIdentified), (c.graph, x, y, sizes)
        done += 1


@criterion(8, "cluster factorization deviation below 1e-10 on 100 random "
              "models up to 12 binary variables")
def test_criterion_08_factorization():
    rng = rng_for(127)
    done = 0
    while done < 100:
        c = random_cdag(rng, int(rng.integers(2, 5)))
        sizes = {name: int(rng.integers(1, 4)) for name in c.graph.nodes}
        graph, partition = expand(c, ExpansionSpec(
            sizes=sizes, internal=InternalPolicy("random", 0.5, 0.4),
            cross=CrossPolicy("random", 0.4), seed=int(rng.integers(10 ** 6))))
        if len(graph.nodes) > 12:
            continue
        model = random_cbn(graph, binary(graph), seed=int(rng.integers(10 ** 6)))
        x_clusters = [name for name in c.graph.nodes if rng.random() < 0.3]
        dev = cluster_factorization_check(model, partition, x_clusters)
        assert dev < 1e-10, (c.graph, sizes, x_clusters, dev)
        done += 1


def random_event_sets(rng, clusters, members, count):
    sets = []
    for _ in range(count):
        events = []
        for _ in range(int(rng.integers(1, 3))):
            targets = {}
            for name in rng.choice(clusters, size=int(rng.integers(1, 3)),
                                   replace=False):
                targets[str(name)] = tuple(int(rng.integers(0, 2))
                                           for _ in members[str(name)])
            interventions = {}
            for name in clusters:
                if name not in targets and rng.random() < 0.4:
                    interventions[str(name)] = tuple(int(rng.integers(0, 2))
                                                     for _ in members[str(name)])
            events.append((targets, interventions))
        sets.append(events)
    return sets


# sha256 over the tables of every model criterion 9 checks, in check order
CRITERION_09_MODELS = "085b2699d97f58bcf04603717dd35fb909cff42c39c2aa36beb431c3f11a71b1"


def hash_model(digest, model):
    # each exogenous law, then each CPT, as C-ordered float64 bytes
    for table in [*map(model.exo_dists.get, model.exo_names),
                  *(model.mechanisms[v].cpt for v in model.graph.nodes)]:
        digest.update(np.ascontiguousarray(table, dtype=np.float64).tobytes())


@criterion(9, "macro-variable counterfactuals equal base counterfactuals "
              "exactly on 50 deterministic models")
def test_criterion_09_macro_counterfactuals():
    rng = rng_for(131)
    done = 0
    digest = hashlib.sha256()
    while done < 50:
        c = random_cdag(rng, int(rng.integers(2, 4)), p_dir=0.5, p_bi=0.25)
        names = list(c.graph.nodes)
        sizes = {name: 1 for name in names}
        for name in rng.choice(names, size=2, replace=False):
            sizes[str(name)] = 2
        if sum(sizes.values()) > 6:
            continue
        graph, partition = expand(c, ExpansionSpec(
            sizes=sizes, internal=InternalPolicy("random", 0.5, 0.25),
            cross=CrossPolicy("random", 0.3), seed=int(rng.integers(10 ** 6))))
        model = reference_random_cbn(graph, binary(graph), int(rng.integers(10 ** 6)),
                                     deterministic=True)
        exo_size = 1
        for name in model.exo_names:
            exo_size *= model.exo_cards[name]
        if exo_size > 2 ** 13:
            continue
        hash_model(digest, model)
        macro = MacroScm(model, partition)
        members = partition.to_cluster_map()
        for events in random_event_sets(rng, names, members, 5):
            base_events = []
            for targets, interventions in events:
                base_events.append((
                    {v: val for name, vals in targets.items()
                     for v, val in zip(members[name], vals)},
                    {v: val for name, vals in interventions.items()
                     for v, val in zip(members[name], vals)}))
            p_macro = counterfactual_prob(macro, events)
            p_base = counterfactual_prob(model, base_events)
            assert abs(p_macro - p_base) < 1e-12, (c.graph, sizes, events)
        done += 1

    # Conditional potential-response identity on the covariate-adjusted
    # graph: P(Y_{X=0} = 1 | X = 1) = sum_z P(Y=1|X=0,z) P(z|X=1).
    backdoor = ClusterDag(Admg(["X", "Y", "Z"],
                               [("Z", "X"), ("Z", "Y"), ("X", "Y")]))
    graph, partition = expand(backdoor, ExpansionSpec(
        sizes={"Z": 2, "X": 1, "Y": 1}, internal=InternalPolicy("random", 0.5, 0.5),
        cross=CrossPolicy("random", 0.5), seed=3))
    model = reference_random_cbn(graph, binary(graph), 24, deterministic=True)
    hash_model(digest, model)
    assert digest.hexdigest() == CRITERION_09_MODELS
    table = joint_distribution(model)
    z_vars = partition.members("Z")
    lhs = counterfactual_prob(model, [({"Y": 1}, {"X": 0}), ({"X": 1}, {})]) \
        / table.prob_of({"X": 1})
    rhs = 0.0
    for z_state in itertools.product(range(2), repeat=len(z_vars)):
        z = dict(zip(z_vars, z_state))
        rhs += (table.prob_of({"Y": 1, "X": 0, **z}) / table.prob_of({"X": 0, **z})
                * table.prob_of({"X": 1, **z}) / table.prob_of({"X": 1}))
    assert abs(lhs - rhs) < 1e-12


def run_simulate(capsys, *argv):
    code = cli_main(["simulate", *argv])
    out = capsys.readouterr().out
    assert code == 0
    rows = {}
    for line in out.strip().splitlines()[1:]:
        metric, n, value, _ = line.split(",")
        rows[(metric, n)] = float(value)
    return rows


@pytest.fixture
def capsys_fixture(capsys):
    return capsys


@criterion(10, "sampled-data effect gap shrinks with sample size and the "
               "exact-distribution gap is below 1e-9")
def test_criterion_10_effect_convergence(capsys):
    rows = run_simulate(capsys, "graphs/backdoor.cdag", "-x", "X", "-y", "Y",
                        "--sizes", "Z=10", "--diagrams", "20", "--datasets", "20",
                        "--n", "5000,10000,50000", "--seed", "0")
    means = [rows[("effect_diff", n)] for n in ("5000", "10000", "50000")]
    assert means[0] > means[1] > means[2]
    assert means[2] < 0.02
    assert rows[("effect_diff_exact", "")] < 1e-9
    assert rows[("identifiable_fraction", "")] == 1.0


@criterion(11, "non-identifiable fraction of sampled compatible diagrams "
               "falls in [0.70, 0.98]")
def test_criterion_11_non_id_fraction(capsys):
    rows = run_simulate(capsys, "graphs/confounded_sim.cdag", "-x", "X", "-y", "Y",
                        "--sizes", "Z=10", "--diagrams", "100", "--datasets", "0",
                        "--n", "", "--seed", "0")
    fraction = 1.0 - rows[("identifiable_fraction", "")]
    assert 0.70 <= fraction <= 0.98, fraction


@criterion(12, "reachability separation agrees with exhaustive path "
               "enumeration on 2000 random queries")
def test_criterion_12_separation_oracle():
    rng = rng_for(137)
    for _ in range(2000):
        g = random_admg(rng, int(rng.integers(2, 7)))
        x, y, z = random_query(rng, g.nodes)
        assert g.m_separated(x, y, z) == m_separated_brute_force(g, x, y, z)

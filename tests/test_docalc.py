import hashlib
import itertools
from collections import Counter

import pytest

from cdag import (Admg, ClusterDag, DoQuery, StateSpaceCapError, random_cbn, rule1, rule2,
                  rule3, singleton_cdag)
from cdag.graphs import GraphError
from cdag.sampler import CrossPolicy, ExpansionSpec, InternalPolicy, expand

from oracles import _cut_ancestors, m_separated_brute_force
from randutil import (licensed_equality_deviation, random_cdag, random_disjoint_sets,
                      random_expansion, rng_for)


RULES = {"1": rule1, "2": rule2, "3": rule3}


def test_query_rejects_overlap():
    with pytest.raises(GraphError):
        DoQuery(x=["A"], y=["A"], z=["B"])


def test_query_needs_y_and_z(backdoor_cdag):
    with pytest.raises(GraphError):
        rule1(backdoor_cdag, DoQuery(x=["X"], y=[], z=["Z"]))
    with pytest.raises(GraphError):
        rule1(backdoor_cdag, DoQuery(x=["X"], y=["Y"], z=[]))


def test_query_rejects_unknown(backdoor_cdag):
    with pytest.raises(GraphError):
        rule1(backdoor_cdag, DoQuery(y=["Y"], z=["Q"]))


def test_rule1_backdoor_does_not_apply(backdoor_cdag):
    v = rule1(backdoor_cdag, DoQuery(x=["X"], y=["Y"], z=["Z"]))
    assert not v.applies
    assert v.equality_granted == ""


def test_rule1_disconnected_applies():
    c = ClusterDag(Admg(["A", "B"]))
    v = rule1(c, DoQuery(y=["A"], z=["B"]))
    assert v.applies
    assert v.equality_granted == "P(a | b) = P(a)"


def test_rule1_chain_does_not_apply():
    c = ClusterDag(Admg(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")]))
    v = rule1(c, DoQuery(y=["Y"], z=["Z"]))
    assert not v.applies


def test_rule2_backdoor_applies(backdoor_cdag):
    v = rule2(backdoor_cdag, DoQuery(z=["X"], y=["Y"], w=["Z"]))
    assert v.applies
    assert v.equality_granted == "P(y | do(x), z) = P(y | x, z)"


def test_rule2_confounded_does_not_apply(confounded_cdag):
    v = rule2(confounded_cdag, DoQuery(z=["X"], y=["Y"], w=["Z"]))
    assert not v.applies


def test_rule2_two_node_applies():
    c = ClusterDag(Admg(["X", "Y"], [("X", "Y")]))
    v = rule2(c, DoQuery(z=["X"], y=["Y"]))
    assert v.applies


def test_rule3_disconnected_intervention():
    c = ClusterDag(Admg(["X", "Y", "Z"], [("X", "Y")]))
    v = rule3(c, DoQuery(z=["Z"], y=["Y"]))
    assert v.applies
    assert v.equality_granted == "P(y | do(z)) = P(y)"


def test_rule3_backdoor_does_not_apply(backdoor_cdag):
    v = rule3(backdoor_cdag, DoQuery(z=["Z"], y=["Y"]))
    assert not v.applies


def test_rule3_mediated_observation_applies():
    # With W downstream of Z, no Z-cluster enters the cut set, yet
    # conditioning on the mediator blocks the only path, so the rule
    # applies and the licensed equality holds numerically.
    c = ClusterDag(Admg(["W", "Y", "Z"], [("Z", "W"), ("W", "Y")]))
    q = DoQuery(z=["Z"], y=["Y"], w=["W"])
    v = rule3(c, q)
    assert v.applies
    assert "Z(W) = {}" in v.separation_tested
    graph, partition = expand(c, ExpansionSpec(
        sizes={"W": 2, "Y": 1, "Z": 2}, internal=InternalPolicy("random", 0.5, 0.5),
        cross=CrossPolicy("random", 0.5), seed=2))
    m = random_cbn(graph, {v: 2 for v in graph.nodes}, seed=43)
    assert licensed_equality_deviation(m, partition, "3", q) < 1e-9


def test_rule3_ancestral_exclusion():
    # A Z-cluster that is an ancestor of W stays uncut.
    c = ClusterDag(Admg(["W", "Y", "Z"], [("Z", "W"), ("Z", "Y")]))
    v = rule3(c, DoQuery(z=["Z"], y=["Y"], w=["W"]))
    assert "Z(W) = {}" in v.separation_tested


def test_verdict_fields(backdoor_cdag):
    v = rule2(backdoor_cdag, DoQuery(z=["X"], y=["Y"], w=["Z"]))
    assert v.rule == "R2"
    assert "_||_" in v.separation_tested


def test_rules_deterministic(confounded_cdag):
    q = DoQuery(z=["X"], y=["Y"], w=["Z"])
    assert rule2(confounded_cdag, q) == rule2(confounded_cdag, q)


def test_singleton_verdicts_match_variable_level():
    # On an all-singleton cluster DAG the rules reduce to the classical
    # checks on the variable-level graph itself: path enumeration on the
    # graph cut from its edge lists as each classical rule cuts it.  Every
    # query of single (or, for x and w, no) nodes is asked on each graph.
    def cut(g, into, out_of=()):
        return Admg(g.nodes, [(t, h) for t, h in g.directed if h not in into and t not in out_of],
                    [(a, b) for a, b in g.bidirected if a not in into and b not in into])

    rng = rng_for(61)
    seen = Counter()
    for _ in range(12):
        g = random_cdag(rng, 5).graph
        for y, z in itertools.permutations(g.nodes, 2):
            rest = [()] + [(v,) for v in g.nodes if v not in (y, z)]
            for x, w in itertools.product(rest, rest):
                if x and x == w:
                    continue
                q = DoQuery(x=x, y=[y], z=[z], w=w)
                z_of_w = {z} - _cut_ancestors(g.directed, x, w)
                want = {"1": cut(g, x), "2": cut(g, x, [z]), "3": cut(g, set(x) | z_of_w)}
                for name, rule in RULES.items():
                    applies = m_separated_brute_force(want[name], [y], [z], set(x) | set(w))
                    assert rule(singleton_cdag(g), q).applies == applies
                    seen[name, applies] += 1
    assert min(seen[name, applies] for name in RULES for applies in (True, False)) >= 100


def test_applied_rules_hold_numerically():
    # Every verdict that applies licenses an equality that must hold on
    # exact distributions of compatible models.
    rng = rng_for(47)
    checked = {"1": 0, "2": 0, "3": 0}
    while min(checked.values()) < 4:
        c = random_cdag(rng, int(rng.integers(3, 5)))
        clusters = list(c.graph.nodes)
        rng.shuffle(clusters)
        q = DoQuery(x=clusters[0:1] if rng.random() < 0.5 else [],
                    y=clusters[1:2], z=clusters[2:3],
                    w=clusters[3:4] if len(clusters) > 3 and rng.random() < 0.5 else [])
        if not (q.y and q.z):
            continue
        for rule_name, rule in RULES.items():
            if checked[rule_name] >= 6:
                continue
            if not rule(c, q).applies:
                continue
            graph, partition = expand(c, ExpansionSpec(
                sizes={name: int(rng.integers(1, 3)) for name in c.graph.nodes},
                internal=InternalPolicy("random", 0.4, 0.4),
                cross=CrossPolicy("random", 0.4),
                seed=int(rng.integers(10 ** 6))))
            if len(graph.nodes) > 9:
                continue
            m = random_cbn(graph, {v: 2 for v in graph.nodes},
                           seed=int(rng.integers(10 ** 6)))
            dev = licensed_equality_deviation(m, partition, rule_name, q)
            assert dev < 1e-9, (rule_name, c.graph, q, dev)
            checked[rule_name] += 1


def test_applied_rules_hold_numerically_at_12_to_18_variables():
    # Single-cluster x (or none), y, z and w on C-DAGs of 6-9 clusters; a
    # query one of the rules still needs gets one expansion of 12-18
    # variables and one binary model, and every rule that applies to it is
    # checked on that model.  A model the state cap refuses is counted by
    # the function that refused it.  Worst deviation 3.7e-15.
    rng = rng_for(4444)
    checked = Counter({"1": 0, "2": 0, "3": 0})
    counts = Counter()
    worst = 0.0
    while min(checked.values()) < 20:
        c = random_cdag(rng, int(rng.integers(6, 10)), p_dir=0.4, p_bi=0.15)
        y, z, x, w = random_disjoint_sets(rng, c.graph.nodes, 4, min_sizes=[1, 1, 0, 0])
        q = DoQuery(x=sorted(x)[:1], y=sorted(y)[:1], z=sorted(z)[:1], w=sorted(w)[:1])
        todo = [name for name, rule in RULES.items() if checked[name] < 20 and rule(c, q).applies]
        if not todo:
            counts["none"] += 1
            continue
        graph, partition = random_expansion(rng, c)
        if not 12 <= len(graph.nodes) <= 18:
            counts["skipped"] += 1
            continue
        try:
            m = random_cbn(graph, {v: 2 for v in graph.nodes}, seed=int(rng.integers(10 ** 6)))
            devs = {name: licensed_equality_deviation(m, partition, name, q) for name in todo}
        except StateSpaceCapError as err:
            counts[str(err).split(":")[0]] += 1
            continue
        for name, dev in devs.items():
            assert dev < 1e-9, (name, c.graph, q, dev)
            worst = max(worst, dev)
            checked[name] += 1
    assert checked == {"1": 20, "2": 20, "3": 20}
    assert counts == Counter(none=87, skipped=19, interventional_distribution=3)
    assert worst < 1e-13


def test_verdict_digest_over_random_cluster_dags():
    # 2,000 queries on graphs of 3 to 8 clusters, each put to all three
    # rules: the digest pins every field of all 6,000 verdicts
    rng = rng_for(1800)
    digest, applied = hashlib.sha256(), Counter()
    for _ in range(2000):
        c = random_cdag(rng, int(rng.integers(3, 9)))
        y, z, x, w = random_disjoint_sets(rng, c.graph.nodes, 4, min_sizes=[1, 1, 0, 0])
        q = DoQuery(x=x, y=y, z=z, w=w)
        for rule in RULES.values():
            v = rule(c, q)
            digest.update(f"{v.rule}\t{v.applies}\t{v.separation_tested}\t"
                          f"{v.equality_granted}\n".encode())
            applied[v.rule] += v.applies
    assert applied == {"R1": 185, "R2": 378, "R3": 908}
    assert digest.hexdigest() == \
        "45878ad13e8d935c05c7e4d04244f82ce365d593538222dc5bb30209ddb0dcdb"

"""Hedges checked both ways: every hedge ``identify`` returns against the
definition (``tests/conftest.py`` runs :func:`oracles.check_hedge` on each
one made under test), and every verdict against a search over node sets
and, at 10 to 160 nodes, against ID's fixed point.  The paper's
identification theorem is checked on expansions of the same graphs, and
at 40 to 160 clusters.

Every ADMG on four nodes is isomorphic to one whose directed edges follow
one fixed order, so the 2^6 directed by 2^6 bidirected edge sets below
cover them all, and each takes every query of disjoint nonempty x and y
(50 of them).  The default run takes one graph of each 16 consecutive
indices; ``tests/sweep_hedges.py`` and ``tests/sweep_theorem.py`` take
all 4,096.  The definition leaves ``identify`` a choice of forest, so a
digest of every hedge description pins the one it makes (``cdag
identify`` prints it).
"""

import dataclasses
import hashlib
import itertools

import pytest

from cdag import Admg, ClusterDag, Partition, hedge_expansion_witness, identify

from oracles import (_cut_ancestors, check_hedge, find_hedge, has_hedge,
                     identified_by_fixed_point, rooted_forests)
from randutil import random_expansion, rng_for, sparse_admg, sweep_query

NODES = ("A", "B", "C", "D")
PAIRS = list(itertools.combinations(NODES, 2))


def four_node_admg(index):
    """Graph ``index`` of 4,096: bit k puts a directed edge on the kth pair,
    tail first, and bit 6 + k a bidirected one."""
    return Admg(NODES, [p for k, p in enumerate(PAIRS) if index >> k & 1],
                [p for k, p in enumerate(PAIRS) if index >> (6 + k) & 1])


def disjoint_queries(nodes):
    """Every (x, y) of disjoint nonempty node sets."""
    for roles in itertools.product((None, "x", "y"), repeat=len(nodes)):
        x = [v for v, role in zip(nodes, roles) if role == "x"]
        y = [v for v, role in zip(nodes, roles) if role == "y"]
        if x and y:
            yield x, y


def assert_identify_agrees_with_hedge_search(indices, hedges, digest):
    """Each verdict is the search's, and the descriptions of the ``hedges``
    hedges hash to ``digest``."""
    queries = list(disjoint_queries(NODES))
    assert len(queries) == 50
    described, count = hashlib.sha256(), 0
    for index in indices:
        g = four_node_admg(index)
        c, forests = ClusterDag(g), rooted_forests(g)
        for x, y in queries:
            # under test, identify also checks each hedge it returns
            result = identify(c, x, y)
            assert result.identifiable != has_hedge(g, x, y, forests), (index, x, y)
            if not result.identifiable:
                described.update(result.hedge.describe().encode() + b"\1")
                count += 1
    assert (count, described.hexdigest()) == (hedges, digest)


def test_identify_agrees_with_hedge_search_on_a_slice_of_four_node_admgs():
    # one graph per 16, at an offset that turns through all 16, so that
    # every edge slot is both present and absent in the slice
    assert_identify_agrees_with_hedge_search(
        [16 * i + i % 16 for i in range(256)], 3956,
        "bec2de64f601fb41b18cdc863253975da5f2c18ad3aa4f121f96085007cefff9")


def assert_cluster_verdicts_hold_on_expansions(indices, identified, hedges):
    """The paper's identification theorem, judged without ``identify``: the
    search over node sets gives each query's verdict on the cluster graph,
    an identified query gets a random expansion and a hedge its witness
    (sizes 1 to 3), and ID's fixed point must give the expansion the same
    verdict.  Pins the counts of ``identified`` and ``hedges`` queries."""
    rng = rng_for(211)
    queries = list(disjoint_queries(NODES))
    counts = [0, 0]
    for index in indices:
        g = four_node_admg(index)
        c, forests = ClusterDag(g), rooted_forests(g)
        for x, y in queries:
            hedge = find_hedge(g, x, y, forests)
            if hedge is None:
                graph, _ = random_expansion(rng, c)
            else:
                check_hedge(c, hedge, x, y)
                sizes = {name: int(rng.integers(1, 4)) for name in NODES}
                graph = hedge_expansion_witness(c, hedge, sizes)
            # members are named <cluster> or <cluster>_<k>
            xs, ys = ([v for v in graph.nodes if v.split("_")[0] in s] for s in (x, y))
            verdict = identified_by_fixed_point(graph.nodes, graph.directed,
                                                graph.bidirected, xs, ys)
            assert verdict == (hedge is None), (index, x, y, graph)
            counts[verdict] += 1
    assert counts == [hedges, identified]


def test_cluster_verdicts_hold_on_expansions_of_a_slice_of_four_node_admgs():
    # the slice of the hedge search test above, with the same hedges
    assert_cluster_verdicts_hold_on_expansions([16 * i + i % 16 for i in range(256)],
                                               8844, 3956)


def test_check_hedge_rejects_each_broken_condition(confounded_cdag):
    # R = {Y, Z}; F: X -> Y, X <-> Z, Y <-> Z; F': Y <-> Z
    hedge = identify(confounded_cdag, ["X"], ["Y"]).hedge
    check_hedge(confounded_cdag, hedge, ["X"], ["Y"])
    f, fprime = hedge.forest_f, hedge.forest_fprime
    fork = Admg(["X", "Y", "Z"], [("X", "Y"), ("X", "Z")], [("X", "Y"), ("Y", "Z")])
    cases = [
        (dataclasses.replace(hedge, forest_fprime=Admg([])), "nonempty"),
        (dataclasses.replace(hedge, forest_f=Admg(f.nodes, f.directed, f.bidirected | {
            ("X", "Y")})), "not in the cluster graph"),
        (dataclasses.replace(hedge, forest_f=Admg(f.nodes, f.directed)), "c-component"),
        (dataclasses.replace(hedge, root_set=frozenset(f.nodes)), "childless"),
        (dataclasses.replace(hedge, forest_f=fprime, forest_fprime=f), "not contained"),
        (dataclasses.replace(hedge, forest_fprime=f), "F' meets X"),
        (dataclasses.replace(hedge, intersected_x=frozenset()), "meet of F and X"),
    ]
    for bad, message in cases:
        with pytest.raises(AssertionError, match=message):
            check_hedge(confounded_cdag, bad, ["X"], ["Y"])
    with pytest.raises(AssertionError, match="does not meet X"):
        check_hedge(confounded_cdag, hedge, [], ["Y"])
    # An(Z) is {Z} alone
    with pytest.raises(AssertionError, match="ancestral"):
        check_hedge(confounded_cdag, hedge, ["X"], ["Z"])
    with pytest.raises(AssertionError, match="two children"):
        check_hedge(ClusterDag(fork), dataclasses.replace(hedge, forest_f=fork), ["X"], ["Y"])


def test_identify_agrees_with_the_fixed_point_at_10_to_160_nodes():
    # the identified side of the certificate, where no search over node
    # sets reaches: 320 sweep queries with x of 1 to 3 nodes, then 300 on
    # random sparse graphs with y of 1 to 3 nodes and x of 1 to 3 of their
    # ancestors
    rng = rng_for(183)
    queries = []
    for kind, sizes in (("sparse", (10, 20, 40, 80, 160)), ("dense", (20, 40, 60))):
        for n in sizes:
            for _ in range(40):
                c, x, y = sweep_query(rng, kind, n)
                others = [v for v in c.graph.nodes if v not in (x, y)]
                extra = rng.choice(others, size=int(rng.integers(0, 3)), replace=False)
                queries.append((c.graph, [x, *map(str, extra)], [y]))
    for _ in range(300):
        g = sparse_admg(rng, int(rng.integers(10, 161)), rng.uniform(1.0, 3.0),
                        rng.uniform(0.5, 2.0))
        names = [g.nodes[i] for i in rng.permutation(len(g.nodes))]
        y = names[:int(rng.integers(1, 4))]
        above = sorted(_cut_ancestors(g.directed, (), y) - set(y)) or names[len(y):]
        x = rng.choice(above, size=min(len(above), int(rng.integers(1, 4))), replace=False)
        queries.append((g, list(map(str, x)), y))
    failed = 0
    for g, x, y in queries:
        verdict = identify(ClusterDag(g), x, y).identifiable
        assert verdict == identified_by_fixed_point(g.nodes, g.directed, g.bidirected, x, y), \
            (g, x, y)
        failed += not verdict
    assert failed == 76, failed     # not identifiable: 64 sweep, 12 sparse


def test_cluster_verdicts_hold_on_expansions_at_40_to_160_clusters():
    # The paper's identification theorem on sweep graphs: a query identified
    # on the cluster graph is identified on a random expansion (1 to 3
    # members per cluster, random internal and cross policies), and a hedge
    # stays one on its witness expansion.
    rng = rng_for(191)
    verdicts = []
    for kind, sizes in (("sparse", (40, 80, 160)), ("dense", (40, 60))):
        for n in sizes:
            for _ in range(8):
                c, x, y = sweep_query(rng, kind, n)
                others = [v for v in c.graph.nodes if v not in (x, y)]
                x = [x, *map(str, rng.choice(others, size=int(rng.integers(0, 3)),
                                             replace=False))]
                result = identify(c, x, [y])
                if result.identifiable:
                    graph, partition = random_expansion(rng, c)
                else:
                    sizes = {name: int(rng.integers(1, 4)) for name in c.graph.nodes}
                    graph = hedge_expansion_witness(c, result.hedge, sizes)
                    partition = Partition([(name, [v for v in graph.nodes if v == name or
                                                   v.startswith(f"{name}_")])
                                           for name in c.graph.nodes])
                expanded = identify(ClusterDag(graph), sorted(partition.variables_of(x)),
                                    sorted(partition.variables_of([y])))
                assert expanded.identifiable == result.identifiable, (c.graph, x, y)
                verdicts.append(result.identifiable)
    assert (len(verdicts), verdicts.count(False)) == (40, 8)

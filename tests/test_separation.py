"""m-separation checked by two independent oracles, and the paper's
separation theorem and do-calculus rules checked at 40 to 160 clusters.

Path enumeration (:func:`oracles.m_separated_brute_force`) judges every
query on every 4-node ADMG; the default run takes one graph of each 16
consecutive indices and ``tests/sweep_separation.py`` takes all 4,096.
Beyond a few nodes enumeration is out of reach, so the augmentation
criterion (:func:`oracles.m_separated_augmented`), which reads only the
edge collections, judges random graphs of 4 to 160 nodes, and both sides
of the separation theorem and of each do-calculus rule on expansions of
40 to 160 clusters.
"""

import functools
import itertools
import math

from cdag import ClusterDag, DoQuery, cdag_d_separated, rule1, rule2, rule3

from oracles import _cut_ancestors, m_separated_augmented, m_separated_brute_force
from randutil import random_expansion, rng_for, sparse_admg
from test_hedges import NODES, four_node_admg


def four_node_queries():
    """Every (x, y, z) of disjoint node sets with x and y nonempty."""
    for roles in itertools.product((None, "x", "y", "z"), repeat=len(NODES)):
        x, y, z = ([v for v, role in zip(NODES, roles) if role == r] for r in "xyz")
        if x and y:
            yield x, y, z


def assert_m_separated_agrees_with_path_search(indices, separated):
    """Each answer is the path search's, and ``separated`` of them hold."""
    queries = list(four_node_queries())
    assert len(queries) == 110
    count = 0
    for index in indices:
        g = four_node_admg(index)
        for x, y, z in queries:
            answer = g.m_separated(x, y, z)
            assert answer == m_separated_brute_force(g, x, y, z), (index, x, y, z)
            count += answer
    assert count == separated


def test_m_separated_agrees_with_path_search_on_a_slice_of_four_node_admgs():
    # one graph per 16, at an offset that turns through all 16
    assert_m_separated_agrees_with_path_search([16 * i + i % 16 for i in range(256)], 2184)


def oracle_separated(g, x, y, z):
    return m_separated_augmented(g.nodes, g.directed, g.bidirected, x, y, z)


def random_sets(rng, names, z_share):
    """Disjoint x and y of 1 to 3 names each, and z a ``z_share`` of the rest."""
    names = [names[i] for i in rng.permutation(len(names))]
    nx, ny = (int(k) for k in rng.integers(1, 4, size=2))
    ny = min(ny, len(names) - nx)     # every graph has 4 nodes or more
    rest = names[nx + ny:]
    nz = int(round(z_share * len(rest)))
    return frozenset(names[:nx]), frozenset(names[nx:nx + ny]), frozenset(rest[:nz])


def test_m_separated_agrees_with_augmentation_on_4_to_160_nodes():
    rng = rng_for(171)
    separated = 0
    for _ in range(150):
        n = int(round(math.exp(rng.uniform(math.log(4), math.log(160)))))
        g = sparse_admg(rng, n, rng.uniform(1.0, 3.0), rng.uniform(0.3, 1.5))
        for _ in range(20):
            x, y, z = random_sets(rng, g.nodes, rng.uniform(0.0, 0.6))
            answer = g.m_separated(x, y, z)
            assert answer == oracle_separated(g, x, y, z), (g, sorted(x), sorted(y), sorted(z))
            separated += answer
    assert 600 <= separated <= 2400     # both answers are common: 696 of 3,000


# -- the separation theorem and do-calculus at 40 to 160 clusters ---------------

@functools.cache
def cluster_graphs():
    """60 random cluster graphs of 40 to 160 clusters, each with a random
    expansion of 1 to 3 members per cluster."""
    rng = rng_for(173)
    out = []
    for _ in range(60):
        n = int(rng.integers(40, 161))
        c = ClusterDag(sparse_admg(rng, n, rng.uniform(1.0, 2.5), rng.uniform(0.2, 1.0),
                                   prefix="C"))
        out.append((c, *random_expansion(rng, c)))
    return out


def test_cluster_separation_holds_in_expansions_at_40_to_160_clusters():
    rng = rng_for(175)
    separated = 0
    for c, graph, partition in cluster_graphs():
        for _ in range(10):
            x, y, z = random_sets(rng, c.graph.nodes, rng.uniform(0.1, 0.6))
            answer = oracle_separated(c.graph, x, y, z)
            assert cdag_d_separated(c, x, y, z) == answer, (sorted(x), sorted(y), sorted(z))
            if answer:
                separated += 1
                assert oracle_separated(graph, *map(partition.variables_of, (x, y, z))), \
                    (sorted(x), sorted(y), sorted(z))
    assert separated >= 250     # 311 of 600


def cut(directed, bidirected, into, out_of=()):
    """The edge lists once edges with an arrowhead at ``into`` and directed
    edges out of ``out_of`` are removed."""
    return ([(t, h) for t, h in directed if h not in into and t not in out_of],
            [(a, b) for a, b in bidirected if a not in into and b not in into])


def test_do_calculus_rules_hold_in_expansions_at_40_to_160_clusters():
    # each rule that applies to the cluster graph, cut as the rule cuts it,
    # licenses a separation that must hold in the expansion cut the same way
    rng = rng_for(179)
    rules = {"R1": rule1, "R2": rule2, "R3": rule3}
    applied = {name: 0 for name in rules}
    for c, graph, partition in cluster_graphs():
        members = partition.variables_of
        for _ in range(4):
            x, y, rest = random_sets(rng, c.graph.nodes, rng.uniform(0.2, 0.6))
            rest = [v for v in c.graph.nodes if v in rest]    # not in string-hash order
            rest = [rest[i] for i in rng.permutation(len(rest))]
            z, w = frozenset(rest[:1 + len(rest) // 8]), frozenset(rest[1 + len(rest) // 8:])
            q = DoQuery(x=x, y=y, z=z, w=w)
            # Z(W): the z clusters that are not ancestors of w once edges into x are cut
            w_ancestral = _cut_ancestors(c.graph.directed, x, w)
            cuts = {"R1": (x, ()), "R2": (x, z), "R3": (x | (z - w_ancestral), ())}
            for name, rule in rules.items():
                into, out_of = cuts[name]
                cluster_cut = cut(c.graph.directed, c.graph.bidirected, into, out_of)
                applies = m_separated_augmented(c.graph.nodes, *cluster_cut, y, z, x | w)
                assert rule(c, q).applies == applies, (name, q)
                if applies:
                    applied[name] += 1
                    assert m_separated_augmented(
                        graph.nodes, *cut(graph.directed, graph.bidirected, members(into),
                                          members(out_of)),
                        members(y), members(z), members(x | w)), (name, q)
    assert min(applied.values()) >= 80     # 99, 109 and 140 of 240

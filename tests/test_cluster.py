import pytest

from cdag import (Admg, ClusterDag, InadmissibleError, Partition, PartitionError,
                  build_cdag, cdag_d_separated, is_compatible, mutilate_cdag,
                  singleton_cdag)

from oracles import descendants
from randutil import random_admg, random_query, rng_for


def test_partition_rejects_empty_block():
    with pytest.raises(PartitionError):
        Partition([("Z", [])])


def test_partition_rejects_overlap():
    with pytest.raises(PartitionError):
        Partition([("A", ["x"]), ("B", ["x"])])


def test_partition_must_cover_graph(med_admg):
    p = Partition([("Z", ["A", "B"])])
    with pytest.raises(PartitionError):
        build_cdag(med_admg, p)


def test_build_cdag_frontdoor_shape(frontdoor_cdag):
    g = frontdoor_cdag.graph
    assert g.nodes == ("S", "X", "Y", "Z")
    assert g.directed == {("Z", "X"), ("Z", "Y"), ("X", "S"), ("S", "Y")}
    assert g.bidirected == {("X", "Z"), ("Y", "Z")}


def test_build_cdag_inadmissible_reports_cycle(med_admg):
    p = Partition([("W", ["B", "S"]), ("Z", ["A", "C", "D"]),
                   ("X", ["X"]), ("Y", ["Y"])])
    with pytest.raises(InadmissibleError) as err:
        build_cdag(med_admg, p)
    assert set(err.value.cycle) == {"X", "W", "Z"}


def test_build_cdag_singletons_is_identity(med_admg):
    c = build_cdag(med_admg, Partition([(n, (n,)) for n in med_admg.nodes]))
    assert c.graph == med_admg


def test_merged_mediator_quotient(merged_mediator_cdag):
    g = merged_mediator_cdag.graph
    assert g.directed == {("D", "X"), ("X", "W"), ("W", "Y"), ("W", "Z"), ("Z", "Y")}
    assert g.bidirected == {("W", "X"), ("Y", "Z"), ("D", "Z")}


def test_compatibility_of_paper_diagrams(backdoor_cdag, confounded_cdag,
                                         backdoor_diagram_a, backdoor_diagram_b,
                                         confounded_diagram_c, confounded_diagram_d,
                                         z_partition):
    for g in (backdoor_diagram_a, backdoor_diagram_b):
        assert is_compatible(g, backdoor_cdag, z_partition)
    for g in (confounded_diagram_c, confounded_diagram_d):
        assert is_compatible(g, confounded_cdag, z_partition)
    assert not is_compatible(confounded_diagram_c, backdoor_cdag, z_partition)


def test_compatibility_round_trip(med_admg, med_partition):
    c = build_cdag(med_admg, med_partition)
    assert is_compatible(med_admg, c, med_partition)


def test_cluster_graph_is_self_compatible(frontdoor_cdag):
    g = frontdoor_cdag.graph
    assert is_compatible(g, ClusterDag(g), Partition([(n, (n,)) for n in g.nodes]))


def test_mutilate_cdag_cut_out_of(backdoor_cdag):
    cut = mutilate_cdag(backdoor_cdag, cut_out_of=["X"])
    assert cut.graph.directed == {("Z", "X"), ("Z", "Y")}


def test_mutilate_cdag_cut_into(confounded_cdag):
    cut = mutilate_cdag(confounded_cdag, cut_into=["X"])
    assert cut.graph.directed == {("X", "Y"), ("Z", "Y")}
    assert cut.graph.bidirected == {("Y", "Z")}


def test_mutilation_commutes_with_quotient():
    # Quotient of the mutilated graph equals the mutilated quotient for
    # cluster-aligned cut sets.
    rng = rng_for(23)
    for _ in range(50):
        g = random_admg(rng, int(rng.integers(4, 9)))
        names = list(g.nodes)
        rng.shuffle(names)
        k = int(rng.integers(2, len(names) + 1))
        blocks = [[] for _ in range(k)]
        for i, v in enumerate(names):
            blocks[i % k].append(v)
        p = Partition([(f"C{i + 1}", b) for i, b in enumerate(blocks) if b])
        try:
            c = build_cdag(g, p)
        except InadmissibleError:
            continue
        clusters = list(c.graph.nodes)
        x, z, _ = random_query(rng, clusters) if len(clusters) >= 2 else (set(), set(), set())
        var_x = p.variables_of(x)
        var_z = p.variables_of(z)
        lhs = build_cdag(g.mutilate(var_x, var_z), p)
        rhs = mutilate_cdag(c, x, z)
        assert lhs.graph == rhs.graph


def test_cdag_d_separation_fork():
    c = ClusterDag(Admg(["X", "Y", "Z"], [("Z", "X"), ("Z", "Y")]))
    assert cdag_d_separated(c, ["X"], ["Y"], ["Z"])
    assert not cdag_d_separated(c, ["X"], ["Y"])


def test_cdag_d_separation_collider():
    c = ClusterDag(Admg(["X", "Y", "Z"], [("X", "Z"), ("Y", "Z")]))
    assert cdag_d_separated(c, ["X"], ["Y"])
    assert not cdag_d_separated(c, ["X"], ["Y"], ["Z"])


def test_cdag_d_separation_confounded(confounded_cdag):
    assert not cdag_d_separated(confounded_cdag, ["X"], ["Y"], ["Z"])


def test_separation_soundness_on_samples(backdoor_cdag, backdoor_diagram_a,
                                         backdoor_diagram_b, z_partition):
    # Cluster-level separation must imply variable-level separation in
    # every compatible diagram.
    clusters = list(backdoor_cdag.graph.nodes)
    rng = rng_for(5)
    for _ in range(60):
        x, y, z = random_query(rng, clusters)
        if not cdag_d_separated(backdoor_cdag, x, y, z):
            continue
        for g in (backdoor_diagram_a, backdoor_diagram_b):
            assert g.m_separated(z_partition.variables_of(x),
                                 z_partition.variables_of(y),
                                 z_partition.variables_of(z))


def test_separation_completeness_witness():
    # A connected query stays connected in the cluster graph read as its
    # own compatible diagram under the singleton partition.
    rng = rng_for(29)
    for _ in range(60):
        g = random_admg(rng, int(rng.integers(3, 7)), prefix="C")
        c = ClusterDag(g)
        x, y, z = random_query(rng, g.nodes)
        if cdag_d_separated(c, x, y, z):
            continue
        assert not c.graph.m_separated(x, y, z)


def test_directed_path_preservation(med_admg, med_partition, frontdoor_cdag):
    # A cross-cluster directed path at the variable level maps to a
    # cluster-level directed path.
    for src in med_admg.nodes:
        for dst in descendants(med_admg, [src]):
            cs = med_partition.cluster_of(src)
            cd = med_partition.cluster_of(dst)
            if cs != cd:
                assert cd in descendants(frontdoor_cdag.graph, [cs])


def test_singleton_cdag_wraps(med_admg):
    c = singleton_cdag(med_admg)
    assert c.graph == med_admg

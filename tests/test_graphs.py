import pytest
from hypothesis import given, settings, strategies as st

from cdag import Admg, CycleError, GraphError, UnknownNodeError

from oracles import c_components, descendants, kahn_order, m_separated_brute_force
from randutil import random_admg, random_query, rng_for


def test_construction_rejects_self_loops():
    with pytest.raises(GraphError):
        Admg(["A"], [("A", "A")])
    with pytest.raises(GraphError):
        Admg(["A"], [], [("A", "A")])


def test_construction_rejects_a_primed_name():
    # The formulas keep a trailing prime for renamed bound variables: on
    # this graph, identify's P(y'|x) was evaluated as P(y|x).
    with pytest.raises(GraphError, match=r"^node name \"Y'\" must not end in a prime$"):
        Admg(["X", "Y'", "Y"], [("X", "Y"), ("X", "Y'"), ("Y'", "Y")])


def test_construction_rejects_unknown_endpoints():
    with pytest.raises(UnknownNodeError):
        Admg(["A"], [("A", "B")])


def test_construction_rejects_cycles():
    with pytest.raises(CycleError) as err:
        Admg(["W", "X", "Z"], [("X", "W"), ("W", "Z"), ("Z", "X")])
    assert set(err.value.cycle) == {"X", "W", "Z"}


# the parent map that random_cbn, DiscreteCbn and identify read
def test_parents_single_edge():
    g = Admg(["A", "B"], [("A", "B")])
    assert g._parents["B"] == {"A"}


def test_parents_ignore_bidirected():
    g = Admg(["A", "B"], [], [("A", "B")])
    assert g._parents["B"] == set()


def test_parents_med_example(med_admg):
    assert med_admg._parents["X"] == {"D"}


def test_ancestors_chain():
    g = Admg(["A", "B", "C"], [("A", "B"), ("B", "C")])
    assert g.ancestral_closure(["C"]) == {"A", "B", "C"}


def test_ancestors_ignore_bidirected():
    g = Admg(["A", "B", "C"], [("B", "C")], [("A", "B")])
    assert g.ancestral_closure(["C"]) == {"B", "C"}


def test_ancestors_med_example(med_admg):
    assert med_admg.ancestral_closure(["Y"]) == {"X", "D", "S", "B", "C", "A", "Y"}


# the edge-list descendants that the cluster tests read
def test_descendants_chain():
    g = Admg(["A", "B", "C"], [("A", "B"), ("B", "C")])
    assert descendants(g, ["A"]) == {"B", "C"}
    assert descendants(g, ["A", "B"]) == {"C"}


def test_descendants_isolated():
    g = Admg(["A", "B"])
    assert descendants(g, ["A"]) == set()


def test_descendants_med_example(med_admg):
    assert descendants(med_admg, ["X"]) == {"S", "Y"}


def test_unknown_node_in_query(med_admg):
    with pytest.raises(UnknownNodeError):
        med_admg.ancestral_closure(["nope"])


def test_topological_order_lexicographic_ties():
    g = Admg(["A", "B", "C"], [("A", "B"), ("A", "C")])
    assert g.topological_order() == ("A", "B", "C")


def test_topological_order_respects_edges():
    g = Admg(["A", "B"], [("B", "A")])
    assert g.topological_order() == ("B", "A")


def test_ancestral_closure_contains_and_idempotent(med_admg):
    closure = med_admg.ancestral_closure(["Y"])
    assert {"Y"} <= closure
    assert med_admg.ancestral_closure(closure) == closure


def test_mutilate_cut_into():
    g = Admg(["A", "B", "X"], [("A", "X"), ("X", "B")], [("A", "X")])
    cut = g.mutilate(cut_into=["X"])
    assert cut.directed == {("X", "B")}
    assert cut.bidirected == frozenset()


def test_mutilate_cut_out_of_keeps_bidirected():
    g = Admg(["A", "Z"], [("Z", "A")], [("Z", "A")])
    cut = g.mutilate(cut_out_of=["Z"])
    assert cut.directed == frozenset()
    assert cut.bidirected == {("A", "Z")}


def test_mutilate_idempotent(med_admg):
    once = med_admg.mutilate(["X"], ["S"])
    assert once.mutilate(["X"], ["S"]) == once


def test_mutilated_backdoor_separates(backdoor_diagram_a):
    cut = backdoor_diagram_a.mutilate(cut_out_of=["X"])
    assert cut.m_separated(["X"], ["Y"], ["Z1"])


# the edge-list districts that the identification tests read
def test_c_components_basic():
    g = Admg(["A", "B", "C", "D"], [], [("A", "B"), ("B", "C")])
    assert c_components(g) == [frozenset({"A", "B", "C"}), frozenset({"D"})]


def test_c_components_all_singletons():
    g = Admg(["A", "B"], [("A", "B")])
    assert c_components(g) == [frozenset({"A"}), frozenset({"B"})]


def test_c_components_confounded_diagram(confounded_diagram_c):
    assert set(c_components(confounded_diagram_c)) == {
        frozenset({"X", "Z1", "Z3", "Y"}), frozenset({"Z2"})}


def test_c_components_partition_property():
    rng = rng_for(7)
    for _ in range(25):
        g = random_admg(rng, int(rng.integers(2, 8)))
        comps = c_components(g)
        union = set()
        for comp in comps:
            assert not (union & comp)
            union |= comp
        assert union == set(g.nodes)


def test_m_separated_chain():
    g = Admg(["X", "Y", "Z"], [("X", "Z"), ("Z", "Y")])
    assert g.m_separated(["X"], ["Y"], ["Z"])
    assert not g.m_separated(["X"], ["Y"])


def test_m_separated_collider():
    g = Admg(["X", "Y", "Z"], [("X", "Z"), ("Y", "Z")])
    assert g.m_separated(["X"], ["Y"])
    assert not g.m_separated(["X"], ["Y"], ["Z"])


def test_m_separated_collider_descendant():
    g = Admg(["D", "X", "Y", "Z"], [("X", "Z"), ("Y", "Z"), ("Z", "D")])
    assert not g.m_separated(["X"], ["Y"], ["D"])


def test_m_separated_bidirected_colliders_open(confounded_diagram_c):
    assert not confounded_diagram_c.m_separated(["X"], ["Y"], ["Z1", "Z2", "Z3"])


def test_m_separated_rejects_overlap():
    g = Admg(["A", "B"], [("A", "B")])
    with pytest.raises(GraphError):
        g.m_separated(["A"], ["A"])
    with pytest.raises(GraphError):
        g.m_separated(["A"], ["B"], ["A"])


def test_m_separated_matches_brute_force_random():
    rng = rng_for(11)
    for _ in range(400):
        g = random_admg(rng, int(rng.integers(3, 9)))
        x, y, z = random_query(rng, g.nodes)
        assert g.m_separated(x, y, z) == m_separated_brute_force(g, x, y, z), \
            (g, sorted(x), sorted(y), sorted(z))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_m_separated_matches_brute_force_hypothesis(seed):
    rng = rng_for(seed)
    g = random_admg(rng, int(rng.integers(2, 7)))
    x, y, z = random_query(rng, g.nodes)
    assert g.m_separated(x, y, z) == m_separated_brute_force(g, x, y, z)


def test_graph_equality_and_hash():
    g1 = Admg(["A", "B"], [("A", "B")], [("A", "B")])
    g2 = Admg(["B", "A"], [("A", "B")], [("B", "A")])
    assert g1 == g2
    assert hash(g1) == hash(g2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_derived_graphs_equal_public_constructions(seed):
    # mutilate skips the constructor's checks and finds its order on
    # first use; it must equal the graph the public constructor builds
    # from the same edges, in every derived value
    rng = rng_for(seed)
    g = random_admg(rng, int(rng.integers(1, 12)), p_dir=rng.random(), p_bi=rng.random())
    assert g.topological_order() == kahn_order(g)

    def pick():
        return [v for v in g.nodes if rng.random() < 0.4]

    into, out_of = pick(), pick()
    derived = g.mutilate(into, out_of)
    public = Admg(g.nodes, [(t, h) for t, h in g.directed if h not in into and t not in out_of],
                  [(a, b) for a, b in g.bidirected if a not in into and b not in into])
    assert derived == public and hash(derived) == hash(public)
    assert derived.nodes == public.nodes
    assert derived.topological_order() == public.topological_order() == kahn_order(public)
    for links in ("_parents", "_children", "_siblings"):
        assert getattr(derived, links) == getattr(public, links)

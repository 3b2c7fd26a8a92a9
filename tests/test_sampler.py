import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import cdag
import cdag.cli
import cdag.sampler
import conftest
from cdag import Admg, ClusterDag, expand, identify, is_compatible, sample_batch, singleton_cdag
from cdag.oracle import StateSpaceCapError
from cdag.sampler import CrossPolicy, ExpansionSpec, InternalPolicy

from randutil import random_cdag, random_query, rng_for


def test_policy_validation():
    with pytest.raises(ValueError):
        InternalPolicy("zigzag")
    with pytest.raises(ValueError):
        InternalPolicy("random", edge_density=1.5)
    with pytest.raises(ValueError):
        CrossPolicy("sometimes")


def test_all_sizes_one_is_identity(frontdoor_cdag):
    for policy in ("random", "chain", "full", "empty"):
        spec = ExpansionSpec(internal=InternalPolicy(policy, 0.5, 0.5), seed=1)
        graph, partition = expand(frontdoor_cdag, spec)
        assert graph == frontdoor_cdag.graph
        assert all(members == (name,) for name, members in partition.blocks)


def test_size_for_an_unknown_cluster_is_refused(frontdoor_cdag):
    # a misspelt cluster would otherwise keep its size of 1 without a word
    with pytest.raises(ValueError, match=r"^sizes name unknown cluster\(s\) \['Q', 'z'\]$"):
        expand(frontdoor_cdag, ExpansionSpec(sizes={"z": 4, "Q": 3, "Z": 2}))


def test_full_policy_wires_every_cross_pair(confounded_cdag):
    spec = ExpansionSpec(sizes={"Z": 3}, internal=InternalPolicy("full"),
                         cross=CrossPolicy("full"), seed=0)
    graph, partition = expand(confounded_cdag, spec)
    z = partition.members("Z")
    for zi in z:
        assert (zi, "Y") in graph.directed
        assert tuple(sorted((zi, "X"))) in graph.bidirected
        assert tuple(sorted((zi, "Y"))) in graph.bidirected
    assert is_compatible(graph, confounded_cdag, partition)


def test_chain_policy_structure(backdoor_cdag):
    spec = ExpansionSpec(sizes={"Z": 4}, internal=InternalPolicy("chain"),
                         cross=CrossPolicy("minimal_witness"), seed=0)
    graph, partition = expand(backdoor_cdag, spec)
    z = partition.members("Z")
    for a, b in zip(z, z[1:]):
        assert (a, b) in graph.directed
        assert (a, b) in graph.bidirected
    # exactly one witness per cluster edge
    assert ("Z_1", "X") in graph.directed
    assert sum(1 for t, h in graph.directed if t.startswith("Z_") and h == "X") == 1


def test_random_expansions_all_compatible():
    rng = rng_for(53)
    for _ in range(30):
        c = random_cdag(rng, int(rng.integers(2, 6)))
        sizes = {name: int(rng.integers(1, 4)) for name in c.graph.nodes}
        spec = ExpansionSpec(sizes=sizes,
                             internal=InternalPolicy("random", 0.6, 0.4),
                             cross=CrossPolicy("random", 0.5),
                             seed=int(rng.integers(10 ** 6)))
        graph, partition = expand(c, spec)
        assert is_compatible(graph, c, partition)


def test_batch_deterministic(confounded_cdag):
    spec = ExpansionSpec(sizes={"Z": 3}, internal=InternalPolicy("random", 0.5, 0.3),
                         cross=CrossPolicy("random", 0.5), seed=9)
    a = sample_batch(confounded_cdag, spec, 10)
    b = sample_batch(confounded_cdag, spec, 10)
    assert [g for g, _ in a] == [g for g, _ in b]
    assert len({g for g, _ in a}) > 1


def test_confounded_majority_non_identifiable(confounded_cdag):
    spec = ExpansionSpec(sizes={"Z": 2}, internal=InternalPolicy("random", 0.5, 0.3),
                         cross=CrossPolicy("random", 0.5), seed=11)
    batch = sample_batch(confounded_cdag, spec, 40)
    non_id = sum(
        not identify(singleton_cdag(g),
                     sorted(p.members("X")), sorted(p.members("Y"))).identifiable
        for g, p in batch)
    assert non_id > 20


def test_separation_soundness_harness():
    # Cluster-level separation implies variable-level separation in every
    # sampled compatible expansion.
    rng = rng_for(59)
    checked = 0
    for _ in range(300):
        c = random_cdag(rng, int(rng.integers(2, 7)))
        x, y, z = random_query(rng, c.graph.nodes)
        if not c.graph.m_separated(x, y, z):
            continue
        sizes = {name: int(rng.integers(1, 4)) for name in c.graph.nodes}
        graph, partition = expand(c, ExpansionSpec(
            sizes=sizes, internal=InternalPolicy("random", 0.5, 0.4),
            cross=CrossPolicy("random", 0.5), seed=int(rng.integers(10 ** 6))))
        assert graph.m_separated(partition.variables_of(x),
                                 partition.variables_of(y),
                                 partition.variables_of(z))
        checked += 1
    assert checked >= 40


@pytest.mark.parametrize("internal", ["random", "chain", "full", "empty"])
@pytest.mark.parametrize("cross", ["random", "minimal_witness", "full"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_sample_batch_is_compatible_under_every_policy(internal, cross, seed):
    rng = rng_for(seed)
    c = random_cdag(rng, int(rng.integers(2, 7)))
    spec = ExpansionSpec(sizes={name: int(rng.integers(1, 4)) for name in c.graph.nodes},
                         internal=InternalPolicy(internal, *rng.random(2)),
                         cross=CrossPolicy(cross, rng.random()), seed=int(rng.integers(10 ** 6)))
    for graph, partition in sample_batch(c, spec, 4):
        assert is_compatible(graph, c, partition)


def test_every_expansion_under_test_is_checked(monkeypatch, backdoor_cdag):
    # the test-side check stands in for the one expand no longer makes
    for module in (cdag, cdag.cli, cdag.sampler):
        assert module.expand is expand is conftest._checked_expand
    spec = ExpansionSpec(sizes={"Z": 2}, seed=3)
    graph, partition = conftest._expand(backdoor_cdag, spec)
    monkeypatch.setattr(conftest, "_expand", lambda c, spec: (
        Admg(graph.nodes, [e for e in graph.directed if e != ("X", "Y")],
             graph.bidirected), partition))
    with pytest.raises(AssertionError, match="not compatible"):
        sample_batch(backdoor_cdag, spec, 1)


@pytest.mark.parametrize("policy, fits, refused, pairs", [
    # Z -> X, Z -> Y and X -> Y add 2 * size + 1 cross pairs to the cluster's own
    ("random", 12, 13, 105), ("full", 12, 13, 105), ("chain", 33, 34, 102),
    ("empty", 49, 50, 101)])
def test_expand_checks_the_member_pairs_against_the_cap(monkeypatch, backdoor_cdag,
                                                        policy, fits, refused, pairs):
    monkeypatch.setenv("CDAG_STATE_CAP", "100")

    def spec(size):
        return ExpansionSpec(sizes={"Z": size}, internal=InternalPolicy(policy, 0.5, 0.5),
                             cross=CrossPolicy("full"))

    graph, _ = expand(backdoor_cdag, spec(fits))
    assert len(graph.nodes) == fits + 2
    with pytest.raises(StateSpaceCapError, match=f"^expand: {pairs} member pairs exceed "
                                                 r"the cap \(100\); raise CDAG_STATE_CAP$"):
        expand(backdoor_cdag, spec(refused))


# Every expansion of a sweep of random C-DAGs under every internal and cross
# policy, hashed: the random policies draw their internal pairs and each
# cross edge's extra pairs in one call, as consecutive scalar draws would.
SAMPLE_BATCH_DIGEST = "29d5b8be3106e717956dc1274870ba95205b0c38152d7423c15f75c7949bd276"


def test_sample_batch_digest():
    rng = rng_for(61)
    digest = hashlib.sha256()
    for _ in range(8):
        c = random_cdag(rng, int(rng.integers(2, 6)))
        sizes = {name: int(rng.integers(1, 5)) for name in c.graph.nodes}
        for internal in ("random", "chain", "full", "empty"):
            for cross in ("random", "minimal_witness", "full"):
                spec = ExpansionSpec(sizes=sizes, internal=InternalPolicy(internal, *rng.random(2)),
                                     cross=CrossPolicy(cross, rng.random()),
                                     seed=int(rng.integers(10 ** 6)))
                for graph, partition in sample_batch(c, spec, 3):
                    digest.update(repr((graph.nodes, sorted(graph.directed),
                                        sorted(graph.bidirected), partition.blocks)).encode())
    assert digest.hexdigest() == SAMPLE_BATCH_DIGEST

import numpy as np
import pytest

from cdag import (Admg, ClusterDag, Partition, StateSpaceCapError,
                  build_macro_scm, cluster_factorization_check,
                  counterfactual_prob, interventional_distribution,
                  joint_distribution, random_cbn, sample_dataset)
from cdag.graphs import GraphError
from cdag.oracle import DiscreteCbn, Mechanism, empirical_table
from cdag.sampler import CrossPolicy, ExpansionSpec, InternalPolicy, expand

from randutil import rng_for


def binary_cards(g):
    return {v: 2 for v in g.nodes}


def test_random_cbn_deterministic_from_seed(med_admg):
    a = random_cbn(med_admg, binary_cards(med_admg), seed=5)
    b = random_cbn(med_admg, binary_cards(med_admg), seed=5)
    for v in med_admg.nodes:
        assert np.array_equal(a.mechanisms[v].cpt, b.mechanisms[v].cpt)
    for name in a.exo_names:
        assert np.array_equal(a.exo_dists[name], b.exo_dists[name])


def test_random_cbn_rows_normalized(med_admg):
    m = random_cbn(med_admg, binary_cards(med_admg), seed=6)
    for v in med_admg.nodes:
        rows = m.mechanisms[v].cpt.reshape(-1, 2)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_random_cbn_rejects_bad_cards():
    g = Admg(["A"], [])
    with pytest.raises(GraphError):
        random_cbn(g, {"A": 1}, seed=0)


def test_joint_full_support(med_admg):
    m = random_cbn(med_admg, binary_cards(med_admg), seed=7)
    t = joint_distribution(m)
    assert t.probs.min() > 0


def test_joint_single_node():
    g = Admg(["V"])
    m = random_cbn(g, {"V": 3}, seed=8)
    t = joint_distribution(m)
    mech = m.mechanisms["V"]
    expected = np.einsum("u,uv->v", m.exo_dists[mech.exo_parents[0]], mech.cpt)
    assert np.allclose(t.probs, expected, atol=1e-14)


def test_joint_independent_nodes_factorize():
    g = Admg(["A", "B"])
    m = random_cbn(g, {"A": 2, "B": 3}, seed=9)
    t = joint_distribution(m)
    pa = t.probs.sum(axis=1)
    pb = t.probs.sum(axis=0)
    assert np.allclose(t.probs, np.outer(pa, pb), atol=1e-12)


def test_joint_matches_sampling(med_admg):
    m = random_cbn(med_admg, binary_cards(med_admg), seed=10)
    t = joint_distribution(m)
    n = 200_000
    data = sample_dataset(m, n, seed=11)
    emp = empirical_table(med_admg.nodes, [2] * 7, data)
    # three-sigma binomial bound per cell
    sigma = np.sqrt(t.probs * (1 - t.probs) / n)
    assert np.all(np.abs(emp.probs - t.probs) <= 3 * sigma + 1e-12)


def test_interventional_root_equals_conditional():
    g = Admg(["X", "Y"], [("X", "Y")])
    m = random_cbn(g, {"X": 2, "Y": 2}, seed=12)
    t = joint_distribution(m)
    for x in range(2):
        post = interventional_distribution(m, {"X": x})
        for y in range(2):
            want = t.prob_of({"X": x, "Y": y}) / t.prob_of({"X": x})
            assert post.prob_of({"Y": y}) == pytest.approx(want, abs=1e-12)


def test_interventional_all_variables_is_point_mass():
    g = Admg(["A", "B"], [("A", "B")])
    m = random_cbn(g, {"A": 2, "B": 2}, seed=13)
    post = interventional_distribution(m, {"A": 1, "B": 0})
    assert post.variables == ()
    assert post.probs == pytest.approx(1.0)


def test_interventional_empty_equals_joint(med_admg):
    m = random_cbn(med_admg, binary_cards(med_admg), seed=14)
    assert np.allclose(interventional_distribution(m, {}).probs,
                       joint_distribution(m).probs, atol=1e-14)


def test_confounding_breaks_conditional(confounded_diagram_d):
    m = random_cbn(confounded_diagram_d, binary_cards(confounded_diagram_d), seed=27)
    t = joint_distribution(m)
    post = interventional_distribution(m, {"X": 1})
    p_do = post.prob_of({"Y": 1})
    p_cond = t.prob_of({"X": 1, "Y": 1}) / t.prob_of({"X": 1})
    assert abs(p_do - p_cond) > 1e-4


def test_state_space_cap(monkeypatch, med_admg):
    monkeypatch.setenv("CDAG_STATE_CAP", "8")
    m = random_cbn(med_admg, binary_cards(med_admg), seed=16)
    with pytest.raises(StateSpaceCapError):
        joint_distribution(m)


def test_factorization_check_singleton_partition(med_admg):
    m = random_cbn(med_admg, binary_cards(med_admg), seed=17)
    p = Partition.singletons(med_admg.nodes)
    assert cluster_factorization_check(m, p, ["X"]) < 1e-10


def test_factorization_check_observational(med_admg, med_partition):
    m = random_cbn(med_admg, binary_cards(med_admg), seed=18)
    assert cluster_factorization_check(m, med_partition, []) < 1e-10


def test_factorization_check_med_clusters(med_admg, med_partition):
    m = random_cbn(med_admg, binary_cards(med_admg), seed=19)
    assert cluster_factorization_check(m, med_partition, ["X"]) < 1e-10


def test_sample_dataset_reproducible(med_admg):
    m = random_cbn(med_admg, binary_cards(med_admg), seed=20)
    a = sample_dataset(m, 100, seed=21)
    b = sample_dataset(m, 100, seed=21)
    assert np.array_equal(a, b)
    assert sample_dataset(m, 0, seed=21).shape == (0, 7)


# -- deterministic mode and counterfactuals --------------------------------

def xor_model():
    """W -> A -> B with K = {A, B}; every mechanism an XOR of its inputs."""
    g = Admg(["A", "B", "W"], [("W", "A"), ("A", "B")])
    cards = {"A": 2, "B": 2, "W": 2}
    exo_cards = {"U(A)": 2, "U(B)": 2, "U(W)": 2}
    exo_dists = {"U(A)": np.array([0.7, 0.3]), "U(B)": np.array([0.6, 0.4]),
                 "U(W)": np.array([0.2, 0.8])}

    def xor_cpt(n_inputs):
        shape = (2,) * n_inputs + (2,)
        cpt = np.zeros(shape)
        for idx in np.ndindex(*(2,) * n_inputs):
            cpt[idx + (sum(idx) % 2,)] = 1.0
        return cpt

    mechanisms = {
        "W": Mechanism((), ("U(W)",), xor_cpt(1)),
        "A": Mechanism(("W",), ("U(A)",), xor_cpt(2)),
        "B": Mechanism(("A",), ("U(B)",), xor_cpt(2)),
    }
    return DiscreteCbn(g, cards, exo_cards, exo_dists, mechanisms, deterministic=True)


def test_model_rejects_negative_cpt_entries_and_unnormalized_noise():
    g = Admg(["V"])
    mech = {"V": Mechanism((), ("U",), np.array([[1.5, -0.5], [0.5, 0.5]]))}
    with pytest.raises(GraphError, match="nonnegative"):
        DiscreteCbn(g, {"V": 2}, {"U": 2}, {"U": np.array([0.5, 0.5])}, mech, False)
    mech = {"V": Mechanism((), ("U",), np.full((2, 2), 0.5))}
    with pytest.raises(GraphError, match="summing to 1"):
        DiscreteCbn(g, {"V": 2}, {"U": 2}, {"U": np.array([0.5, 0.6])}, mech, False)


def test_solve_requires_deterministic(med_admg):
    m = random_cbn(med_admg, binary_cards(med_admg), seed=22)
    with pytest.raises(GraphError):
        m.solve({name: 0 for name in m.exo_names})


def test_deterministic_mode_rows_one_hot(med_admg):
    m = random_cbn(med_admg, binary_cards(med_admg), seed=23, deterministic=True)
    for v in med_admg.nodes:
        rows = m.mechanisms[v].cpt.reshape(-1, 2)
        assert np.all(np.isin(rows, [0.0, 1.0]))
    assert joint_distribution(m).probs.min() > 0


def test_counterfactual_consistency():
    m = xor_model()
    for uw in range(2):
        for ua in range(2):
            for ub in range(2):
                u = {"U(W)": uw, "U(A)": ua, "U(B)": ub}
                observed = m.solve(u)
                forced = m.solve(u, {"A": observed["A"]})
                assert forced == observed


def test_counterfactual_null_intervention_is_observational():
    m = xor_model()
    t = joint_distribution(m)
    for b in range(2):
        want = t.prob_of({"B": b})
        got = counterfactual_prob(m, [({"B": b}, {})])
        assert got == pytest.approx(want, abs=1e-12)


def test_macro_scm_composes_chain():
    m = xor_model()
    p = Partition([("K", ["A", "B"]), ("W", ["W"])])
    macro = build_macro_scm(m, p)
    assert macro.cdag.graph.directed == {("W", "K")}
    # K = (A, B) with A = W ^ U(A) and B = A ^ U(B)
    for w in range(2):
        for ua in range(2):
            for ub in range(2):
                out = macro.solve({"U(A)": ua, "U(B)": ub, "U(W)": 0},
                                  {"W": (w,)})
                a = w ^ ua
                assert out["K"] == (a, a ^ ub)


def test_macro_scm_singleton_matches_base():
    m = xor_model()
    macro = build_macro_scm(m, Partition.singletons(m.graph.nodes))
    for uw in range(2):
        for ua in range(2):
            u = {"U(W)": uw, "U(A)": ua, "U(B)": 1}
            base = m.solve(u)
            out = macro.solve(u)
            assert {k: v[0] for k, v in out.items()} == base


def test_macro_counterfactuals_match_base():
    m = xor_model()
    p = Partition([("K", ["A", "B"]), ("W", ["W"])])
    macro = build_macro_scm(m, p)
    # P(K_{W=1} = (0, 1), W = 0) computed both ways
    events_macro = [({"K": (0, 1)}, {"W": (1,)}), ({"W": (0,)}, {})]
    events_base = [({"A": 0, "B": 1}, {"W": 1}), ({"W": 0}, {})]
    assert counterfactual_prob(macro, events_macro) == pytest.approx(
        counterfactual_prob(m, events_base), abs=1e-15)


def test_macro_interventional_agreement():
    m = xor_model()
    p = Partition([("K", ["A", "B"]), ("W", ["W"])])
    macro = build_macro_scm(m, p)
    for a in range(2):
        for b in range(2):
            base = counterfactual_prob(m, [({"W": 1}, {"A": a, "B": b})])
            mac = counterfactual_prob(macro, [({"W": (1,)}, {"K": (a, b)})])
            assert mac == pytest.approx(base, abs=1e-15)


def test_counterfactual_drug_response_identity(backdoor_cdag):
    # With covariates before treatment and no confounding across clusters,
    # P(Y_{X=0} = 1 | X = 1) equals sum_z P(Y=1|X=0,z) P(z|X=1).
    spec = ExpansionSpec(sizes={"Z": 2, "X": 1, "Y": 1},
                         internal=InternalPolicy("random", 0.5, 0.5),
                         cross=CrossPolicy("random", 0.5), seed=3)
    graph, partition = expand(backdoor_cdag, spec)
    m = random_cbn(graph, {v: 2 for v in graph.nodes}, seed=24, deterministic=True)
    t = joint_distribution(m)
    z_vars = partition.members("Z")

    joint = counterfactual_prob(m, [({"Y": 1}, {"X": 0}), ({"X": 1}, {})])
    lhs = joint / t.prob_of({"X": 1})

    rhs = 0.0
    for z_state in np.ndindex(*(2,) * len(z_vars)):
        z = dict(zip(z_vars, z_state))
        p_y = t.prob_of({"Y": 1, "X": 0, **z}) / t.prob_of({"X": 0, **z})
        p_z = t.prob_of({"X": 1, **z}) / t.prob_of({"X": 1})
        rhs += p_y * p_z
    assert lhs == pytest.approx(rhs, abs=1e-12)

import hashlib
import itertools
import math

import numpy as np
import pytest

from cdag import (Admg, Partition, StateSpaceCapError, interventional_distribution,
                  joint_distribution, random_cbn, sample_dataset)
from cdag.graphs import GraphError
from cdag import oracle
from cdag.oracle import DiscreteCbn, Mechanism, _Factor, empirical_table
from cdag.sampler import CrossPolicy, ExpansionSpec, InternalPolicy, expand

import oracles
from oracles import (MacroScm, cluster_factorization_check, counterfactual_prob,
                     reference_random_cbn, solve)
from randutil import random_admg, random_cdag, rng_for


def empirical_counts_loop(cards, data):
    """Reference: the flat cell index built one column at a time."""
    flat_index = np.zeros(len(data), dtype=np.int64)
    for i, c in enumerate(cards):
        flat_index = flat_index * c + data[:, i]
    return np.bincount(flat_index, minlength=int(np.prod(cards)))


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


def test_random_cbn_primes_a_noise_name_a_node_holds():
    # the private noise of A would be U(A), which names a node here
    g = Admg(["A", "U(A)"], [("A", "U(A)")])
    m = random_cbn(g, binary_cards(g), seed=0)
    assert sorted(m.exo_names) == ["U(A)'", "U(U(A))"]
    assert m.mechanisms["A"].exo_parents == ("U(A)'",)
    assert joint_distribution(m).probs.min() > 0


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
    post = interventional_distribution(m, {}).probs
    joint = joint_distribution(m).probs
    assert post.strides == joint.strides and post.tobytes() == joint.tobytes()


def test_confounding_breaks_conditional(confounded_diagram_d):
    m = random_cbn(confounded_diagram_d, binary_cards(confounded_diagram_d), seed=27)
    t = joint_distribution(m)
    post = interventional_distribution(m, {"X": 1})
    p_do = post.prob_of({"Y": 1})
    p_cond = t.prob_of({"X": 1, "Y": 1}) / t.prob_of({"X": 1})
    assert abs(p_do - p_cond) > 1e-4


def test_state_space_cap(monkeypatch, med_admg):
    # built under the default cap: at 8, random_cbn itself refuses the tables
    m = random_cbn(med_admg, binary_cards(med_admg), seed=16)
    monkeypatch.setenv("CDAG_STATE_CAP", "8")
    with pytest.raises(StateSpaceCapError):
        joint_distribution(m)


# Each cap lets the earlier phases of the same call through: at 128 the
# distributions fit, and only the cluster factor or the noise space trips.
# The cluster factorization check and counterfactual_prob are the per-value
# and per-state references of tests/oracles.py, which keep the library's cap.
CAP_PHASES = {
    "joint_distribution": (64, lambda m, p: joint_distribution(m)),
    "interventional_distribution": (64, lambda m, p: interventional_distribution(m, {"X": 1})),
    "cluster_factorization_check": (128, lambda m, p: cluster_factorization_check(m, p, ["X"])),
    "counterfactual_prob": (128, lambda m, p: counterfactual_prob(m, [({"Y": 1}, {"X": 0})])),
    # Y's table over three binary parents, one shared and one private binary
    # noise holds 8 * 2 * 2 * 5 = 160 entries at five states
    "random_cbn": (128, lambda m, p: random_cbn(m.graph, {**binary_cards(m.graph), "Y": 5},
                                                seed=0)),
}


@pytest.mark.parametrize("phase", sorted(CAP_PHASES))
def test_state_space_cap_names_the_function(monkeypatch, med_admg, med_partition, phase):
    cap, call = CAP_PHASES[phase]
    monkeypatch.setenv("CDAG_STATE_CAP", str(cap))
    m = reference_random_cbn(med_admg, binary_cards(med_admg), 16, deterministic=True)
    with pytest.raises(StateSpaceCapError, match=f"^{phase}: "):
        call(m, med_partition)


def test_factorization_check_singleton_partition(med_admg):
    m = random_cbn(med_admg, binary_cards(med_admg), seed=17)
    p = Partition([(n, (n,)) for n in med_admg.nodes])
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


# -- deterministic models and counterfactuals ------------------------------

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
    return DiscreteCbn(g, cards, exo_cards, exo_dists, mechanisms)


def test_model_rejects_negative_cpt_entries_and_unnormalized_noise():
    g = Admg(["V"])
    mech = {"V": Mechanism((), ("U",), np.array([[1.5, -0.5], [0.5, 0.5]]))}
    with pytest.raises(GraphError, match="nonnegative"):
        DiscreteCbn(g, {"V": 2}, {"U": 2}, {"U": np.array([0.5, 0.5])}, mech)
    mech = {"V": Mechanism((), ("U",), np.full((2, 2), 0.5))}
    with pytest.raises(GraphError, match="summing to 1"):
        DiscreteCbn(g, {"V": 2}, {"U": 2}, {"U": np.array([0.5, 0.6])}, mech)


def test_model_rejects_a_cpt_of_the_wrong_shape():
    # B's CPT has axes A, C, U(B), B.  Each bad table has the same size,
    # and its rows still split by B's card and sum to 1.
    g = Admg(["A", "B", "C"], [("A", "B"), ("C", "B")])
    m = random_cbn(g, {"A": 2, "B": 2, "C": 3}, seed=3)
    cpt = m.mechanisms["B"].cpt
    for bad in (cpt.swapaxes(0, 1), cpt.swapaxes(1, 2), cpt.reshape(1, -1)):
        mechs = dict(m.mechanisms)
        mechs["B"] = Mechanism(("A", "C"), m.mechanisms["B"].exo_parents, bad)
        with pytest.raises(GraphError, match=r"^CPT of 'B' has shape \(\d"):
            DiscreteCbn(g, m.cards, m.exo_cards, m.exo_dists, mechs)


def test_model_rejects_wiring_that_is_not_the_graph():
    # A and B with no edge, each a copy of its own noise
    g = Admg(["A", "B"])
    cards, exo_cards = {"A": 2, "B": 2}, {"U(A)": 2, "U(B)": 2}
    laws = {u: np.array([0.5, 0.5]) for u in exo_cards}
    own = {v: Mechanism((), (f"U({v})",), np.eye(2)) for v in "AB"}
    for mechs, name in [({"A": Mechanism(("B",), (), np.eye(2)), "B": own["B"]}, "A"),
                        ({"B": own["B"]}, "A"),
                        ({**own, "C": own["B"]}, "C")]:
        with pytest.raises(GraphError, match=f"^'{name}' needs to be a graph node"):
            DiscreteCbn(g, cards, exo_cards, laws, mechs)
    with pytest.raises(GraphError, match="^'B' needs to be a graph node"):
        DiscreteCbn(g, {"A": 2}, exo_cards, laws, own)
    for cards_of, laws_of in [({**exo_cards, "W": 2}, laws), (exo_cards, {"U(A)": laws["U(A)"]})]:
        with pytest.raises(GraphError, match="^exogenous '(W|U\\(B\\))' needs both"):
            DiscreteCbn(g, cards, cards_of, laws_of, own)
    m = DiscreteCbn(g, cards, exo_cards, laws, own)
    assert np.array_equal(joint_distribution(m).probs, np.full((2, 2), 0.25))


def test_model_rejects_a_noise_shared_without_a_bidirected_edge():
    # A and B, no edge, each a copy of one noise U: the model would make them
    # equal, [[.5, 0], [0, .5]], on a graph that says they are independent
    cards, exo_cards, laws = {"A": 2, "B": 2}, {"U": 2}, {"U": np.array([0.5, 0.5])}
    copy = Mechanism((), ("U",), np.eye(2))
    with pytest.raises(GraphError, match="^'A' and 'B' read exogenous 'U' without a <-> edge$"):
        DiscreteCbn(Admg(["A", "B"]), cards, exo_cards, laws, {"A": copy, "B": copy})
    m = DiscreteCbn(Admg(["A", "B"], bidirected=[("A", "B")]), cards, exo_cards, laws,
                    {"A": copy, "B": copy})
    assert np.array_equal(joint_distribution(m).probs, [[0.5, 0.0], [0.0, 0.5]])
    # a third reader needs an edge to each of the others
    g = Admg(["A", "B", "C"], bidirected=[("A", "B"), ("B", "C")])
    with pytest.raises(GraphError, match="^'A' and 'C' read exogenous 'U' without"):
        DiscreteCbn(g, {**cards, "C": 2}, exo_cards, laws, {"A": copy, "B": copy, "C": copy})


def test_model_rejects_a_mechanism_reading_an_unknown_noise():
    g = Admg(["V"])
    mech = {"V": Mechanism((), ("U", "W"), np.full((2, 2, 2), 0.5))}
    with pytest.raises(GraphError, match=r"^'V' reads exogenous 'W', which has no cardinality$"):
        DiscreteCbn(g, {"V": 2}, {"U": 2}, {"U": np.array([0.5, 0.5])}, mech)


def test_model_rejects_a_mechanism_reading_one_noise_twice():
    g = Admg(["V"])
    mech = {"V": Mechanism((), ("U", "U"), np.full((2, 2, 2), 0.5))}
    with pytest.raises(GraphError, match=r"^'V' reads exogenous 'U' twice$"):
        DiscreteCbn(g, {"V": 2}, {"U": 2}, {"U": np.array([0.5, 0.5])}, mech)


def test_model_rejects_a_noise_named_like_a_node():
    # A copies its noise U; B reads its parent A and copies a noise also
    # named A, law [.9, .1].  The joint is [[.45, .05], [.45, .05]], but
    # a table over the one name A would read [[.5, 0], [0, .5]].
    g = Admg(["A", "B"], [("A", "B")])
    mechs = {"A": Mechanism((), ("U",), np.eye(2)),
             "B": Mechanism(("A",), ("A",), np.tile(np.eye(2), (2, 1, 1)))}
    laws = {"U": np.array([0.5, 0.5]), "A": np.array([0.9, 0.1])}
    with pytest.raises(GraphError, match=r"^exogenous 'A' is named like a graph node$"):
        DiscreteCbn(g, {"A": 2, "B": 2}, {"U": 2, "A": 2}, laws, mechs)
    m = DiscreteCbn(g, {"A": 2, "B": 2}, {"U": 2, "V": 2}, {"U": laws["U"], "V": laws["A"]},
                    {**mechs, "B": Mechanism(("A",), ("V",), mechs["B"].cpt)})
    assert np.allclose(joint_distribution(m).probs, [[0.45, 0.05], [0.45, 0.05]])


def test_solve_requires_deterministic(med_admg):
    m = random_cbn(med_admg, binary_cards(med_admg), seed=22)
    with pytest.raises(GraphError):
        solve(m, {name: 0 for name in m.exo_names})


def test_deterministic_mode_rows_one_hot(med_admg):
    m = reference_random_cbn(med_admg, binary_cards(med_admg), 23, deterministic=True)
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
                observed = solve(m, u)
                forced = solve(m, u, {"A": observed["A"]})
                assert forced == observed


@pytest.mark.parametrize("x, message", [
    ({"A": -1}, "not a state"), ({"A": 2}, "not a state"),
    ({"A": 1.0}, "not a state"), ({"Q": 1}, "unknown variable")])
def test_response_paths_reject_bad_interventions(x, message):
    m = xor_model()
    u = {"U(W)": 0, "U(A)": 1, "U(B)": 0}
    with pytest.raises(GraphError, match=message):
        solve(m, u, x)
    with pytest.raises(GraphError, match=message):
        counterfactual_prob(m, [({"B": 0}, x)])
    with pytest.raises(GraphError, match=message):
        interventional_distribution(m, x)


@pytest.mark.parametrize("x, message", [
    ({"Q": (1,)}, "unknown cluster"), ({"K": (0, 2)}, "not a state"),
    ({"K": (0, -1)}, "not a state"), ({"K": (1,)}, "not a state"),
    ({"W": 1}, "not a state")])
def test_macro_response_paths_reject_bad_interventions(x, message):
    m = xor_model()
    macro = MacroScm(m, Partition([("K", ["A", "B"]), ("W", ["W"])]))
    with pytest.raises(GraphError, match=message):
        macro.solve({"U(W)": 0, "U(A)": 1, "U(B)": 0}, x)
    with pytest.raises(GraphError, match=message):
        counterfactual_prob(macro, [({"W": (0,)}, x)])


@pytest.mark.parametrize("targets, message", [
    ({"Q": 0}, "unknown variable"), ({"B": 5}, "not a state"),
    ({"B": -1}, "not a state"), ({"B": 1.0}, "not a state")])
def test_counterfactual_prob_rejects_bad_targets(targets, message):
    # these used to raise a bare KeyError ({"Q": 0}) or answer 0.0
    with pytest.raises(GraphError, match=message):
        counterfactual_prob(xor_model(), [(targets, {"A": 1})])


@pytest.mark.parametrize("targets, message", [
    ({"Q": (0,)}, "unknown cluster"), ({"K": (0, 2)}, "not a state"),
    ({"K": (0,)}, "not a state"), ({"W": 1}, "not a state")])
def test_macro_counterfactual_prob_rejects_bad_targets(targets, message):
    macro = MacroScm(xor_model(), Partition([("K", ["A", "B"]), ("W", ["W"])]))
    with pytest.raises(GraphError, match=message):
        counterfactual_prob(macro, [(targets, {"W": (1,)})])


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
    macro = MacroScm(m, p)
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
    macro = MacroScm(m, Partition([(n, (n,)) for n in m.graph.nodes]))
    for uw in range(2):
        for ua in range(2):
            u = {"U(W)": uw, "U(A)": ua, "U(B)": 1}
            base = solve(m, u)
            out = macro.solve(u)
            assert {k: v[0] for k, v in out.items()} == base


def test_macro_counterfactuals_match_base():
    m = xor_model()
    p = Partition([("K", ["A", "B"]), ("W", ["W"])])
    macro = MacroScm(m, p)
    # P(K_{W=1} = (0, 1), W = 0) computed both ways
    events_macro = [({"K": (0, 1)}, {"W": (1,)}), ({"W": (0,)}, {})]
    events_base = [({"A": 0, "B": 1}, {"W": 1}), ({"W": 0}, {})]
    assert counterfactual_prob(macro, events_macro) == pytest.approx(
        counterfactual_prob(m, events_base), abs=1e-15)


def test_macro_interventional_agreement():
    m = xor_model()
    p = Partition([("K", ["A", "B"]), ("W", ["W"])])
    macro = MacroScm(m, p)
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
    m = reference_random_cbn(graph, {v: 2 for v in graph.nodes}, 24, deterministic=True)
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


# -- potential responses at one exogenous state ---------------------------

def deterministic_model(rng, low, high):
    """A random deterministic binary model on an expanded 2-4 cluster DAG
    whose exogenous state space has between ``low`` and ``high`` states."""
    while True:
        c = random_cdag(rng, int(rng.integers(2, 5)), p_dir=0.5, p_bi=0.3)
        sizes = {name: int(rng.integers(1, 4)) for name in c.graph.nodes}
        graph, partition = expand(c, ExpansionSpec(
            sizes=sizes, internal=InternalPolicy("random", 0.5, 0.25),
            cross=CrossPolicy("random", 0.3), seed=int(rng.integers(10 ** 6))))
        model = reference_random_cbn(graph, binary_cards(graph), int(rng.integers(10 ** 6)),
                                     deterministic=True)
        if low <= math.prod(model.exo_cards.values()) <= high:
            return model, partition


def test_solve_returns_python_ints_at_one_state():
    rng = rng_for(904)
    model, partition = deterministic_model(rng, 2 ** 4, 2 ** 10)
    exo = {name: int(rng.integers(card)) for name, card in model.exo_cards.items()}
    first = model.graph.topological_order()[0]
    for interventions in ({}, {first: 1}):
        out = solve(model, exo, interventions)
        assert set(out) == set(model.graph.nodes)
        assert all(type(val) is int for val in out.values())
    macro = MacroScm(model, partition)
    name = macro.cluster_order[0]
    for interventions in ({}, {name: (1,) * len(macro.members[name])}):
        out = macro.solve(exo, interventions)
        assert set(out) == set(macro.cluster_order)
        assert all(type(vals) is tuple and len(vals) == len(macro.members[k])
                   and all(type(val) is int for val in vals)
                   for k, vals in out.items())


# -- one contraction per intervened set ------------------------------------

def assert_same_table(got, want):
    # Equal strides too: a slice laid out as the per-value table is summed
    # the same way downstream, so its marginals keep their bytes as well.
    assert got.variables == want.variables and got.probs.shape == want.probs.shape
    assert got.probs.strides == want.probs.strides
    got, want = np.ascontiguousarray(got.probs), np.ascontiguousarray(want.probs)
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def model_on_expansion(rng, deterministic):
    """A random model with cards 2-3 and ternary edge noise on an expanded
    2-4 cluster DAG of at most 8 variables, from the reference builder:
    ``random_cbn`` draws binary noise only."""
    while True:
        c = random_cdag(rng, int(rng.integers(2, 5)), p_dir=0.5, p_bi=0.3)
        sizes = {name: int(rng.integers(1, 3)) for name in c.graph.nodes}
        graph, partition = expand(c, ExpansionSpec(
            sizes=sizes, internal=InternalPolicy("random", 0.5, 0.3),
            cross=CrossPolicy("random", 0.3), seed=int(rng.integers(10 ** 6))))
        if len(graph.nodes) <= 8:
            break
    cards = {v: int(rng.integers(2, 4)) for v in graph.nodes}
    return reference_random_cbn(graph, cards, int(rng.integers(10 ** 6)), exo_card=3,
                                deterministic=deterministic), partition


def assert_same_factor(got, want):
    assert got.names == want.names and got.values.shape == want.values.shape
    assert got.values.strides == want.values.strides
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("deterministic", [False, True])
def test_interventional_tables_match_per_value_reference(deterministic):
    # every model factor and the joint too, against the per-factor
    # tensordot and the walked contraction of the reference
    rng = rng_for(950 + deterministic)
    for _ in range(6):
        m, _ = model_on_expansion(rng, deterministic)
        assert m._factors.keys() == set(m.graph.nodes)
        for v in m.graph.nodes:
            assert_same_factor(m._factors[v], oracles._variable_factor(m, v))
        assert_same_table(joint_distribution(m), oracles.joint_distribution(m))
        nodes = list(m.graph.nodes)
        sinks = [v for v in nodes if not any(t == v for t, _ in m.graph.directed)]
        sets = [(), tuple(nodes), (sinks[0],)]
        sets += [tuple(rng.permutation(nodes)[:int(rng.integers(1, 4))]) for _ in range(3)]
        # every set twice, the rounds interleaved, values in a fresh order
        calls = []
        for _ in range(2):
            for xs in sets:
                states = list(itertools.product(*(range(m.cards[v]) for v in xs)))
                for i in rng.permutation(len(states))[:6]:
                    calls.append(dict(zip(xs, states[i])))
        for i in rng.permutation(len(calls)):
            assert_same_table(interventional_distribution(m, calls[i]),
                              oracles.interventional_distribution(m, calls[i]))


@pytest.mark.parametrize("deterministic", [False, True])
def test_factorization_check_holds_on_random_expansions(deterministic):
    # cards 2-3 and ternary edge noise, beyond criterion 8's binary models
    rng = rng_for(960 + deterministic)
    for _ in range(6):
        m, partition = model_on_expansion(rng, deterministic)
        names = list(partition.cluster_names)
        for k in (0, 1, 2):
            x_clusters = list(rng.permutation(names)[:k])
            assert cluster_factorization_check(m, partition, x_clusters) < 1e-10


def corrupt(rng, table, law):
    # one bad entry or row sum, a zero entry (bad in a law only), a law of
    # the wrong shape or length, or a CPT that does not split into rows of
    # its variable's cardinality
    table = np.array(table, dtype=float)
    flat = table.reshape(-1)
    kind = rng.choice([0, 1, 2, 3, 4, 5] if law else [0, 1, 2, 3, 5])
    if kind == 0:
        flat[rng.integers(flat.size)] = np.nan
    elif kind == 1:
        flat[rng.integers(flat.size)] = -0.25
    elif kind == 2:
        flat[rng.integers(flat.size)] += 0.5
    elif kind == 3:    # a zero entry, its mass moved to the next one
        i = rng.integers(flat.size)
        flat[(i + 1) % flat.size] += flat[i]
        flat[i] = 0.0
    elif kind == 4:
        return table.reshape(1, -1)
    else:
        return flat[:-1]
    return table


@pytest.mark.parametrize("deterministic", [False, True])
def test_batched_model_checks_raise_as_the_per_table_loop(deterministic):
    # cards 2-3 with ternary noise, or private noise of each variable's
    # cardinality: exogenous laws and CPT rows of mixed widths
    rng = rng_for(980 + deterministic)
    seen = set()
    for _ in range(150):
        m, _ = model_on_expansion(rng, deterministic)
        dists = {u: d.copy() for u, d in m.exo_dists.items()}
        mechs = {v: Mechanism(mech.endo_parents, mech.exo_parents, mech.cpt.copy())
                 for v, mech in m.mechanisms.items()}
        # one or two bad tables, anywhere in the check order
        tables = [("exo", u) for u in m.exo_names] + [("cpt", v) for v in mechs]
        for i in rng.permutation(len(tables))[:int(rng.integers(1, 3))]:
            kind, name = tables[i]
            if kind == "exo":
                dists[name] = corrupt(rng, dists[name], law=True)
            else:
                mechs[name].cpt = corrupt(rng, mechs[name].cpt, law=False)
        want = oracles.model_table_error(m.cards, m.exo_cards, dists, mechs)
        if want is None:    # a zero CPT entry, its row still summing to 1, is fine
            DiscreteCbn(m.graph, m.cards, m.exo_cards, dists, mechs)
            continue
        with pytest.raises(type(want)) as err:
            DiscreteCbn(m.graph, m.cards, m.exo_cards, dists, mechs)
        assert str(err.value) == str(want)
        seen.add((str(want).split()[0], "shape" in str(want)))
    assert seen == {("exogenous", False), ("CPT", False), ("CPT", True)}


def random_factor_pair(rng):
    # two factors over random names in random order, a shared name of one
    # length in both, some of them non-contiguous views
    names = ["A", "B", "C", "D", "E", "F"]
    dims = {n: int(rng.integers(1, 4)) for n in names}

    def factor():
        own = tuple(rng.permutation(names)[:int(rng.integers(0, 5))].tolist())
        shape = [dims[n] for n in own]
        if own and rng.random() < 0.5:
            return _Factor(own, rng.random(shape[::-1]).T)
        return _Factor(own, rng.random(shape))

    a, b = factor(), factor()
    union = sorted({*a.names, *b.names})
    lead = tuple(rng.permutation(union)[:int(rng.integers(0, 3))].tolist()) \
        if union and rng.random() < 0.5 else ()
    return a, b, lead


def test_join_is_the_broadcast_product_checked_against_the_cap():
    rng = rng_for(990)
    for _ in range(300):
        a, b, lead = random_factor_pair(rng)
        want = oracles.product(a, b, lead)
        assert_same_factor(oracle._join(a, b, 2 ** 22, "phase", lead), want)
        # the cap error at the size the test-side join refuses too
        size = want.values.size
        assert_same_factor(oracle._join(a, b, size, "phase", lead), want)
        with pytest.raises(StateSpaceCapError) as got:
            oracle._join(a, b, size - 1, "phase", lead)
        with pytest.raises(StateSpaceCapError) as expected:
            oracles._join(a, b, size - 1, "phase", lead)
        assert str(got.value) == str(expected.value)


def test_oracle_tables_are_laws():
    # what the trusted tables skip: every entry finite and nonnegative, and
    # the sum 1 within the public constructor's tolerance
    rng = rng_for(995)
    models = []
    for _ in range(10):
        c = random_cdag(rng, int(rng.integers(2, 6)), p_dir=0.5, p_bi=0.4)
        graph, _ = expand(c, ExpansionSpec(
            sizes={name: int(rng.integers(1, 4)) for name in c.graph.nodes},
            internal=InternalPolicy("random", 0.5, 0.4), cross=CrossPolicy("random", 0.4),
            seed=int(rng.integers(10 ** 6))))
        if len(graph.nodes) <= 12 and len(graph.bidirected) <= 10:
            models.append(random_cbn(graph, {v: int(rng.integers(2, 4)) for v in graph.nodes},
                                     seed=int(rng.integers(10 ** 6))))
        models.append(model_on_expansion(rng, deterministic=bool(rng.integers(2)))[0])
    tables = 0
    for m in models:
        nodes = list(m.graph.nodes)
        checked = [joint_distribution(m)]
        for k in range(len(nodes) + 1):
            xs = rng.permutation(nodes)[:k].tolist()
            checked += [interventional_distribution(m, {v: int(rng.integers(m.cards[v]))
                                                        for v in xs}) for _ in range(2)]
        for t in checked:
            assert t.probs.dtype == np.float64 and t.cards == t.probs.shape
            assert np.isfinite(t.probs).all() and t.probs.min(initial=0.0) >= 0
            assert abs(float(t.probs.sum()) - 1.0) <= 1e-12
            tables += 1
    assert len(models) >= 15 and tables >= 150


def test_interventional_tables_are_read_only():
    m = xor_model()
    post = interventional_distribution(m, {"A": 1})
    with pytest.raises(ValueError):
        post.probs[0, 0] = 0.5


def test_joint_is_cached_and_read_only(med_admg):
    m = random_cbn(med_admg, binary_cards(med_admg), seed=15)
    joint = joint_distribution(m)
    assert np.shares_memory(joint.probs, joint_distribution(m).probs)
    with pytest.raises(ValueError):
        joint.probs[(0,) * len(med_admg.nodes)] = 0.5


EXACT_TABLES_DIGEST = "decfa449054ef47603a6e231eb395f6f2c846cfd15d99d27d02cf26e1398bb74"


def test_exact_tables_keep_their_bytes():
    # the joint and every single-variable intervention at both values, on
    # 60 random models of 6-10 nodes: their values, shapes and strides
    rng = rng_for(1201)
    digest, tables = hashlib.sha256(), 0
    for _ in range(60):
        g = random_admg(rng, int(rng.integers(6, 11)))
        m = random_cbn(g, binary_cards(g), seed=int(rng.integers(10 ** 6)))
        checked = [joint_distribution(m)]
        checked += [interventional_distribution(m, {v: value})
                    for v in g.nodes for value in (0, 1)]
        for t in checked:
            digest.update(repr((t.variables, t.probs.shape, t.probs.strides)).encode())
            digest.update(t.probs.tobytes())
            tables += 1
    assert tables >= 60 * 13    # a joint and two tables per node, 6 nodes or more
    assert digest.hexdigest() == EXACT_TABLES_DIGEST


def test_empirical_table_matches_column_loop():
    rng = rng_for(71)
    for cards in ((2,), (3, 2), (2, 4, 3, 2, 5)):
        names = [f"V{i}" for i in range(len(cards))]
        for n in (1, 7, 2000):
            data = np.stack([rng.integers(0, c, n) for c in cards], axis=1)
            want = empirical_counts_loop(cards, data).reshape(cards) / n
            assert np.array_equal(empirical_table(names, cards, data).probs, want)


def test_empirical_table_rejects_out_of_range_states():
    for bad in (2, -1):
        data = np.array([[0, 1], [1, bad]], dtype=np.int64)
        with pytest.raises(ValueError):
            empirical_table(["A", "B"], [2, 2], data)


def test_empirical_table_rejects_a_dataset_without_rows():
    # no frequency is defined: a ValueError, not a division by zero
    for data in (np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.uint8)):
        with pytest.raises(ValueError, match=r"dataset of shape \(0, 2\) has no rows"):
            empirical_table(["A", "B"], [2, 2], data)


def test_empirical_table_counts_the_narrow_view_as_the_int64_dataset():
    # 12 binary variables make 4096 cells, more than the uint8 columns hold
    names = [f"V{i}" for i in range(12)]
    chain = Admg(names, directed=set(zip(names, names[1:])))
    for cards in ({v: 2 for v in names}, {v: 2 + i % 3 for i, v in enumerate(names)}):
        m = random_cbn(chain, cards, seed=12)
        card_list = [cards[v] for v in m.graph.nodes]
        for n in (1, 2000):
            narrow = sample_dataset(m, n, seed=n)
            wide = narrow.astype(np.int64, order="C")
            got = empirical_table(m.graph.nodes, card_list, narrow).probs
            want = empirical_counts_loop(card_list, wide).reshape(card_list) / n
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == empirical_table(m.graph.nodes, card_list, wide).probs.tobytes()


def test_empirical_table_rejects_bad_narrow_and_non_integer_data():
    # a state of 2 for a binary variable, in a plain and in a strided uint8 block
    for data in (np.array([[0, 1], [1, 2]], dtype=np.uint8),
                 np.array([[0, 1], [1, 1]], dtype=np.uint8)[:, ::-1] + 1):
        with pytest.raises(ValueError, match="outside"):
            empirical_table(["A", "B"], [2, 2], data)
    with pytest.raises(ValueError, match="integers"):
        empirical_table(["A", "B"], [2, 2], np.array([[0.0, 1.0]]))
    # one column too many or too few, and a single row
    for data in (np.zeros((3, 3), dtype=np.uint8), np.zeros((3, 1), dtype=np.int64),
                 np.zeros(2, dtype=np.int64)):
        with pytest.raises(ValueError, match="one column per card"):
            empirical_table(["A", "B"], [2, 2], data)

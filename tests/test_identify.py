import collections
import hashlib
import itertools
import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from cdag import (Admg, ClusterDag, CondProb, Identified, NonIdentified, Product,
                  StateSpaceCapError, Sum, evaluate, hedge_expansion_witness, identify,
                  interventional_distribution, joint_distribution, random_cbn, render,
                  singleton_cdag)
from cdag.cli import main
from cdag.formula import tabulate
from cdag.graphs import GraphError
from cdag.identify import _ancestral_reduce, _chain_factor, _chain_table, _district, _run

from oracles import _cut_ancestors, c_components, equivalent_on
from randutil import (oracle_deviation, random_admg, random_cdag, random_expansion, rng_for,
                      sweep_query)


def compatible_tables(c, count, start_seed=0):
    """Joints of random models on the cluster graph itself: the canonical
    compatible distributions for equivalence checks."""
    cards = {v: 2 for v in c.graph.nodes}
    for seed in range(start_seed, start_seed + count):
        yield joint_distribution(random_cbn(c.graph, cards, seed=seed))


def assert_matches_oracle(c, x, y, expr, seed=99):
    m = random_cbn(c.graph, {v: 2 for v in c.graph.nodes}, seed=seed)
    t = joint_distribution(m)
    x, y = sorted(x), sorted(y)
    for xs in itertools.product(range(2), repeat=len(x)):
        post = interventional_distribution(m, dict(zip(x, xs)))
        for ys in itertools.product(range(2), repeat=len(y)):
            want = post.prob_of(dict(zip(y, ys)))
            got = evaluate(expr, t, dict(zip(x, xs)) | dict(zip(y, ys)))
            assert got == pytest.approx(want, abs=1e-9)


# -- identifiable benchmarks -------------------------------------------------

def test_frontdoor_adjustment(frontdoor_cdag):
    result = identify(frontdoor_cdag, ["X"], ["Y"])
    assert isinstance(result, Identified)
    assert render(result.expr) == "Σ_{s,z} P(s|x,z) Σ_{x'} P(z) P(x'|z) P(y|s,x',z)"
    closed_form = Sum(["S"], Product([
        CondProb(["S"], ["X"]),
        Sum(["X'"], Product([CondProb(["Y"], ["X'", "S"]), CondProb(["X'"])])),
    ]))
    for t in compatible_tables(frontdoor_cdag, 5):
        assert equivalent_on(result.expr, closed_form, t)
    assert_matches_oracle(frontdoor_cdag, ["X"], ["Y"], result.expr)


def test_backdoor_adjustment(backdoor_cdag):
    result = identify(backdoor_cdag, ["X"], ["Y"])
    assert isinstance(result, Identified)
    assert render(result.expr) == "Σ_z P(y|x,z) P(z)"
    assert_matches_oracle(backdoor_cdag, ["X"], ["Y"], result.expr)


def test_split_covariates_adjustment(split_covariates_cdag):
    result = identify(split_covariates_cdag, ["X"], ["Y"])
    assert isinstance(result, Identified)
    assert render(result.expr) == "Σ_{z1} (Σ_{z2} P(z2|z1) P(y|x,z1,z2)) P(z1)"
    closed_form = Sum(["Z1", "Z2"], Product([CondProb(["Y"], ["X", "Z1", "Z2"]),
                                       CondProb(["Z1", "Z2"])]))
    for t in compatible_tables(split_covariates_cdag, 5):
        assert equivalent_on(result.expr, closed_form, t)
    assert_matches_oracle(split_covariates_cdag, ["X"], ["Y"], result.expr)


def test_split_treatments_adjustment(split_treatments_cdag):
    result = identify(split_treatments_cdag, ["X1", "X2"], ["Y"])
    assert isinstance(result, Identified)
    assert render(result.expr) == "Σ_{z,x1'} P(x1') P(z|x1') P(y|x1',x2,z)"
    closed_form = Sum(["Z", "X1'"], Product([CondProb(["Y"], ["X1'", "X2", "Z"]),
                                       CondProb(["X1'", "Z"])]))
    for t in compatible_tables(split_treatments_cdag, 5):
        assert equivalent_on(result.expr, closed_form, t)
    assert_matches_oracle(split_treatments_cdag, ["X1", "X2"], ["Y"], result.expr)


def test_sequential_joint_intervention(sequential_admg):
    c = singleton_cdag(sequential_admg)
    result = identify(c, ["X1", "X2"], ["Y1", "Y2"])
    assert isinstance(result, Identified)
    assert render(result.expr) == "P(y1|x1,x2) Σ_{x1'} P(x1') P(y2|x1',x2,y1)"
    closed_form = Product([
        CondProb(["Y1"], ["X1", "X2"]),
        Sum(["X1'"], Product([CondProb(["Y2"], ["X1'", "X2", "Y1"]),
                              CondProb(["X1'"])])),
    ])
    for t in compatible_tables(c, 5):
        assert equivalent_on(result.expr, closed_form, t)
    assert_matches_oracle(c, ["X1", "X2"], ["Y1", "Y2"], result.expr)


def test_frontdoor_on_variable_level_model(med_admg, med_partition, frontdoor_cdag):
    # Both the classical front-door form and the engine's output, with the
    # covariate cluster expanded to its four member variables, reproduce
    # the truncated-factorization oracle of a seven-variable model.
    m = random_cbn(med_admg, {v: 2 for v in med_admg.nodes}, seed=71)
    t = joint_distribution(m)
    clusters = med_partition.to_cluster_map()
    closed_form = Sum(["S"], Product([
        CondProb(["S"], ["X"]),
        Sum(["X'"], Product([CondProb(["Y"], ["X'", "S"]), CondProb(["X'"])])),
    ]))
    mine = identify(frontdoor_cdag, ["X"], ["Y"]).expr
    for x in range(2):
        post = interventional_distribution(m, {"X": x})
        for y in range(2):
            want = post.prob_of({"Y": y})
            assign = {"X": x, "Y": y}
            assert evaluate(closed_form, t, assign, clusters) == pytest.approx(
                want, abs=1e-9)
            assert evaluate(mine, t, assign, clusters) == pytest.approx(
                want, abs=1e-9)


def test_identified_sum_normalizes(frontdoor_cdag):
    expr = identify(frontdoor_cdag, ["X"], ["Y"]).expr
    for t in compatible_tables(frontdoor_cdag, 3, start_seed=40):
        for x in range(2):
            total = sum(evaluate(expr, t, {"X": x, "Y": y}) for y in range(2))
            assert total == pytest.approx(1.0, abs=1e-9)


# -- non-identifiable benchmarks ---------------------------------------------

def test_confounded_cluster_not_identifiable(confounded_cdag):
    result = identify(confounded_cdag, ["X"], ["Y"])
    assert isinstance(result, NonIdentified)
    h = result.hedge
    assert h.intersected_x == {"X"}
    assert "X" not in h.forest_fprime.nodes


def test_merged_covariates_not_identifiable(merged_covariates_cdag):
    result = identify(merged_covariates_cdag, ["X"], ["Y"])
    assert isinstance(result, NonIdentified)


def test_merged_mediator_not_identifiable(merged_mediator_cdag):
    result = identify(merged_mediator_cdag, ["X"], ["Y"])
    assert isinstance(result, NonIdentified)
    assert result.hedge.root_set == {"W"}


def test_bow_not_identifiable(bow_cdag):
    result = identify(bow_cdag, ["X"], ["Y"])
    assert isinstance(result, NonIdentified)
    h = result.hedge
    assert h.root_set == {"Y"}
    assert set(h.forest_f.nodes) == {"X", "Y"}
    assert h.forest_f.directed == {("X", "Y")}
    assert h.forest_f.bidirected == {("X", "Y")}
    assert set(h.forest_fprime.nodes) == {"Y"}
    assert not h.forest_fprime.directed and not h.forest_fprime.bidirected


def test_hedge_validates_with_treatment_outside_ancestors(confounded_cdag):
    # W is a child of Y confounded with X, so it is not an ancestor of Y;
    # the hedge is found on An(Y) and still validated on the full graph.
    g = confounded_cdag.graph
    c = ClusterDag(Admg(g.nodes + ("W",), g.directed | {("Y", "W")},
                        g.bidirected | {("W", "X")}))
    result = identify(c, ["X", "W"], ["Y"])
    assert isinstance(result, NonIdentified)
    assert result.hedge == identify(confounded_cdag, ["X"], ["Y"]).hedge
    assert result.hedge.intersected_x == {"X"}


# -- witnesses ----------------------------------------------------------------

def test_hedge_expansion_witness_sizes_one(confounded_cdag):
    h = identify(confounded_cdag, ["X"], ["Y"]).hedge
    g = hedge_expansion_witness(confounded_cdag, h, {"X": 1, "Y": 1, "Z": 1})
    assert g == confounded_cdag.graph
    assert isinstance(identify(singleton_cdag(g), ["X"], ["Y"]), NonIdentified)


def test_hedge_expansion_witness_chain(confounded_cdag):
    # the default expansion: Z_1 carries every edge of Z, Z_2 and Z_3 none
    h = identify(confounded_cdag, ["X"], ["Y"]).hedge
    g = hedge_expansion_witness(confounded_cdag, h, {"X": 1, "Y": 1, "Z": 3})
    assert g == Admg(["X", "Y", "Z_1", "Z_2", "Z_3"], [("Z_1", "Y"), ("X", "Y")],
                     [("X", "Z_1"), ("Y", "Z_1")])
    result = identify(singleton_cdag(g), ["X"], ["Y"])
    assert isinstance(result, NonIdentified)


def test_hedge_expansion_witness_validates_sizes(confounded_cdag):
    h = identify(confounded_cdag, ["X"], ["Y"]).hedge
    with pytest.raises(ValueError):
        hedge_expansion_witness(confounded_cdag, h, {"X": 1, "Y": 0, "Z": 1})


def test_hedge_expansion_witness_rejects_a_foreign_hedge(confounded_cdag, bow_cdag):
    # the confounded hedge's forest names Z, which the bow graph lacks
    h = identify(confounded_cdag, ["X"], ["Y"]).hedge
    with pytest.raises(ValueError, match="^hedge does not belong to this cluster DAG$"):
        hedge_expansion_witness(bow_cdag, h, {"X": 1, "Y": 1, "Z": 1})


# -- the pieces ---------------------------------------------------------------

# The factor of a c-component: the chain terms of its members.
def test_q_factor_single_root():
    table = _chain_table(Admg(["A", "B"], [("A", "B")]).topological_order())
    assert _chain_factor(table, ["A"]) == CondProb(["A"])


def test_q_factor_whole_graph_is_chain_product():
    table = _chain_table(Admg(["X", "Y"], [("X", "Y")], [("X", "Y")]).topological_order())
    assert _chain_factor(table, ["X", "Y"]) == Product([CondProb(["X"]), CondProb(["Y"], ["X"])])


def test_q_factor_confounded(confounded_cdag):
    # Deterministic topological order is X, Z, Y (lexicographic roots first).
    table = _chain_table(confounded_cdag.graph.topological_order())
    assert _chain_factor(table, ["X", "Y", "Z"]) == Product(
        [CondProb(["X"]), CondProb(["Z"], ["X"]), CondProb(["Y"], ["X", "Z"])])


# Primed names between their neighbours in name order: the prime sorts
# before every digit and letter, so "V2" < "V2'" < "V20" < "V2a".
CHAIN_NAMES = ["A", "A'", "A''", "B", "B'", "V1", "V10", "V2", "V2'", "V20", "V2a", "Y'"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(order=st.lists(st.sampled_from(CHAIN_NAMES), min_size=2, unique=True))
def test_chain_table_equals_checked_conditionals(order):
    assume(order != sorted(order))
    table = _chain_table(tuple(order))
    assert list(table) == order
    for i, v in enumerate(order):
        want = CondProb([v], order[:i])
        assert table[v] == want
        assert (table[v].target, table[v].given) == (want.target, want.given)


def test_chain_factors_of_a_query_share_the_table_nodes():
    # A and B are separate c-components of G[An(Y) \ X] with one enclosing
    # district {A, B, X}, whose chain factor enters the expression twice:
    # each P(v | prefix) in it is one object.
    c = ClusterDag(Admg(["A", "B", "X", "Y"], [("A", "Y"), ("B", "Y"), ("X", "Y")],
                        [("A", "X"), ("B", "X")]))
    nodes, seen = {}, []

    def walk(node):
        if isinstance(node, CondProb):
            seen.append(node)
            assert nodes.setdefault(node, node) is node
        elif isinstance(node, Product):
            for f in node.factors:
                walk(f)
        else:
            walk(node.body)

    walk(_run(c, frozenset(["X"]), frozenset(["Y"]))[0])
    assert (len(seen), len(nodes)) == (7, 4)


def test_q_decomposition_identity(med_admg):
    # The product of all c-component factors evaluates to the joint.
    c = singleton_cdag(med_admg)
    m = random_cbn(med_admg, {v: 2 for v in med_admg.nodes}, seed=31)
    t = joint_distribution(m)
    table = _chain_table(c.graph.topological_order())
    exprs = [_chain_factor(table, comp) for comp in c_components(c.graph)]
    for state in itertools.product(range(2), repeat=len(med_admg.nodes)):
        assignment = dict(zip(med_admg.nodes, state))
        prod = 1.0
        for e in exprs:
            prod *= evaluate(e, t, assignment)
        assert prod == pytest.approx(t.prob_of(assignment), abs=1e-9)


# An(y) within the clusters kept, which leave X out
def test_ancestral_reduce_chain():
    g = Admg(["M", "X", "Y"], [("X", "M"), ("M", "Y")])
    assert _ancestral_reduce(g, frozenset({"M", "Y"}), frozenset({"Y"})) == {"M", "Y"}


def test_ancestral_reduce_drops_isolated():
    g = Admg(["W", "X", "Y"], [("X", "Y")])
    assert _ancestral_reduce(g, frozenset({"W", "Y"}), frozenset({"Y"})) == {"Y"}


def test_ancestral_reduce_frontdoor(frontdoor_cdag):
    keep = frozenset(frontdoor_cdag.graph.nodes) - {"X"}
    assert _ancestral_reduce(frontdoor_cdag.graph, keep, frozenset({"Y"})) == {"S", "Y", "Z"}


def test_reachability_matches_edge_list_oracles():
    # the districts and ancestral reductions identify reads by walking the
    # sibling and parent maps, against rescans of the edge lists
    rng = rng_for(41)
    for _ in range(200):
        g = random_admg(rng, int(rng.integers(1, 9)), p_dir=rng.random(), p_bi=rng.random())
        nodes = frozenset(g.nodes)
        for comp in c_components(g):
            for v in comp:
                assert _district(g, {v}, nodes) == comp
        keep = frozenset(v for v in g.nodes if rng.random() < 0.7)
        y = frozenset(v for v in keep if rng.random() < 0.3)
        inside = [(t, h) for t, h in g.directed if t in keep and h in keep]
        assert _ancestral_reduce(g, keep, y) == _cut_ancestors(inside, (), y)


def test_observational_marginal(backdoor_cdag):
    # an empty intervention is line 1 of ID: the plain marginal P(y)
    expr = identify(backdoor_cdag, [], ["Y"]).expr
    m = random_cbn(backdoor_cdag.graph, {v: 2 for v in "XYZ"}, seed=32)
    t = joint_distribution(m)
    for y in range(2):
        assert evaluate(expr, t, {"Y": y}) == pytest.approx(
            t.prob_of({"Y": y}), abs=1e-12)


def test_invalid_queries(backdoor_cdag):
    with pytest.raises(GraphError):
        identify(backdoor_cdag, ["X"], ["X"])
    with pytest.raises(GraphError):
        identify(backdoor_cdag, ["X"], [])
    with pytest.raises(GraphError):
        identify(backdoor_cdag, ["Q"], ["Y"])


@pytest.mark.parametrize("x", ["X", "Y"])
def test_treatment_outside_ancestors_is_marginal(capsys, x):
    # In graphs/confounded.cdag neither X nor Y is an ancestor of Z.
    confounded = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "graphs", "confounded.cdag")
    assert main(["identify", confounded, "-x", x, "-y", "Z"]) == 0
    assert capsys.readouterr().out == "P(z)\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_non_ancestors_do_not_change_identification(seed):
    # Clusters W1.. hang below An(Y): edges leave An(Y) but never enter
    # it, and bidirected edges join them to An(Y) and to each other.
    rng = rng_for(seed)
    g = random_admg(rng, int(rng.integers(2, 7)), p_dir=0.5, p_bi=0.3)
    y = g.topological_order()[-1]
    an_y = g.ancestral_closure([y])
    core = Admg(an_y, [(t, h) for t, h in g.directed if h in an_y],
                [(a, b) for a, b in g.bidirected if a in an_y and b in an_y])
    candidates = [v for v in core.nodes if v != y]
    if not candidates:
        return
    x = {v for v in candidates if rng.random() < 0.5} or {candidates[0]}
    extra = [f"W{i}" for i in range(1, int(rng.integers(1, 5)) + 1)]
    directed = set(core.directed)
    bidirected = set(core.bidirected) | {(extra[0], str(rng.choice(core.nodes)))}
    for i, w in enumerate(extra):
        for v in core.nodes:
            if rng.random() < 0.4:
                directed.add((v, w))
            if rng.random() < 0.4:
                bidirected.add((w, v))
        for u in extra[:i]:
            if rng.random() < 0.4:
                directed.add((u, w))
            if rng.random() < 0.3:
                bidirected.add((u, w))
    full = Admg(core.nodes + tuple(extra), directed, bidirected)
    assert full.ancestral_closure([y]) == set(core.nodes)
    x_extra = {w for w in extra if rng.random() < 0.3}

    want = identify(ClusterDag(core), x, [y])
    got = identify(ClusterDag(full), x | x_extra, [y])
    assert type(got) is type(want)
    if isinstance(want, Identified):
        assert render(got.expr) == render(want.expr)
    else:
        assert got.hedge == want.hedge


def test_singleton_consistency_with_admg_engine():
    # Wrapping an Admg with or without the singleton partition gives the
    # same verdicts and formulas.
    rng = rng_for(37)
    for _ in range(30):
        g = random_admg(rng, int(rng.integers(3, 7)))
        nodes = list(g.nodes)
        x, y = nodes[0], nodes[-1]
        if x == y:
            continue
        bare = identify(ClusterDag(g), [x], [y])
        wrapped = identify(singleton_cdag(g), [x], [y])
        assert type(bare) is type(wrapped)
        if isinstance(bare, Identified):
            assert bare.expr == wrapped.expr


def test_identified_formulas_sound_on_random_graphs():
    rng = rng_for(41)
    hits = 0
    for _ in range(40):
        g = random_admg(rng, int(rng.integers(3, 6)), p_dir=0.5, p_bi=0.3)
        nodes = list(g.nodes)
        x, y = nodes[0], nodes[-1]
        result = identify(singleton_cdag(g), [x], [y])
        if not isinstance(result, Identified):
            continue
        hits += 1
        assert_matches_oracle(singleton_cdag(g), [x], [y], result.expr,
                              seed=int(rng.integers(10 ** 6)))
    assert hits >= 10


def test_identified_sweep_queries_match_the_oracle_at_12_to_20_variables():
    # Sweep queries whose An({x, y}) has 12-20 nodes, a width at which a
    # chain factor that drops part of its prefix shows.  The model lives on
    # G[An({x, y})], which is ancestral, so its interventional tables are
    # those of a model of the whole graph.
    rng = rng_for(4242)
    counts = {"identified": 0, "hedge": 0, "skipped": 0}
    for kind, n in [("dense", 16), ("dense", 20), ("sparse", 30), ("sparse", 40)]:
        for _ in range(4):
            c, x, y = sweep_query(rng, kind, n)
            keep = c.graph.ancestral_closure({x, y})
            if not 12 <= len(keep) <= 20:
                counts["skipped"] += 1
                continue
            result = identify(c, [x], [y])
            if not isinstance(result, Identified):
                counts["hedge"] += 1
                continue
            counts["identified"] += 1
            inside = [[e for e in edges if keep.issuperset(e)]
                      for edges in (c.graph.directed, c.graph.bidirected)]
            model = random_cbn(Admg(sorted(keep), *inside), dict.fromkeys(sorted(keep), 2),
                               seed=int(rng.integers(10 ** 6)))
            variables, values = tabulate(result.expr, joint_distribution(model))
            for xv in (0, 1):
                post = interventional_distribution(model, {x: xv})
                for yv in (0, 1):
                    got = float(values[tuple({x: xv, y: yv}[v] for v in variables)])
                    assert got == pytest.approx(post.prob_of({y: yv}), abs=1e-9), (kind, n)
    assert counts == {"identified": 9, "hedge": 5, "skipped": 2}


def test_identified_cluster_queries_match_the_oracle_at_12_to_20_variables():
    # Queries of 1-2 clusters each on C-DAGs of 6-10 clusters, each checked
    # on one expansion of 12-20 variables with the partition's cluster map.
    # A model the state cap refuses is counted by the function that refused
    # it: a full cross policy can give CPTs of more than 2^22 entries, and a
    # wide noise frontier a joint contraction of more.
    rng = rng_for(4343)
    counts = collections.Counter()
    for _ in range(75):
        c = random_cdag(rng, int(rng.integers(6, 11)), p_dir=0.4, p_bi=0.15)
        nodes = list(c.graph.nodes)
        rng.shuffle(nodes)
        kx, ky = rng.integers(1, 3, size=2)
        x, y = nodes[:kx], nodes[kx:kx + ky]
        result = identify(c, x, y)
        if not isinstance(result, Identified):
            counts["hedge"] += 1
            continue
        graph, partition = random_expansion(rng, c)
        if not 12 <= len(graph.nodes) <= 20:
            counts["skipped"] += 1
            continue
        try:
            dev = oracle_deviation(x, y, result.expr, graph, partition,
                                   model_seed=int(rng.integers(10 ** 6)))
        except StateSpaceCapError as err:
            counts[str(err).split(":")[0]] += 1
            continue
        assert dev < 1e-9, (c.graph, x, y, dev)
        counts["identified"] += 1
    assert counts == collections.Counter(identified=35, hedge=14, skipped=16,
                                         random_cbn=0, joint_distribution=10)


SWEEP_DIGEST = "edd7a52f4594e79296f394c300549d42815dc94f0a7f144154b1b706bfac4f77"


def test_sweep_renderings_keep_their_bytes():
    # SHA-256 over the text, LaTeX and JSON renderings and the hedge
    # descriptions of four queries at every sweep point up to n = 60.  It
    # guards the exact output of identification and simplification, which
    # the golden formulas cover only on a few small graphs.  The digest
    # was taken with the earlier simplify that repeated its pass until
    # nothing changed.
    digest = hashlib.sha256()
    outcomes = set()
    for kind, n in [("sparse", 10), ("sparse", 20), ("sparse", 40), ("sparse", 60),
                    ("dense", 20), ("dense", 40), ("dense", 60)]:
        rng = rng_for(n + (1000 if kind == "dense" else 0) + 77)
        for _ in range(4):
            c, x, y = sweep_query(rng, kind, n)
            result = identify(c, [x], [y])
            outcomes.add(result.identifiable)
            texts = ([render(result.expr, fmt) for fmt in ("text", "latex", "json")]
                     if result.identifiable else [result.hedge.describe()])
            digest.update("\0".join([kind, str(n), x, y] + texts).encode() + b"\1")
    assert outcomes == {True, False}
    assert digest.hexdigest() == SWEEP_DIGEST

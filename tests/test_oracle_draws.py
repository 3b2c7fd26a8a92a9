"""Bit-identity of the vectorized draws against row-wise reference samplers.

``reference_random_cbn`` and ``reference_sample_dataset`` keep the original
row-at-a-time algorithms (one Dirichlet draw per CPT row, one
``Generator.choice`` per exogenous variable and a gathered cumulative sum
per row).  They live here only as oracles: the library's whole-column
code must reproduce their output exactly for every seed.
"""

import numpy as np
import pytest

from cdag import Admg, expand, random_cbn, sample_dataset
from cdag.oracle import DiscreteCbn, Mechanism
from cdag.sampler import CrossPolicy, ExpansionSpec, InternalPolicy

from randutil import random_cdag, rng_for


def _reference_row(rng, size):
    row = rng.dirichlet(np.ones(size))
    row = np.clip(row, 1e-6, None)
    return row / row.sum()


def reference_random_cbn(g, cards, seed, exo_card=2, deterministic=False):
    rng = np.random.default_rng(seed)
    taken = set(g.nodes)
    edge_noise = {}
    for a, b in sorted(g.bidirected):
        name = f"U({a}~{b})"
        while name in taken:
            name += "'"
        taken.add(name)
        edge_noise[(a, b)] = name
    private_noise = {}
    for v in g.nodes:
        name = f"U({v})"
        while name in taken:
            name += "'"
        taken.add(name)
        private_noise[v] = name

    exo_cards, exo_dists = {}, {}
    for _, name in sorted(edge_noise.items()):
        exo_cards[name] = exo_card
        exo_dists[name] = _reference_row(rng, exo_card)
    for v in g.nodes:
        name = private_noise[v]
        exo_cards[name] = cards[v] if deterministic else exo_card
        exo_dists[name] = _reference_row(rng, exo_cards[name])

    mechanisms = {}
    for v in g.nodes:
        endo = tuple(sorted(g.parents([v])))
        incident = [edge_noise[e] for e in sorted(edge_noise) if v in e]
        exo = tuple(sorted(incident + [private_noise[v]]))
        m = cards[v]
        if deterministic:
            shared = tuple(u for u in exo if u != private_noise[v])
            cpt = np.zeros(tuple(cards[p] for p in endo) +
                           tuple(exo_cards[u] for u in shared) + (m, m))
            for row in cpt.reshape(-1, m, m):
                perm = rng.permutation(m)
                for u_val in range(m):
                    row[u_val, perm[u_val]] = 1.0
            axes_order = endo + shared + (private_noise[v], v)
            cpt = np.transpose(cpt, [axes_order.index(a) for a in endo + exo + (v,)])
        else:
            cpt = np.zeros(tuple(cards[p] for p in endo) +
                           tuple(exo_cards[u] for u in exo) + (m,))
            flat = cpt.reshape(-1, m)
            for i in range(flat.shape[0]):
                flat[i] = _reference_row(rng, m)
        mechanisms[v] = Mechanism(endo, exo, cpt)
    return DiscreteCbn(g, cards, exo_cards, exo_dists, mechanisms, deterministic)


def reference_sample_dataset(m, n, seed):
    rng = np.random.default_rng(seed)
    nodes = m.graph.nodes
    if n == 0:
        return np.zeros((0, len(nodes)), dtype=np.int64)
    exo_values = {name: rng.choice(m.exo_cards[name], size=n, p=m.exo_dists[name])
                  for name in m.exo_names}
    values = {}
    for v in m.graph.topological_order():
        mech = m.mechanisms[v]
        cols = tuple(values[p] for p in mech.endo_parents) + \
            tuple(exo_values[u] for u in mech.exo_parents)
        rows = mech.cpt[cols] if cols else np.broadcast_to(mech.cpt, (n, m.cards[v]))
        u = rng.random(n)
        values[v] = (rows.cumsum(axis=1) > u[:, None]).argmax(axis=1)
    return np.column_stack([values[v] for v in nodes])


def _random_expansion(seed):
    rng = rng_for(seed)
    c = random_cdag(rng, int(rng.integers(2, 5)))
    sizes = {name: int(rng.integers(1, 4)) for name in c.graph.nodes}
    spec = ExpansionSpec(sizes=sizes, internal=InternalPolicy("random", 0.5, 0.4),
                         cross=CrossPolicy("random", 0.3), seed=seed)
    graph, _ = expand(c, spec)
    cards = {v: int(rng.integers(2, 5)) for v in graph.nodes}
    return graph, cards


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("exo_card", [2, 3])
def test_draws_match_row_wise_reference(deterministic, exo_card):
    seen_cards = set()
    for case in range(12):
        graph, cards = _random_expansion(1000 * exo_card + 100 * deterministic + case)
        seen_cards |= set(cards.values())
        model_seed = 7919 * case + exo_card
        got = random_cbn(graph, cards, model_seed, exo_card, deterministic)
        want = reference_random_cbn(graph, cards, model_seed, exo_card, deterministic)
        assert got.exo_names == want.exo_names
        for name in want.exo_names:
            assert np.array_equal(got.exo_dists[name], want.exo_dists[name])
        for v in graph.nodes:
            assert got.mechanisms[v].exo_parents == want.mechanisms[v].exo_parents
            assert np.array_equal(got.mechanisms[v].cpt, want.mechanisms[v].cpt)
        for n in (0, 1, 7, 3000):
            data = sample_dataset(got, n, seed=case + n)
            expected = reference_sample_dataset(want, n, seed=case + n)
            assert data.dtype == expected.dtype and data.flags.c_contiguous
            assert np.array_equal(data, expected)
    assert seen_cards == {2, 3, 4}


def test_sample_dataset_edge_cases_match_reference():
    # A parentless mechanism whose CPT cumulative sum stops short of 1, so
    # uniform draws above it hit the all-False case and take value 0.
    g = Admg(["V"])
    m = DiscreteCbn(g, {"V": 3}, {"U": 2}, {"U": np.array([0.3, 0.7])},
                    {"V": Mechanism((), (), np.array([0.25, 0.25, 0.5]))},
                    deterministic=False)
    m.mechanisms["V"].cpt = np.array([0.25, 0.25, 0.25])
    for n in (0, 1, 7, 3000):
        data = sample_dataset(m, n, seed=n)
        assert np.array_equal(data, reference_sample_dataset(m, n, seed=n))
    assert set(sample_dataset(m, 3000, seed=1)[:, 0]) == {0, 1, 2}

"""Bit-identity of the vectorized draws against row-wise reference samplers.

``reference_sample_dataset`` here and ``oracles.reference_random_cbn`` keep
the original row-at-a-time algorithms (one ``Generator.choice`` per
exogenous variable and a gathered cumulative sum per row, and one
Dirichlet draw per CPT row).  They are oracles only: the library's
whole-column code must reproduce their output exactly for every seed, and
so must the draws whose uniforms a ``draw_ahead`` scope fills in a worker
thread.  Models with ternary noise or one-hot CPTs, which ``random_cbn``
does not draw, come from the reference builder.
"""

import os
import threading

import numpy as np
import pytest

from cdag import Admg, expand, random_cbn, sample_batch, sample_dataset
from cdag.cli import parse_graph
from cdag.oracle import DiscreteCbn, Mechanism, draw_ahead
from cdag.sampler import CrossPolicy, ExpansionSpec, InternalPolicy

from oracles import reference_random_cbn
from randutil import random_cdag, rng_for

GRAPHS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "graphs")


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
        want = reference_random_cbn(graph, cards, model_seed, exo_card, deterministic)
        # the library draws binary stochastic models; the rest are drawn from as built
        got = random_cbn(graph, cards, model_seed) if (exo_card, deterministic) == (2, False) \
            else want
        assert got.exo_names == want.exo_names
        for name in want.exo_names:
            assert np.array_equal(got.exo_dists[name], want.exo_dists[name])
        for v in graph.nodes:
            assert got.mechanisms[v].exo_parents == want.mechanisms[v].exo_parents
            assert np.array_equal(got.mechanisms[v].cpt, want.mechanisms[v].cpt)
        for n in (0, 1, 7, 3000):
            data = sample_dataset(got, n, seed=case + n)
            expected = reference_sample_dataset(want, n, seed=case + n)
            assert np.array_equal(data, expected)
    assert seen_cards == {2, 3, 4}


def test_sample_dataset_edge_cases_match_reference():
    # A parentless mechanism whose CPT cumulative sum stops short of 1, so
    # uniform draws above it hit the all-False case and take value 0.
    g = Admg(["V"])
    m = DiscreteCbn(g, {"V": 3}, {"U": 2}, {"U": np.array([0.3, 0.7])},
                    {"V": Mechanism((), (), np.array([0.25, 0.25, 0.5]))})
    m.mechanisms["V"].cpt = np.array([0.25, 0.25, 0.25])
    for n in (0, 1, 7, 3000):
        data = sample_dataset(m, n, seed=n)
        assert np.array_equal(data, reference_sample_dataset(m, n, seed=n))
    assert set(sample_dataset(m, 3000, seed=1)[:, 0]) == {0, 1, 2}


def _assert_matches_reference(m, n, seed):
    assert np.array_equal(sample_dataset(m, n, seed), reference_sample_dataset(m, n, seed))


def test_values_wider_than_uint8_match_reference():
    # A holds 300 levels, so every column needs 16 bits; B's CPT has 300 x 2
    # rows, C's only 2, so C's row index is narrower than the columns.
    g = Admg(["A", "B", "C"], directed={("A", "B")})
    m = random_cbn(g, {"A": 300, "B": 3, "C": 2}, seed=4)
    for n in (0, 1, 7, 3000):
        _assert_matches_reference(m, n, seed=n)
    assert np.ptp(sample_dataset(m, 3000, seed=1)[:, 0]) > 255


def test_cpt_with_more_than_65536_rows_matches_reference():
    # a binary child of 17 binary parents: 2**17 parent rows times its
    # private noise, so the row index needs more than 16 bits
    parents = [f"P{i}" for i in range(17)]
    g = Admg(parents + ["Y"], directed={(p, "Y") for p in parents})
    m = random_cbn(g, {v: 2 for v in g.nodes}, seed=2)
    assert m.mechanisms["Y"].cpt.size // 2 > 65536
    for n in (1, 3000):
        _assert_matches_reference(m, n, seed=n)


def test_axis_as_long_as_the_table_matches_reference():
    # B's only axis is A's 256 levels: the row count equals the axis length
    # and both reach past uint8's largest value.
    g = Admg(["A", "B"], directed={("A", "B")})
    rng = np.random.default_rng(0)
    m = DiscreteCbn(g, {"A": 256, "B": 2}, {}, {},
                    {"A": Mechanism((), (), rng.dirichlet(np.ones(256))),
                     "B": Mechanism(("A",), (), rng.dirichlet(np.ones(2), size=256))})
    for n in (0, 7, 3000):
        _assert_matches_reference(m, n, seed=n)


@pytest.mark.parametrize("seed", range(5))
def test_backdoor_expansion_matches_reference(seed):
    # the criterion-10 diagrams: Z expanded to 10 variables at the default
    # bidirected density of 0.3
    with open(os.path.join(GRAPHS, "backdoor.cdag"), encoding="utf-8") as fh:
        cdag = parse_graph(fh.read()).cdag
    spec = ExpansionSpec(sizes={"Z": 10}, internal=InternalPolicy("random", 0.5, 0.3),
                         cross=CrossPolicy("random", 0.15), seed=seed)
    (graph, _), = sample_batch(cdag, spec, 1)
    m = random_cbn(graph, {v: 2 for v in graph.nodes}, seed=seed)
    _assert_matches_reference(m, 3000, seed=seed)


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("cards, dtype", [({"A": 2, "B": 2, "C": 2}, np.uint8),
                                          ({"A": 3, "B": 3, "C": 2}, np.uint8),
                                          ({"A": 300, "B": 3, "C": 2}, np.uint16)])
def test_narrow_columns_hold_the_dataset(cards, dtype, deterministic):
    # the (n, k) view that simulate counts from: the dataset's values in
    # the narrowest dtype that holds every level, one column per variable
    g = Admg(["A", "B", "C"], directed={("A", "B"), ("B", "C")}, bidirected={("A", "C")})
    m = reference_random_cbn(g, cards, 9, deterministic=True) if deterministic else \
        random_cbn(g, cards, seed=9)
    for n in (1, 2000):
        columns = sample_dataset(m, n, seed=n)
        assert columns.dtype == dtype and columns.shape == (n, 3)
        assert np.array_equal(columns, reference_sample_dataset(m, n, seed=n))


def _assert_draws_do_not_depend_on_earlier_ones(build, seed):
    # one model drawn from in a shuffled order of (n, seed) pairs: each
    # dataset equals a fresh model's first draw and the row-wise reference,
    # and still does once every later draw is made
    m = build()
    pairs = [(n, s) for n in (0, 1, 7, 500) for s in range(3)]
    drawn = []
    for k in np.random.default_rng(seed).permutation(len(pairs)):
        n, s = pairs[k]
        drawn.append((n, s, sample_dataset(m, n, seed=s)))
        assert np.array_equal(drawn[-1][2], sample_dataset(build(), n, seed=s))
    for n, s, data in drawn:
        assert np.array_equal(data, reference_sample_dataset(m, n, seed=s))


@pytest.mark.parametrize("deterministic", [False, True])
def test_a_model_keeps_one_plan_for_every_draw(deterministic):
    seen_cards = set()
    for case in range(4):
        graph, cards = _random_expansion(500 + 10 * deterministic + case)
        seen_cards |= set(cards.values())
        _assert_draws_do_not_depend_on_earlier_ones(
            lambda: reference_random_cbn(graph, cards, case, 3, deterministic), case)
    assert seen_cards == {2, 3, 4}


def test_a_last_level_below_one_falls_back_on_every_draw():
    # V's cumulative CPT, edited after the model's checks, stops at 0.75:
    # about a quarter of its draws fall back to 0, whatever the draws before
    g = Admg(["V", "W"], directed={("V", "W")})

    def build():
        m = DiscreteCbn(g, {"V": 3, "W": 4}, {}, {},
                        {"V": Mechanism((), (), np.array([0.25, 0.25, 0.5])),
                         "W": Mechanism(("V",), (), np.full((3, 4), 0.25))})
        m.mechanisms["V"].cpt = np.array([0.25, 0.25, 0.25])
        return m
    _assert_draws_do_not_depend_on_earlier_ones(build, 3)
    # a first draw whose one row (u = 0.64 for V) falls back nowhere
    m = build()
    assert sample_dataset(m, 1, seed=0)[0, 0] == 2
    data = sample_dataset(m, 4000, seed=5)
    assert np.array_equal(data, reference_sample_dataset(m, 4000, seed=5))
    assert np.bincount(data[:, 0])[0] > 1700


# -- draws filled ahead by a draw_ahead scope --------------------------------

def _small_model(seed=3):
    # cards 2-4 and exogenous card 3: k = 3 endogenous, 3 private and 1 shared
    # noise column
    g = Admg(["A", "B", "C"], directed={("A", "B"), ("B", "C")}, bidirected={("A", "C")})
    return reference_random_cbn(g, {"A": 2, "B": 3, "C": 4}, seed, exo_card=3)


def _assert_same_dataset(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides and got.tobytes() == want.tobytes()


def _draw_within(m, jobs, asked):
    # the datasets of ``asked`` drawn in that order inside a scope over ``jobs``,
    # each checked against a fresh model's draw outside any scope, with no
    # thread left behind
    threads = threading.active_count()
    with draw_ahead(m, jobs):
        drawn = [sample_dataset(m, n, seed) for n, seed in asked]
    assert threading.active_count() == threads and m._ahead is None
    for (n, seed), data in zip(asked, drawn):
        _assert_same_dataset(data, sample_dataset(_small_model(), n, seed))


def test_draws_ahead_keep_their_bytes_across_block_sizes():
    # one block below and two just above k * n = 2**20, one column per block
    # at n = 2**20, and a job of 2**20 + 1 rows drawn inline
    m = _small_model()
    k = len(m.exo_cards) + len(m.cards)
    below = 2 ** 20 // k
    jobs = [(0, 1), (1, 2), (7, 3), (below, 4), (below + 1, 5), (2 ** 20, 6), (2 ** 20 + 1, 7)]
    _draw_within(m, jobs, jobs)
    for n, seed in jobs[:5]:
        assert np.array_equal(sample_dataset(m, n, seed), reference_sample_dataset(m, n, seed))


def test_repeated_skipped_and_reordered_draws_read_only_their_own_blocks():
    m = _small_model()
    _draw_within(m, [(7, 1), (7, 1), (500, 2)], [(7, 1), (7, 1), (500, 2)])
    # asked out of order: (500, 2) is drawn inline, then each job in turn
    _draw_within(m, [(7, 1), (500, 2), (7, 3)], [(500, 2), (7, 1), (500, 2), (7, 3)])
    # the first job is never asked for, so every draw fills its own
    _draw_within(m, [(7, 1), (500, 2), (7, 3)], [(500, 2), (7, 3)])
    # the draw of the first job stops after one block of seven: the next job
    # passes over the rest and reads its own
    n = 2 ** 20
    threads = threading.active_count()
    with draw_ahead(m, [(n, 1), (500, 2)]):
        next(m._ahead(n, 1))
        _assert_same_dataset(sample_dataset(m, 500, 2), sample_dataset(_small_model(), 500, 2))
    assert threading.active_count() == threads


def test_a_scope_left_by_an_exception_joins_its_worker():
    m = _small_model()
    threads = threading.active_count()
    with pytest.raises(KeyError), draw_ahead(m, [(2 ** 20, seed) for seed in range(4)]):
        sample_dataset(m, 2 ** 20, 0)
        raise KeyError("left")
    assert threading.active_count() == threads and m._ahead is None
    # a job the worker cannot draw fails in the draw as it does outside a scope
    with draw_ahead(m, [(7, -1)]), pytest.raises(ValueError) as within:
        sample_dataset(m, 7, -1)
    with pytest.raises(ValueError) as outside:
        sample_dataset(m, 7, -1)
    assert str(within.value) == str(outside.value)
    assert threading.active_count() == threads


def test_no_thread_starts_without_jobs_to_draw_ahead():
    m = _small_model()
    threads = threading.active_count()
    for jobs in ([], [(2 ** 20 + 1, 0)], [(0, 0)]):
        with draw_ahead(m, jobs):
            assert threading.active_count() == threads
            sample_dataset(m, 1, 0)

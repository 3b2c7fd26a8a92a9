"""Exact discrete causal models: the ground truth everything is checked against.

A model attaches to each variable a conditional probability table given
its endogenous parents and its exogenous parents.  Exogenous structure
mirrors the graph exactly: one shared noise variable per bidirected edge
(a parent of both endpoints and nothing else) plus one private noise
variable per endogenous variable.  Distributions are computed by exact
summation over the exogenous variables, eliminating them one at a time
(variable elimination): each prior is folded in, and its axis summed out,
right after the last factor that uses it, with a hard cap on intermediate
table sizes (override with the CDAG_STATE_CAP environment variable).

Forward samples are drawn column by column into one narrow block, which
``sample_dataset`` returns as an (n, k) view that ``empirical_table``
counts as is.  Within a ``draw_ahead`` scope a worker thread fills the
uniforms of the next draws while the caller works, with the same bytes.
"""

import collections
import contextlib
import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .graphs import Admg, GraphError
from .formula import JointTable, _broadcast


@dataclass(eq=False, slots=True)
class _Factor:
    """A named-axis array: axis ``i`` of ``values`` is ``names[i]``."""

    names: Tuple[str, ...]
    values: np.ndarray


class StateSpaceCapError(ValueError):
    """An exact enumeration would exceed the configured state-space cap.

    The message starts with the public function that tripped the cap."""


def _cap() -> int:
    raw = os.environ.get("CDAG_STATE_CAP", str(2 ** 22))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"CDAG_STATE_CAP must be a positive integer, got {raw!r}")
    return cap


_POSITIVE_FLOOR = 1e-6


def _positive_dirichlet(rng: np.random.Generator, size: int, rows: int) -> np.ndarray:
    # ``rows`` Dirichlet draws of ``size`` outcomes in one call (the same
    # gamma stream, row after row), each clipped away from zero and
    # renormalized.
    draw = rng.dirichlet(np.ones(size), size=rows)
    draw = np.clip(draw, _POSITIVE_FLOOR, None)
    return draw / draw.sum(axis=-1, keepdims=True)


def _check_cap(size: int, axes: int, cap: int, phase: str) -> None:
    if size > cap:
        raise StateSpaceCapError(
            f"{phase}: intermediate table over {axes} axes "
            f"exceeds the cap ({cap} entries); raise CDAG_STATE_CAP to allow it")


def _join(a: _Factor, b: _Factor, cap: int, phase: str, lead=()) -> _Factor:
    # checked first: the product's length on each axis is the larger of the two views'
    names, (a_perm, a_dims), (b_perm, b_dims) = _broadcast(
        a.names, a.values.shape, b.names, b.values.shape, lead)
    _check_cap(math.prod(map(max, a_dims, b_dims)), len(names), cap, phase)
    return _Factor(names, a.values.transpose(a_perm).reshape(a_dims) *
                   b.values.transpose(b_perm).reshape(b_dims))


def _contract(factors: List[_Factor], priors: Dict[str, np.ndarray], keep: Dict[str, int],
              x, phase: str) -> Tuple[Tuple[str, ...], np.ndarray]:
    """Sum the product of the factors over every prior-weighted axis.
    Returns the variables of ``x`` that the factors hold, sorted, which stay
    free, and a dense array over ``keep`` (names and their lengths) then
    them, in that exact order.

    Factors are grouped by shared prior axes and accumulated in their
    given order (callers pass them topologically), folding in each prior
    and summing its axis out as soon as the last factor referencing it
    has been absorbed.  This keeps intermediates near the size of the
    output times the live noise frontier.  Each factor is copied with the
    free axes leading, each slice laid out as ``np.take`` would fix it, and
    they stay first in every product, so each slice is computed exactly as
    the contraction at that one value.
    """
    held, dims = [], {}
    for f in factors:
        fixed = tuple(n for n in f.names if n in x)
        if fixed:
            moved = np.moveaxis(f.values, [f.names.index(n) for n in fixed], range(len(fixed)))
            f = _Factor(fixed + tuple(n for n in f.names if n not in x), np.ascontiguousarray(moved))
            dims.update(zip(fixed, f.values.shape))
        held.append(f)
    free = tuple(sorted(dims))
    _check_state_space([*keep.values(), *(dims[n] for n in free)], phase)
    cap = _cap()
    sum_axes = {n for f in held for n in f.names if n in priors}

    # Union-find grouping of factors over shared summed axes.
    groups: List[List[_Factor]] = []
    axis_group: Dict[str, int] = {}
    for f in held:
        shared = sorted({axis_group[n] for n in f.names if n in axis_group})
        if shared:
            target = shared[0]
            for g in shared[1:]:
                groups[target].extend(groups[g])
                groups[g] = []
                for axis, idx in axis_group.items():
                    if idx == g:
                        axis_group[axis] = target
        else:
            target = len(groups)
            groups.append([])
        groups[target].append(f)
        for n in f.names:
            if n in sum_axes:
                axis_group[n] = target

    results: List[_Factor] = []
    for group in groups:
        if not group:
            continue
        # the summed axes to fold in after each factor: those it uses last
        last = {n: i for i, f in enumerate(group) for n in f.names if n in sum_axes}
        folds = [[] for _ in group]
        for name in sorted(last):
            folds[last[name]].append(name)
        acc = group[0]
        for i, names in enumerate(folds):
            if i:
                acc = _join(acc, group[i], cap, phase, free)
            for name in names:
                # acc times the prior along its axis, as the product of
                # acc and a factor over that axis alone would line them up
                _check_cap(acc.values.size, len(acc.names), cap, phase)
                axis = acc.names.index(name)
                shape = [1] * len(acc.names)
                shape[axis] = -1
                acc = _Factor(acc.names[:axis] + acc.names[axis + 1:],
                              (acc.values * priors[name].reshape(shape)).sum(axis=(axis,)))
        results.append(acc)

    # every prior is folded in within its group, so only keep and free remain
    result = _Factor((), np.array(1.0))
    for f in results:
        result = _join(result, f, cap, phase, free)
    return free, np.transpose(result.values, [result.names.index(n) for n in [*keep, *free]])


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass(eq=False, slots=True)
class Mechanism:
    endo_parents: Tuple[str, ...]
    exo_parents: Tuple[str, ...]
    cpt: np.ndarray


def _check_intervention(x: Dict, cards: Dict[str, int]) -> None:
    # Every intervened name must be a variable, set to an integer state in range.
    unknown = x.keys() - cards.keys()
    if unknown:
        raise GraphError(f"unknown variable(s) in intervention: {sorted(unknown)}")
    for name, value in x.items():
        if not (isinstance(value, (int, np.integer)) and 0 <= value < cards[name]):
            raise GraphError(f"{value!r} is not a state of variable {name!r}")


class DiscreteCbn:
    """A fully parameterized discrete causal model over an Admg."""

    def __init__(self, graph: Admg, cards: Dict[str, int],
                 exo_cards: Dict[str, int], exo_dists: Dict[str, np.ndarray],
                 mechanisms: Dict[str, Mechanism]):
        # One card and a mechanism on the graph's parents per node, and a law per noise card.
        for v in sorted({*graph.nodes, *cards, *mechanisms}):
            if not (v in graph.nodes and v in cards and v in mechanisms) or \
                    sorted(mechanisms[v].endo_parents) != sorted(graph._parents[v]):
                raise GraphError(f"{v!r} needs to be a graph node with a card and a "
                                 "mechanism whose endo_parents are its graph parents")
        for name in sorted(exo_cards.keys() ^ exo_dists.keys()):
            raise GraphError(f"exogenous {name!r} needs both a cardinality and a distribution")
        for name in sorted(exo_cards.keys() & graph._node_set):
            raise GraphError(f"exogenous {name!r} is named like a graph node")
        # Each noise read is known; two variables share one only across a bidirected edge
        readers = collections.defaultdict(list)
        for v in sorted(mechanisms):
            for u in mechanisms[v].exo_parents:
                if u not in exo_cards:
                    raise GraphError(f"{v!r} reads exogenous {u!r}, which has no cardinality")
                if v in readers[u]:
                    raise GraphError(f"{v!r} reads exogenous {u!r} twice")
                readers[u].append(v)
        for u in sorted(readers):
            for a, b in itertools.combinations(readers[u], 2):
                if (a, b) not in graph.bidirected:
                    raise GraphError(f"{a!r} and {b!r} read exogenous {u!r} without a <-> edge")
        exo_dists = {k: np.asarray(v, dtype=float) for k, v in exo_dists.items()}
        # Each table in turn, raising for the first bad one.  A CPT's axes
        # are its parents', its noises' and its own states; a row sums to 1
        # as np.isclose(total, 1.0, atol=1e-12) at its default rtol, failing NaN.
        tol = 1e-12 + 1e-5
        shapes = {v: tuple(map(cards.get, m.endo_parents)) + tuple(
            map(exo_cards.get, m.exo_parents)) + (cards[v],) for v, m in mechanisms.items()}
        for name in sorted(exo_cards):
            law = exo_dists[name]
            if law.shape != (exo_cards[name],) or not law.min(initial=1.0) > 0 or \
                    not abs(law.sum() - 1.0) <= tol:
                raise GraphError(f"exogenous {name!r} needs a strictly positive "
                                 "distribution of matching cardinality summing to 1")
        for v, mech in mechanisms.items():
            if mech.cpt.shape != shapes[v]:
                raise GraphError(f"CPT of {v!r} has shape {mech.cpt.shape}, not "
                                 f"{shapes[v]} from its parents, noises and states")
            rows = mech.cpt.reshape(-1, cards[v])
            if not (rows.min(initial=0.0) >= 0 and
                    np.abs(rows.sum(axis=1) - 1.0).max(initial=0.0) <= tol):
                raise GraphError(f"CPT rows of {v!r} must be nonnegative and sum to 1")
        self._link(graph, cards, exo_cards, exo_dists, mechanisms)

    @classmethod
    def _trusted(cls, *fields) -> "DiscreteCbn":
        # For random_cbn's own draws, every table of its shape and every row
        # a law, with float laws in a dict of their own: no check runs.
        m = object.__new__(cls)
        m._link(*fields)
        return m

    def _link(self, graph, cards, exo_cards, exo_dists, mechanisms):
        self.graph = graph
        self.cards = dict(cards)
        self.exo_cards = dict(exo_cards)
        self.exo_dists = exo_dists
        self.mechanisms = mechanisms
        self.exo_names = tuple(sorted(exo_cards))
        # Each variable's table over its parents and shared noise, with its
        # private noise, which feeds no other mechanism, summed out by the
        # np.dot that np.tensordot issues, on the operands it would build.
        users = collections.Counter(u for mech in mechanisms.values() for u in mech.exo_parents)
        self._factors: Dict[str, _Factor] = {}
        for v, mech in mechanisms.items():
            factor = _Factor(mech.endo_parents + mech.exo_parents + (v,), mech.cpt)
            for name in (u for u in mech.exo_parents if users[u] == 1):
                values, axis = factor.values, factor.names.index(name)
                rest = [k for k in range(values.ndim) if k != axis]
                kept, dist = [values.shape[k] for k in rest], self.exo_dists[name]
                at = values.transpose(rest + [axis]).reshape((math.prod(kept), values.shape[axis]))
                factor = _Factor(factor.names[:axis] + factor.names[axis + 1:],
                                 np.dot(at, dist.reshape((dist.shape[0], 1))).reshape(kept))
            self._factors[v] = factor
        # the exact tables, by intervened set; the joint's is the empty set's
        self._posts: Dict[frozenset, Tuple[Tuple[str, ...], np.ndarray]] = {}
        self._draw = None    # sample_dataset's plan, built by the first draw
        self._ahead = None   # the take of a draw_ahead scope open on the model


def _exo_name(label: str, taken: set) -> str:
    # A fresh noise name U(label), primed until it is unused, and taken.
    name = f"U({label})"
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def random_cbn(g: Admg, cards: Dict[str, int], seed: int) -> DiscreteCbn:
    """A reproducible random model on ``g`` with binary noise.

    Every exogenous law and CPT row is drawn from a symmetric Dirichlet,
    clipped away from zero and renormalized, so the joint distribution
    has full support.  Each run of consecutive rows of equal width,
    exogenous laws and CPT rows alike, takes one batched draw, which
    consumes the generator exactly as row-by-row draws would, so a seed
    gives the same model bit for bit.  Every table is checked against the
    state cap before anything is drawn.
    """
    for v in g.nodes:
        if cards.get(v, 0) < 2:
            raise GraphError(f"cardinality for {v!r} must be an integer >= 2")

    cap = _cap()
    taken = set(g.nodes)
    # keyed in sorted edge order, which every use below keeps
    edge_noise = {(a, b): _exo_name(f"{a}~{b}", taken) for a, b in sorted(g.bidirected)}
    private_noise = {v: _exo_name(v, taken) for v in g.nodes}
    exo_cards = dict.fromkeys([*edge_noise.values(), *private_noise.values()], 2)

    noises = {v: [name] for v, name in private_noise.items()}
    for (a, b), name in edge_noise.items():
        noises[a].append(name)
        noises[b].append(name)
    mechanisms: Dict[str, Mechanism] = {}
    shapes = {}
    for v in g.nodes:
        mechanisms[v] = mech = Mechanism(tuple(sorted(g._parents[v])),
                                         tuple(sorted(noises[v])), None)
        shapes[v] = tuple(cards[p] for p in mech.endo_parents) + \
            tuple(exo_cards[u] for u in mech.exo_parents) + (cards[v],)
        _check_state_space(shapes[v], "random_cbn", f"{v!r} CPT", cap)

    # Every Dirichlet row in stream order, the exogenous laws and then each
    # CPT's rows, with one draw per run of equal widths.
    rng = np.random.default_rng(seed)
    rows = [(card, 1) for card in exo_cards.values()]
    rows += [(shape[-1], math.prod(shape[:-1])) for shape in shapes.values()]
    draws = []
    for width, run in itertools.groupby(rows, key=lambda row: row[0]):
        counts = [count for _, count in run]
        block = _positive_dirichlet(rng, width, sum(counts))
        draws += [block[end - count:end] for count, end in zip(counts, itertools.accumulate(counts))]
    exo_dists = {name: draw.reshape(-1) for name, draw in zip(exo_cards, draws)}
    for v, draw in zip(g.nodes, draws[len(exo_cards):]):
        mechanisms[v].cpt = draw.reshape(shapes[v])
    return DiscreteCbn._trusted(g, cards, exo_cards, exo_dists, mechanisms)


# ---------------------------------------------------------------------------
# exact distributions
# ---------------------------------------------------------------------------

def _check_state_space(cards: Iterable[int], phase: str, space: str = "joint",
                       cap: Optional[int] = None):
    size, cap = math.prod(cards), cap or _cap()
    if size > cap:
        raise StateSpaceCapError(f"{phase}: {space} state space of {size} entries exceeds "
                                 f"the cap ({cap}); raise CDAG_STATE_CAP")


def _exact(m: DiscreteCbn, x: Dict[str, int], phase: str) -> JointTable:
    # The table after forcing ``x``: each intervened set is contracted once
    # per model with its values held free, kept read-only, and sliced per call.
    keep = tuple(v for v in m.graph.nodes if v not in x)
    if frozenset(x) not in m._posts:
        factors = [m._factors[v] for v in m.graph.topological_order() if v not in x]
        free, table = _contract(factors, m.exo_dists, {v: m.cards[v] for v in keep}, x, phase)
        table.flags.writeable = False
        m._posts[frozenset(x)] = free, table
    free, table = m._posts[frozenset(x)]
    return JointTable._trusted(keep, table[(..., *(x[v] for v in free))])


def joint_distribution(m: DiscreteCbn) -> JointTable:
    """Exact observational distribution over the endogenous variables: the
    empty intervention's table, kept read-only on the model."""
    return _exact(m, {}, "joint_distribution")


def interventional_distribution(m: DiscreteCbn, x: Dict[str, int]) -> JointTable:
    """Exact distribution after forcing ``x``, by truncated factorization:
    the intervened variables' factors are dropped and their values fixed
    wherever they appear as parents."""
    _check_intervention(x, m.cards)
    return _exact(m, x, "interventional_distribution")


def _draw_plan(m: DiscreteCbn):
    # What each draw from ``m`` reads: the block's dtype, each exogenous
    # column with its CDF, and each endogenous one in topological order with
    # its levels, its parents' (column, axis length) pairs, its row-index
    # dtype and the least of its last levels.
    column = {name: i for i, name in enumerate(m.exo_names + m.graph.nodes)}
    # a value counts the levels at or below its draw, so it stays below its card
    widest = max([*m.exo_cards.values(), *m.cards.values()], default=1)
    exo = []
    for name in m.exo_names:
        cdf = m.exo_dists[name].cumsum()
        cdf /= cdf[-1]
        exo.append((column[name], cdf))
    endo = []
    for v in m.graph.topological_order():
        mech = m.mechanisms[v]
        # levels[j] holds every CPT row's cumulative sum up to value j; the
        # rows are nondecreasing, so the first level above u is the count
        # of levels at or below it.
        levels = mech.cpt.cumsum(axis=-1).reshape(-1, m.cards[v]).T.copy()
        parents = [(column[p], dim) for p, dim in
                   zip(mech.endo_parents + mech.exo_parents, mech.cpt.shape)]
        # holds the row count itself, so each axis length fits as a scalar too
        endo.append((column[v], levels, parents, np.min_scalar_type(levels.shape[1]),
                     levels[-1].min()))
    return np.min_scalar_type(widest - 1), exo, endo


@contextlib.contextmanager
def draw_ahead(m: DiscreteCbn, jobs: Iterable[Tuple[int, int]]):
    """A scope in which one worker thread fills the uniforms of the draws
    ``sample_dataset(m, n, seed)`` of ``jobs`` up to 2**20 rows, in order,
    at most 3 blocks of whole columns (2**20 doubles or fewer) ahead.  A draw
    reads them if it is the next job and fills its own otherwise, with the
    same bytes.  No thread starts without jobs; the worker is joined on exit."""
    k, cap, done, stop = len(m.cards) + len(m.exo_cards), 2 ** 20, collections.deque(), []
    jobs = [(n, seed, range(0, k, cap // n)) for n, seed in jobs if 0 < n <= cap]
    pending, room, ready = collections.deque(jobs), threading.Semaphore(3), threading.Semaphore(0)

    def work():
        try:
            for job in jobs:
                n, seed, starts = job
                rng = np.random.default_rng(seed)
                for start in starts:
                    room.acquire()
                    if stop:
                        return
                    done.append((job, rng.random((min(starts.step, k - start), n))))
                    ready.release()
        except Exception as err:    # raised by the draw that waits for the block
            done.append((None, err))
            ready.release()

    def blocks(job):
        for _ in job[2]:
            owner = None
            while owner is not job:    # passing over the rest of a draw given up on
                ready.acquire()
                room.release()
                owner, block = done.popleft()
                if owner is None:
                    raise block
            yield block

    def take(n, seed):    # the blocks of (n, seed) if it is the next job
        if pending and pending[0][:2] == (n, seed):
            return blocks(pending.popleft())

    worker = threading.Thread(target=work)
    if jobs:
        worker.start()
    outer, m._ahead = m._ahead, take
    try:
        yield
    finally:
        m._ahead = outer
        stop.append(True)
        room.release()    # a worker waiting for room sees the stop
        if jobs:
            worker.join()


def sample_dataset(m: DiscreteCbn, n: int, seed: int) -> np.ndarray:
    """``n`` ancestral forward samples; rows are joint assignments in
    ``m.graph.nodes`` column order.

    Each variable is drawn as a whole column by inverse CDF from one
    ``rng.random(n)``: exogenous variables first, in ``m.exo_names`` order
    and exactly as ``Generator.choice(p=...)`` maps its draws, then
    endogenous ones in topological order, each taking the first value whose
    cumulative CPT row exceeds the draw (0 if none does).  Every seed gives
    the same dataset, bit for bit, as drawing the rows one at a time.

    The first draw keeps on the model a plan of what depends on it alone
    (each CPT's cumulative levels and each exogenous CDF), so a table
    edited after that draw is not seen.  All columns share one block of the
    narrowest unsigned dtype that holds every value (uint8 up to 256
    levels), and each CPT row index is built in the narrowest one that holds
    the row count.  The uniforms come from a :func:`draw_ahead` scope when
    this draw is its next job, in blocks of whole columns filled as
    consecutive ``rng.random(n)`` calls would be, and are drawn here
    otherwise.  The result is the block's (n, k) view (one contiguous column
    per variable), which ``empirical_table`` counts as is.
    """
    if m._draw is None:
        m._draw = _draw_plan(m)
    dtype, exo, endo = m._draw
    columns = np.empty((len(exo) + len(endo), n), dtype=dtype)
    index = np.empty(n, dtype=np.intp)
    blocks = m._ahead and m._ahead(n, seed)
    draws = itertools.chain.from_iterable(blocks) if blocks else \
        map(np.random.default_rng(seed).random, [n] * len(columns))
    # A column's first comparison is written into it, so the block needs no
    # zeros, and the rest added.  A one-level column compares with its last
    # level: 1 for exogenous ones, above every draw, and undone by the
    # fallback for endogenous ones.
    for j, cdf in exo:
        u = next(draws)
        value = np.less_equal(cdf[0], u, out=columns[j], casting="unsafe")
        for level in cdf[1:-1]:
            value += level <= u
    for j, levels, parents, row_dtype, lowest in endo:
        row = np.zeros(n, dtype=row_dtype)
        for p, dim in parents:
            row *= dim
            row += columns[p]
        np.copyto(index, row)
        u = next(draws)
        value = np.less_equal(levels[0].take(index), u, out=columns[j], casting="unsafe")
        for level in levels[1:-1]:
            value += level.take(index) <= u
        # every draw is below 1, so only a last level below 1 can fall back
        if n and 1.0 > lowest <= u.max():
            value[levels[-1].take(index) <= u] = 0
    return columns[len(exo):].T


def empirical_table(m_nodes: Sequence[str], cards: Sequence[int],
                    data: np.ndarray) -> JointTable:
    """Empirical joint frequencies of an integer (n, k) dataset as a
    JointTable; no rows, or a state outside its variable's range, is a
    ValueError.  Each row's flat cell index is built by Horner's rule in the
    narrowest unsigned dtype that holds the number of cells, then ``bincount``-ed."""
    cards = tuple(cards)
    if data.ndim != 2 or data.shape[1] != len(cards):
        raise ValueError(f"dataset of shape {data.shape} needs one column per card {cards}")
    if not np.issubdtype(data.dtype, np.integer):
        raise ValueError(f"dataset states must be integers, not {data.dtype}")
    if not len(data):
        raise ValueError(f"dataset of shape {data.shape} has no rows")
    if ((data.min(axis=0) < 0) | (data.max(axis=0) >= cards)).any():
        raise ValueError(f"dataset holds a state outside 0..card-1 for cards {cards}")
    flat = np.zeros(len(data), dtype=np.min_scalar_type(math.prod(cards)))
    for j, card in enumerate(cards):
        flat *= card
        np.add(flat, data[:, j], out=flat, casting="unsafe")
    counts = np.bincount(flat, minlength=math.prod(cards))
    probs = counts.reshape(cards) / len(data)
    return JointTable(tuple(m_nodes), probs)

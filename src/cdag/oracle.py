"""Exact discrete causal models: the ground truth everything is checked against.

A model attaches to each variable a conditional probability table given
its endogenous parents and its exogenous parents.  Exogenous structure
mirrors the graph exactly: one shared noise variable per bidirected edge
(a parent of both endpoints and nothing else) plus one private noise
variable per endogenous variable.  Distributions are computed by exact
summation over the exogenous variables, eliminating them one at a time,
with a hard cap on intermediate table sizes (override with the
CDAG_STATE_CAP environment variable).

Counterfactual queries require deterministic mechanisms: ``random_cbn``
offers a deterministic mode where each table row encodes its conditional
distribution through a per-row permutation of the variable's private
noise, keeping the noise cardinality equal to the variable's own.
"""

import itertools
import math
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .graphs import Admg, GraphError
from .cluster import Partition, build_cdag
from .formula import JointTable, _Factor, _product


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


def _positive_dirichlet(rng: np.random.Generator, size: int,
                        rows: Optional[int] = None) -> np.ndarray:
    # One flat Dirichlet draw of ``size`` outcomes, or ``rows`` of them in
    # one call (the same gamma stream, row after row), each clipped away
    # from zero and renormalized.
    draw = rng.dirichlet(np.ones(size), size=rows)
    draw = np.clip(draw, _POSITIVE_FLOOR, None)
    return draw / draw.sum(axis=-1, keepdims=True)


def _join(a: _Factor, b: _Factor, cap: int, phase: str) -> _Factor:
    new_dims = [d for n, d in zip(b.names, b.values.shape) if n not in a.names]
    if a.values.size * math.prod(new_dims) > cap:
        raise StateSpaceCapError(
            f"{phase}: intermediate table over {len(a.names) + len(new_dims)} axes "
            f"exceeds the cap ({cap} entries); raise CDAG_STATE_CAP to allow it")
    return _product(a, b)


def _contract(factors: List[_Factor], priors: Dict[str, np.ndarray],
              keep: Sequence[str], phase: str) -> np.ndarray:
    """Sum the product of the factors over every prior-weighted axis,
    returning a dense array over ``keep`` in that exact order.

    Factors are grouped by shared prior axes and accumulated in their
    given order (callers pass them topologically), folding in each prior
    and summing its axis out as soon as the last factor referencing it
    has been absorbed.  This keeps intermediates near the size of the
    output times the live noise frontier.
    """
    cap = _cap()
    sum_axes = {n for f in factors for n in f.names if n in priors and n not in keep}

    # Union-find grouping of factors over shared summed axes.
    groups: List[List[_Factor]] = []
    axis_group: Dict[str, int] = {}
    for f in factors:
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
        acc = group[0]
        absorbed = 1
        while True:
            remaining = group[absorbed:]
            for name in sorted(acc.names):
                if name in sum_axes and not any(name in f.names for f in remaining):
                    prior = _Factor((name,), priors[name])
                    acc = _join(acc, prior, cap, phase).sum_out((name,))
            if not remaining:
                break
            acc = _join(acc, remaining[0], cap, phase)
            absorbed += 1
        results.append(acc)

    result = _Factor((), np.array(1.0))
    for f in results:
        result = _join(result, f, cap, phase)
    missing = [n for n in keep if n not in result.names]
    if missing:
        raise GraphError(f"contraction lost axes {missing}")
    result = result.sum_out([n for n in result.names if n not in keep])
    perm = [result.names.index(n) for n in keep]
    return np.transpose(result.values, perm) if keep else result.values


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class Mechanism:
    __slots__ = ("endo_parents", "exo_parents", "cpt")

    def __init__(self, endo_parents: Tuple[str, ...], exo_parents: Tuple[str, ...],
                 cpt: np.ndarray):
        self.endo_parents = endo_parents
        self.exo_parents = exo_parents
        self.cpt = cpt


class DiscreteCbn:
    """A fully parameterized discrete causal model over an Admg."""

    def __init__(self, graph: Admg, cards: Dict[str, int],
                 exo_cards: Dict[str, int], exo_dists: Dict[str, np.ndarray],
                 mechanisms: Dict[str, Mechanism], deterministic: bool):
        self.graph = graph
        self.cards = dict(cards)
        self.exo_cards = dict(exo_cards)
        self.exo_dists = {k: np.asarray(v, dtype=float) for k, v in exo_dists.items()}
        self.mechanisms = mechanisms
        self.deterministic = deterministic
        self.exo_names = tuple(sorted(exo_cards))
        for name in self.exo_names:
            dist = self.exo_dists[name]
            if dist.shape != (self.exo_cards[name],) or np.any(dist <= 0) or \
                    not np.isclose(dist.sum(), 1.0, atol=1e-12):
                raise GraphError(f"exogenous {name!r} needs a strictly positive "
                                 "distribution of matching cardinality summing to 1")
        for v, mech in mechanisms.items():
            rows = mech.cpt.reshape(-1, self.cards[v])
            if np.any(rows < 0) or not np.allclose(rows.sum(axis=1), 1.0, atol=1e-12):
                raise GraphError(f"CPT rows of {v!r} must be nonnegative and sum to 1")
        # The value each deterministic mechanism takes: the argmax of its
        # CPT row, in the narrowest unsigned dtype.  Stochastic models
        # have no responses and build none.
        self._responses = {
            v: np.argmax(mech.cpt, axis=-1).astype(np.min_scalar_type(self.cards[v] - 1))
            for v, mech in mechanisms.items()} if deterministic else None

    def _variable_factor(self, v: str, collapse_private: bool) -> _Factor:
        mech = self.mechanisms[v]
        names = mech.endo_parents + mech.exo_parents + (v,)
        factor = _Factor(names, mech.cpt)
        if collapse_private:
            for name in mech.exo_parents:
                if self._is_private(name):
                    axis = factor.names.index(name)
                    weighted = np.tensordot(factor.values, self.exo_dists[name],
                                            axes=([axis], [0]))
                    factor = _Factor(factor.names[:axis] + factor.names[axis + 1:],
                                     weighted)
        return factor

    def _is_private(self, exo_name: str) -> bool:
        # Private noise feeds exactly one mechanism; edge noise feeds two.
        count = sum(1 for mech in self.mechanisms.values()
                    if exo_name in mech.exo_parents)
        return count == 1

    def _respond(self, order: Iterable[str], values: Dict, exo: Dict) -> Dict:
        # Fill in the response of each variable of ``order`` (parents
        # first).  Values and exogenous states are integers, or integer
        # arrays broadcasting over an open grid of exogenous states.
        for v in order:
            mech = self.mechanisms[v]
            idx = tuple(values[p] for p in mech.endo_parents) + \
                tuple(exo[u] for u in mech.exo_parents)
            values[v] = self._responses[v][idx]
        return values

    def _solve(self, exo: Dict, interventions: Dict) -> Dict:
        if not self.deterministic:
            raise GraphError("potential responses need deterministic mechanisms; "
                             "build the model in deterministic mode")
        order = self.graph.topological_order()
        return self._respond([v for v in order if v not in interventions],
                             {v: interventions[v] for v in order if v in interventions},
                             exo)

    def solve(self, exo_assignment: Dict[str, int],
              interventions: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """Potential response of every variable at a fixed exogenous state."""
        return {v: int(val) for v, val in
                self._solve(exo_assignment, interventions or {}).items()}


def _exo_name(label: str, taken: set) -> str:
    # A fresh noise name U(label), primed until it is unused, and taken.
    name = f"U({label})"
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def random_cbn(g: Admg, cards: Dict[str, int], seed: int,
               exo_card: int = 2, deterministic: bool = False) -> DiscreteCbn:
    """A reproducible random model on ``g``.

    Stochastic mode draws every CPT row from a symmetric Dirichlet,
    clipped away from zero and renormalized, so the joint distribution
    has full support.  Each table takes all its rows in one batched draw,
    which consumes the generator exactly as row-by-row draws would, so a
    seed gives the same model bit for bit.  Deterministic mode keeps the
    same row distributions but realizes them as per-row permutations of
    each variable's private noise, making every mechanism a function of
    its parents and noise.
    """
    for v in g.nodes:
        if cards.get(v, 0) < 2:
            raise GraphError(f"cardinality for {v!r} must be an integer >= 2")
    rng = np.random.default_rng(seed)

    taken = set(g.nodes)
    edge_noise = {(a, b): _exo_name(f"{a}~{b}", taken) for a, b in sorted(g.bidirected)}
    private_noise = {v: _exo_name(v, taken) for v in g.nodes}

    exo_cards: Dict[str, int] = {}
    exo_dists: Dict[str, np.ndarray] = {}
    for (a, b), name in sorted(edge_noise.items()):
        exo_cards[name] = exo_card
        exo_dists[name] = _positive_dirichlet(rng, exo_card)
    for v in g.nodes:
        name = private_noise[v]
        exo_cards[name] = cards[v] if deterministic else exo_card
        exo_dists[name] = _positive_dirichlet(rng, exo_cards[name])

    mechanisms: Dict[str, Mechanism] = {}
    for v in g.nodes:
        endo = tuple(sorted(g.parents([v])))
        incident = [edge_noise[e] for e in sorted(edge_noise) if v in e]
        exo = tuple(sorted(incident + [private_noise[v]]))
        m = cards[v]
        parent_dims = tuple(cards[p] for p in endo) + \
            tuple(exo_cards[u] for u in exo if u != private_noise[v])
        if deterministic:
            # One permutation of the private noise per (parents, edge noise)
            # row; the induced conditional row is the permuted noise law.
            cpt = np.zeros(parent_dims + (m, m))
            flat = cpt.reshape(-1, m, m)
            for row in flat:
                perm = rng.permutation(m)
                for u_val in range(m):
                    row[u_val, perm[u_val]] = 1.0
            # private noise is the last exogenous axis only if it sorts last;
            # rebuild with axes in the declared (endo, exo sorted, v) order
            axes_order = endo + tuple(u for u in exo if u != private_noise[v]) + \
                (private_noise[v], v)
            target_order = endo + exo + (v,)
            perm_axes = [axes_order.index(n) for n in target_order]
            cpt = np.transpose(cpt, perm_axes)
        else:
            dims = tuple(cards[p] for p in endo) + tuple(exo_cards[u] for u in exo)
            cpt = _positive_dirichlet(rng, m, math.prod(dims)).reshape(dims + (m,))
        mechanisms[v] = Mechanism(endo, exo, cpt)

    return DiscreteCbn(g, cards, exo_cards, exo_dists, mechanisms, deterministic)


# ---------------------------------------------------------------------------
# exact distributions
# ---------------------------------------------------------------------------

def _check_state_space(cards: Iterable[int], phase: str, space: str = "joint"):
    size = math.prod(cards)
    if size > _cap():
        raise StateSpaceCapError(f"{phase}: {space} state space of {size} entries exceeds "
                                 f"the cap ({_cap()}); raise CDAG_STATE_CAP")


def joint_distribution(m: DiscreteCbn) -> JointTable:
    """Exact observational distribution over the endogenous variables."""
    keep = m.graph.nodes
    _check_state_space((m.cards[v] for v in keep), "joint_distribution")
    factors = [m._variable_factor(v, collapse_private=True)
               for v in m.graph.topological_order()]
    probs = _contract(factors, m.exo_dists, keep, "joint_distribution")
    return JointTable(keep, probs)


def interventional_distribution(m: DiscreteCbn, x: Dict[str, int]) -> JointTable:
    """Exact distribution after forcing ``x``, by truncated factorization:
    the intervened variables' factors are dropped and their values fixed
    wherever they appear as parents."""
    unknown = set(x) - set(m.graph.nodes)
    if unknown:
        raise GraphError(f"unknown variable(s) in intervention: {sorted(unknown)}")
    for v, val in x.items():
        if not 0 <= val < m.cards[v]:
            raise GraphError(f"value {val} out of range for {v!r}")
    keep = tuple(v for v in m.graph.nodes if v not in x)
    _check_state_space((m.cards[v] for v in keep), "interventional_distribution")
    factors = []
    for v in m.graph.topological_order():
        if v in x:
            continue
        f = m._variable_factor(v, collapse_private=True)
        for parent in m.mechanisms[v].endo_parents:
            if parent in x:
                f = f.fix(parent, x[parent])
        factors.append(f)
    probs = _contract(factors, m.exo_dists, keep, "interventional_distribution")
    return JointTable(keep, probs)


def sample_dataset(m: DiscreteCbn, n: int, seed: int) -> np.ndarray:
    """``n`` ancestral forward samples; rows are joint assignments in
    ``m.graph.nodes`` column order.

    Each variable is drawn as a whole column by inverse CDF from one
    ``rng.random(n)``: exogenous variables first, in ``m.exo_names`` order
    and exactly as ``Generator.choice(p=...)`` maps its draws, then
    endogenous ones in topological order, each taking the first value whose
    cumulative CPT row exceeds the draw (0 if none does).  Every seed gives
    the same dataset, bit for bit, as drawing the rows one at a time.

    All columns share one block of the narrowest unsigned dtype that holds
    every value (uint8 up to 256 levels), each CPT row index uses the
    narrowest one that holds the row count, and one buffer takes every
    draw, filled as ``rng.random(n)`` would be.  Only the result is int64.
    """
    rng = np.random.default_rng(seed)
    names = m.exo_names + m.graph.nodes
    # a value counts the levels at or below its draw, so it stays below its card
    widest = max([*m.exo_cards.values(), *m.cards.values()], default=1)
    columns = np.zeros((len(names), n), dtype=np.min_scalar_type(widest - 1))
    values = dict(zip(names, columns))
    u = np.empty(n)
    for name in m.exo_names:
        cdf = m.exo_dists[name].cumsum()
        cdf /= cdf[-1]
        rng.random(out=u)
        value = values[name]
        for level in cdf[:-1]:
            value += level <= u
    for v in m.graph.topological_order():
        mech = m.mechanisms[v]
        # levels[j] holds every CPT row's cumulative sum up to value j; the
        # rows are nondecreasing, so the first level above u is the count
        # of levels at or below it.
        levels = mech.cpt.cumsum(axis=-1).reshape(-1, m.cards[v]).T.copy()
        # holds the row count itself, so each axis length fits as a scalar too
        row = np.zeros(n, dtype=np.min_scalar_type(levels.shape[1]))
        for p, dim in zip(mech.endo_parents + mech.exo_parents, mech.cpt.shape):
            row *= dim
            row += values[p]
        row = row.astype(np.intp)
        rng.random(out=u)
        value = values[v]
        for level in levels[:-1]:
            value += level[row] <= u
        if n and levels[-1].min() <= u.max():
            value[levels[-1][row] <= u] = 0
    return columns[len(m.exo_names):].T.astype(np.int64, order="C")


def empirical_table(m_nodes: Sequence[str], cards: Sequence[int],
                    data: np.ndarray) -> JointTable:
    """Empirical joint frequencies of a dataset as a JointTable."""
    cards = tuple(cards)
    # raises ValueError on a state outside its variable's range
    flat_index = np.ravel_multi_index(data.T, cards)
    counts = np.bincount(flat_index, minlength=int(np.prod(cards)))
    probs = counts.reshape(cards) / len(data)
    return JointTable(tuple(m_nodes), probs)


# ---------------------------------------------------------------------------
# cluster-level factorization check
# ---------------------------------------------------------------------------

def _macro_factor(m: DiscreteCbn, members: Sequence[str]) -> _Factor:
    # Conditional table of a whole cluster given its external parents and
    # all exogenous parents of its members, built as an explicit product
    # and verified to normalize over the member axes.
    factor = None
    cap = _cap()
    for v in members:
        f = m._variable_factor(v, collapse_private=False)
        factor = f if factor is None else _join(factor, f, cap, "cluster_factorization_check")
    member_axes = tuple(factor.names.index(v) for v in members)
    totals = factor.values.sum(axis=member_axes)
    if not np.allclose(totals, 1.0, atol=1e-9):
        raise GraphError("cluster factor does not normalize over its members")
    return factor


def cluster_factorization_check(m: DiscreteCbn, p: Partition,
                                x_clusters: Iterable[str] = ()) -> float:
    """Max deviation between the variable-level truncated factorization and
    its cluster-level reassembly, over every intervention value.

    The left side is :func:`interventional_distribution`.  The right side
    groups the model into per-cluster conditional tables first (explicitly
    normalized), then contracts the cluster-level network over the shared
    exogenous variables.  With no intervened clusters this checks the
    observational cluster factorization.
    """
    x_clusters = frozenset(x_clusters)
    cdag = build_cdag(m.graph, p)
    unknown = x_clusters - set(cdag.graph.nodes)
    if unknown:
        raise GraphError(f"unknown cluster(s): {sorted(unknown)}")
    x_vars = sorted(p.variables_of(x_clusters))
    keep = tuple(v for v in m.graph.nodes if v not in x_vars)
    macro_factors = [_macro_factor(m, p.members(name))
                     for name in cdag.graph.topological_order() if name not in x_clusters]

    worst = 0.0
    for x_state in itertools.product(*(range(m.cards[v]) for v in x_vars)):
        x_assign = dict(zip(x_vars, x_state))
        lhs = interventional_distribution(m, x_assign).probs

        factors = []
        for f in macro_factors:
            for var in f.names:
                if var in x_assign:
                    f = f.fix(var, x_assign[var])
            factors.append(f)
        rhs = _contract(factors, m.exo_dists, keep, "cluster_factorization_check")
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0)
    return worst


# ---------------------------------------------------------------------------
# macro-variable structural model
# ---------------------------------------------------------------------------

class MacroScm:
    """A structural model over cluster-valued variables, built from a
    deterministic base model by recursive substitution of intra-cluster
    mechanisms.  It shares the base model's exogenous variables and
    distribution, and its induced cluster diagram is the quotient."""

    def __init__(self, base: DiscreteCbn, partition: Partition):
        if not base.deterministic:
            raise GraphError("macro construction needs deterministic mechanisms")
        self.base = base
        self.partition = partition
        self.cdag = build_cdag(base.graph, partition)

        self.cluster_order = self.cdag.graph.topological_order()
        self.members = {name: partition.members(name) for name in self.cluster_order}

        self.parent_clusters: Dict[str, Tuple[str, ...]] = {}
        self.exo_groups: Dict[str, Tuple[str, ...]] = {}
        for name in self.cluster_order:
            mem = set(self.members[name])
            external = set()
            exo = set()
            for v in sorted(mem):
                external |= set(base.mechanisms[v].endo_parents) - mem
                exo |= set(base.mechanisms[v].exo_parents)
            self.parent_clusters[name] = tuple(sorted({partition.cluster_of(u)
                                                       for u in external}))
            self.exo_groups[name] = tuple(sorted(exo))

        # Induced diagram check: parents from the variable-level structure
        # must reproduce the quotient, and exogenous sharing must mirror
        # the quotient's bidirected edges.
        for name in self.cluster_order:
            quotient_parents = tuple(sorted(
                t for t, h in self.cdag.graph.directed if h == name))
            if quotient_parents != self.parent_clusters[name]:
                raise GraphError(f"macro parents of {name!r} diverge from the quotient")
        for a, b in itertools.combinations(self.cluster_order, 2):
            shares = bool(set(self.exo_groups[a]) & set(self.exo_groups[b]))
            edge = tuple(sorted((a, b))) in self.cdag.graph.bidirected
            if shares != edge:
                raise GraphError(f"exogenous sharing between {a!r} and {b!r} "
                                 "diverges from the quotient")

        order = base.graph.topological_order()
        self._local_order = {name: [v for v in order if v in self.members[name]]
                             for name in self.cluster_order}

    def _solve(self, exo: Dict, interventions: Dict) -> Dict[str, tuple]:
        # Substitute each cluster's member mechanisms in cluster order.  A
        # cluster reads only its parent clusters' members and its own
        # exogenous group; reading anything else is a KeyError.
        out: Dict[str, tuple] = {}
        for name in self.cluster_order:
            if name in interventions:
                out[name] = tuple(interventions[name])
                continue
            inputs = {v: val for pc in self.parent_clusters[name]
                      for v, val in zip(self.members[pc], out[pc])}
            noise = {u: exo[u] for u in self.exo_groups[name]}
            values = self.base._respond(self._local_order[name], inputs, noise)
            out[name] = tuple(values[v] for v in self.members[name])
        return out

    def solve(self, exo_assignment: Dict[str, int],
              interventions: Optional[Dict[str, tuple]] = None) -> Dict[str, tuple]:
        """Cluster-valued potential response at a fixed exogenous state."""
        return {name: tuple(int(val) for val in vals) for name, vals in
                self._solve(exo_assignment, interventions or {}).items()}


def build_macro_scm(m: DiscreteCbn, p: Partition) -> MacroScm:
    """Cluster-level structural model by recursive mechanism substitution."""
    return MacroScm(m, p)


def counterfactual_prob(model, events: Sequence[Tuple[Dict, Dict]]) -> float:
    """Probability that every counterfactual event holds simultaneously.

    Each event pairs a target assignment with an intervention assignment;
    the potential response under that intervention must match the target.
    For a :class:`DiscreteCbn` both dictionaries map variables to values;
    for a :class:`MacroScm` they map clusters to member-value tuples.
    Each event is solved once over the whole grid of exogenous states,
    and the probability is the prior-weighted sum of the states where
    every event holds.
    """
    macro = isinstance(model, MacroScm)
    base = model.base if macro else model
    if not base.deterministic:
        raise GraphError("counterfactual queries need deterministic mechanisms")

    names = base.exo_names
    shape = [base.exo_cards[name] for name in names]
    _check_state_space(shape, "counterfactual_prob", "exogenous")
    grid = dict(zip(names, np.ix_(*(np.arange(card) for card in shape))))
    holds = np.True_
    for targets, interventions in events:
        solution = model._solve(grid, interventions)
        for k, want in targets.items():
            # a cluster matches where every member does
            pairs = zip(solution[k], want, strict=True) if macro else [(solution[k], want)]
            for got, value in pairs:
                holds = holds & (got == value)
    # the prior-weighted sum of the mask, one exogenous axis at a time
    mass = np.broadcast_to(holds, shape)
    for name in reversed(names):
        mass = mass.reshape(-1, base.exo_cards[name]) @ base.exo_dists[name]
    return float(mass.sum())

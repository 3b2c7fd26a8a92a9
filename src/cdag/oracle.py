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
from .formula import JointTable


class StateSpaceCapError(ValueError):
    """An exact enumeration would exceed the configured state-space cap."""


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


# ---------------------------------------------------------------------------
# factors (internal): named-axis arrays with product and sum-out
# ---------------------------------------------------------------------------

class _Factor:
    __slots__ = ("names", "values")

    def __init__(self, names: Sequence[str], values: np.ndarray):
        self.names = tuple(names)
        self.values = values

    def fix(self, name: str, value: int) -> "_Factor":
        axis = self.names.index(name)
        return _Factor(self.names[:axis] + self.names[axis + 1:],
                       np.take(self.values, value, axis=axis))


def _join(a: _Factor, b: _Factor, cap: int) -> _Factor:
    names = a.names + tuple(n for n in b.names if n not in a.names)
    size = 1
    dims_a = {n: d for n, d in zip(a.names, a.values.shape)}
    dims_b = {n: d for n, d in zip(b.names, b.values.shape)}
    for n in names:
        size *= dims_a.get(n, dims_b.get(n))
        if size > cap:
            raise StateSpaceCapError(
                f"intermediate table over {len(names)} axes exceeds the cap "
                f"({cap} entries); raise CDAG_STATE_CAP to allow it")

    def view(f):
        perm = [f.names.index(n) for n in names if n in f.names]
        arr = np.transpose(f.values, perm)
        shape = [dims_a.get(n, dims_b.get(n)) if n in f.names else 1 for n in names]
        return arr.reshape(shape)

    return _Factor(names, view(a) * view(b))


def _sum_out(f: _Factor, name: str) -> _Factor:
    axis = f.names.index(name)
    return _Factor(f.names[:axis] + f.names[axis + 1:], f.values.sum(axis=axis))


def _contract(factors: List[_Factor], priors: Dict[str, np.ndarray],
              keep: Sequence[str]) -> np.ndarray:
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
                    acc = _sum_out(_join(acc, _Factor((name,), priors[name]), cap),
                                   name)
            if not remaining:
                break
            acc = _join(acc, remaining[0], cap)
            absorbed += 1
        results.append(acc)

    result = _Factor((), np.array(1.0))
    for f in results:
        result = _join(result, f, cap)
    missing = [n for n in keep if n not in result.names]
    if missing:
        raise GraphError(f"contraction lost axes {missing}")
    extra = [i for i, n in enumerate(result.names) if n not in keep]
    values = result.values.sum(axis=tuple(extra)) if extra else result.values
    names_left = [n for n in result.names if n in keep]
    perm = [names_left.index(n) for n in keep]
    return np.transpose(values, perm) if keep else values


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
        self._solve_tables: Optional[Dict[str, np.ndarray]] = None

    def _card_of(self, name: str) -> int:
        return self.cards[name] if name in self.cards else self.exo_cards[name]

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

    def solve(self, exo_assignment: Dict[str, int],
              interventions: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """Potential response of every variable at a fixed exogenous state."""
        if not self.deterministic:
            raise GraphError("potential responses need deterministic mechanisms; "
                             "build the model in deterministic mode")
        interventions = interventions or {}
        if self._solve_tables is None:
            self._solve_tables = {v: np.argmax(mech.cpt, axis=-1)
                                  for v, mech in self.mechanisms.items()}
        values: Dict[str, int] = {}
        for v in self.graph.topological_order():
            if v in interventions:
                values[v] = interventions[v]
                continue
            mech = self.mechanisms[v]
            idx = tuple(values[p] for p in mech.endo_parents) + \
                tuple(exo_assignment[u] for u in mech.exo_parents)
            values[v] = int(self._solve_tables[v][idx])
        return values


def _exo_name_edge(a: str, b: str, taken) -> str:
    name = f"U({a}~{b})"
    while name in taken:
        name += "'"
    return name


def _exo_name_private(v: str, taken) -> str:
    name = f"U({v})"
    while name in taken:
        name += "'"
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
    edge_noise = {}
    for a, b in sorted(g.bidirected):
        name = _exo_name_edge(a, b, taken)
        taken.add(name)
        edge_noise[(a, b)] = name
    private_noise = {}
    for v in g.nodes:
        name = _exo_name_private(v, taken)
        taken.add(name)
        private_noise[v] = name

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

def _check_output_cap(cards: Iterable[int]):
    size = 1
    for c in cards:
        size *= c
    if size > _cap():
        raise StateSpaceCapError(f"joint state space of {size} entries exceeds "
                                 f"the cap ({_cap()}); raise CDAG_STATE_CAP")


def joint_distribution(m: DiscreteCbn) -> JointTable:
    """Exact observational distribution over the endogenous variables."""
    keep = m.graph.nodes
    _check_output_cap(m.cards[v] for v in keep)
    factors = [m._variable_factor(v, collapse_private=True)
               for v in m.graph.topological_order()]
    probs = _contract(factors, m.exo_dists, keep)
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
    _check_output_cap(m.cards[v] for v in keep)
    factors = []
    for v in m.graph.topological_order():
        if v in x:
            continue
        f = m._variable_factor(v, collapse_private=True)
        for parent in m.mechanisms[v].endo_parents:
            if parent in x:
                f = f.fix(parent, x[parent])
        factors.append(f)
    probs = _contract(factors, m.exo_dists, keep)
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
    """
    rng = np.random.default_rng(seed)
    nodes = m.graph.nodes
    columns = np.zeros((len(nodes), n), dtype=np.int64)
    values: Dict[str, np.ndarray] = {}
    for name in m.exo_names:
        cdf = m.exo_dists[name].cumsum()
        cdf /= cdf[-1]
        u = rng.random(n)
        values[name] = value = np.zeros(n, dtype=np.int64)
        for level in cdf[:-1]:
            value += level <= u
    for v in m.graph.topological_order():
        mech = m.mechanisms[v]
        # levels[j] holds every CPT row's cumulative sum up to value j; the
        # rows are nondecreasing, so the first level above u is the count
        # of levels at or below it.
        levels = mech.cpt.cumsum(axis=-1).reshape(-1, m.cards[v]).T.copy()
        row = np.zeros(n, dtype=np.int64)
        for p, dim in zip(mech.endo_parents + mech.exo_parents, mech.cpt.shape):
            row *= dim
            row += values[p]
        u = rng.random(n)
        values[v] = value = columns[nodes.index(v)]
        for level in levels[:-1]:
            value += level[row] <= u
        if n and levels[-1].min() <= u.max():
            value[levels[-1][row] <= u] = 0
    return columns.T.copy()


def empirical_table(m_nodes: Sequence[str], cards: Sequence[int],
                    data: np.ndarray) -> JointTable:
    """Empirical joint frequencies of a dataset as a JointTable."""
    cards = tuple(cards)
    flat_index = np.zeros(len(data), dtype=np.int64)
    for i, c in enumerate(cards):
        flat_index = flat_index * c + data[:, i]
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
        factor = f if factor is None else _join(factor, f, cap)
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
    kept_clusters = [name for name in cdag.graph.topological_order()
                     if name not in x_clusters]

    worst = 0.0
    for x_state in itertools.product(*(range(m.cards[v]) for v in x_vars)):
        x_assign = dict(zip(x_vars, x_state))
        lhs = interventional_distribution(m, x_assign).probs

        factors = []
        for name in kept_clusters:
            f = _macro_factor(m, p.members(name))
            for var in f.names:
                if var in x_assign:
                    f = f.fix(var, x_assign[var])
            factors.append(f)
        rhs = _contract(factors, m.exo_dists, keep)
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
        graph = base.graph

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

        self._tables: Dict[str, Dict[tuple, tuple]] = {}
        for name in self.cluster_order:
            self._tables[name] = self._compose(name)

    def _compose(self, name: str) -> Dict[tuple, tuple]:
        base = self.base
        mem = self.members[name]
        input_vars: List[str] = []
        for pc in self.parent_clusters[name]:
            input_vars.extend(self.members[pc])
        exo = self.exo_groups[name]
        table: Dict[tuple, tuple] = {}
        input_spaces = [range(base.cards[v]) for v in input_vars]
        exo_spaces = [range(base.exo_cards[u]) for u in exo]
        local_order = [v for v in base.graph.topological_order() if v in mem]
        for in_state in itertools.product(*input_spaces):
            env_in = dict(zip(input_vars, in_state))
            for exo_state in itertools.product(*exo_spaces):
                env_exo = dict(zip(exo, exo_state))
                values = dict(env_in)
                for v in local_order:
                    mech = base.mechanisms[v]
                    idx = tuple(values[p] for p in mech.endo_parents) + \
                        tuple(env_exo[u] for u in mech.exo_parents)
                    values[v] = int(np.argmax(mech.cpt[idx]))
                table[(in_state, exo_state)] = tuple(values[v] for v in mem)
        return table

    def solve(self, exo_assignment: Dict[str, int],
              interventions: Optional[Dict[str, tuple]] = None) -> Dict[str, tuple]:
        """Cluster-valued potential response at a fixed exogenous state."""
        interventions = interventions or {}
        out: Dict[str, tuple] = {}
        for name in self.cluster_order:
            if name in interventions:
                out[name] = tuple(interventions[name])
                continue
            in_state = []
            for pc in self.parent_clusters[name]:
                in_state.extend(out[pc])
            exo_state = tuple(exo_assignment[u] for u in self.exo_groups[name])
            out[name] = self._tables[name][(tuple(in_state), exo_state)]
        return out


def build_macro_scm(m: DiscreteCbn, p: Partition) -> MacroScm:
    """Cluster-level structural model by recursive mechanism substitution."""
    return MacroScm(m, p)


def counterfactual_prob(model, events: Sequence[Tuple[Dict, Dict]]) -> float:
    """Probability that every counterfactual event holds simultaneously.

    Each event pairs a target assignment with an intervention assignment;
    the potential response under that intervention must match the target.
    For a :class:`DiscreteCbn` both dictionaries map variables to values;
    for a :class:`MacroScm` they map clusters to member-value tuples.
    Computed by exhaustive enumeration of the exogenous state space.
    """
    if isinstance(model, MacroScm):
        base = model.base
        solve = model.solve
    else:
        base = model
        solve = model.solve
    if not base.deterministic:
        raise GraphError("counterfactual queries need deterministic mechanisms")

    names = base.exo_names
    size = 1
    for name in names:
        size *= base.exo_cards[name]
    if size > _cap():
        raise StateSpaceCapError(f"exogenous state space of {size} entries exceeds "
                                 f"the cap ({_cap()})")

    total = 0.0
    for state in itertools.product(*(range(base.exo_cards[n]) for n in names)):
        exo = dict(zip(names, state))
        ok = True
        for targets, interventions in events:
            solution = solve(exo, interventions)
            if any(solution[k] != v for k, v in targets.items()):
                ok = False
                break
        if ok:
            weight = 1.0
            for name, val in exo.items():
                weight *= base.exo_dists[name][val]
            total += weight
    return total

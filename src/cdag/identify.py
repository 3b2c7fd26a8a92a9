"""Complete identification of cluster-level causal effects.

Given a cluster DAG and disjoint cluster sets X and Y, decide whether
P(y|do(x)) is computable from the observational distribution over the
clusters, and produce either a symbolic formula or a witness of
non-identifiability.

The engine first restricts the cluster graph to An(Y), the ancestors of
Y, and drops the treatments outside it (line 2 of Shpitser and Pearl's
ID): the other clusters cannot change P(y|do(x)).  It then reduces to
the ancestors of Y outside X, splits the reduced graph into
c-components, and identifies each c-factor from the factor of its
enclosing c-component by alternating ancestral marginalization with
c-component refinement.  The enclosing factors are products of chain
terms P(v | every earlier node), built once per query in one table that
all of them share.  Failure of that recursion yields a pair of
root-set-rooted c-forests, one containing intervened clusters and one
avoiding them, read from the full graph and recorded against the full X.
The default expansion turns the witness into a concrete variable-level
graph where the same query fails: the first members of the clusters
carry a copy of the cluster graph, hedge included.
"""

import bisect
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Tuple, Union

from .graphs import Admg, GraphError
from .cluster import ClusterDag
from .formula import (CondProb, Fraction, ProbExpr, _free_vars, _simplify_with, product_of,
                      sum_over)
from .sampler import ExpansionSpec, expand


@dataclass(frozen=True)
class Hedge:
    """Witness of non-identifiability.

    ``forest_f`` and ``forest_fprime`` are edge subgraphs of the cluster
    graph, both rooted at ``root_set``: single c-component, every node
    with at most one child, and ``root_set`` the childless nodes.  The
    inner forest avoids X entirely while the outer one meets it at
    ``intersected_x``, and the roots are ancestors of Y once edges into
    X are cut.
    """

    root_set: FrozenSet[str]
    forest_f: Admg
    forest_fprime: Admg
    intersected_x: FrozenSet[str]

    def describe(self) -> str:
        def edges(g):
            parts = [f"{t} -> {h}" for t, h in sorted(g.directed)]
            parts += [f"{a} <-> {b}" for a, b in sorted(g.bidirected)]
            return ", ".join(parts) if parts else "(none)"

        return "\n".join([
            f"root set R: {{{', '.join(sorted(self.root_set))}}}",
            f"forest F over {{{', '.join(sorted(self.forest_f.nodes))}}}: "
            f"{edges(self.forest_f)}",
            f"forest F' over {{{', '.join(sorted(self.forest_fprime.nodes))}}}: "
            f"{edges(self.forest_fprime)}",
            f"intervened clusters in F: {{{', '.join(sorted(self.intersected_x))}}}",
        ])


@dataclass(frozen=True)
class Identified:
    expr: ProbExpr
    identifiable = True


@dataclass(frozen=True)
class NonIdentified:
    hedge: Hedge
    identifiable = False


IdResult = Union[Identified, NonIdentified]


class _HedgeFound(Exception):
    def __init__(self, inner, outer):
        self.inner = frozenset(inner)
        self.outer = frozenset(outer)


def _validate_query(c: ClusterDag, x, y):
    clusters = set(c.graph.nodes)
    x = frozenset(x)
    y = frozenset(y)
    unknown = (x | y) - clusters
    if unknown:
        raise GraphError(f"unknown cluster(s): {sorted(unknown)}")
    if not y:
        raise GraphError("the target set y must be nonempty")
    if x & y:
        raise GraphError(f"x and y overlap: {sorted(x & y)}")
    return x, y


def _ancestral_reduce(graph: Admg, keep: FrozenSet[str], y: FrozenSet[str]) -> FrozenSet[str]:
    # An(y) in the subgraph ``keep`` induces, read from ``graph``'s links.
    return graph._reach(y, graph._parents, keep)


def _district(graph: Admg, s: Iterable[str], within: FrozenSet[str]) -> FrozenSet[str]:
    # Union of the c-components meeting ``s`` in the subgraph ``within`` induces.
    return graph._reach(s, graph._siblings, within)


def _chain_table(order: Tuple[str, ...]) -> Dict[str, CondProb]:
    # P(v | every node before v in order), in order, one node per v: every
    # chain factor of a query shares these objects.  The prefix grows
    # sorted and never holds v, so the checks of CondProb are skipped.
    table, prefix = {}, []
    for v in order:
        table[v] = CondProb._trusted((v,), tuple(prefix))
        bisect.insort(prefix, v)
    return table


def _chain_factor(table: Dict[str, CondProb], members: Iterable[str]) -> ProbExpr:
    # in chain order: a node's place in the order is the length of its prefix
    return product_of(sorted([table[v] for v in members], key=lambda p: len(p.given)))


def _identify_component(graph: Admg, order: Tuple[str, ...],
                        target: FrozenSet[str], scope: FrozenSet[str],
                        q_expr: ProbExpr) -> ProbExpr:
    """Identify Q[target] from Q[scope], one refinement of the scope per step.

    ``target`` is bidirected-connected and contained in ``scope``, which
    is itself a c-component of the graph under consideration.  The
    subgraphs are read through ``graph``'s links restricted to ``scope``
    and to the closure, never built.  Raises :class:`_HedgeFound` when
    the ancestors of the target fill the whole scope without equalling it.
    """
    while True:
        closure = _ancestral_reduce(graph, scope, target)
        if closure == target:
            return sum_over(sorted(scope - target), q_expr)
        if closure == scope:
            raise _HedgeFound(target, scope)

        q_closure = sum_over(sorted(scope - closure), q_expr)
        component = _district(graph, target, closure)

        # Factor of the refined component, as telescoping prefix ratios of
        # Q[closure] under the global topological order.
        ordered = [v for v in order if v in closure]
        prefix_exprs = {len(ordered): q_closure}
        for i in range(len(ordered) - 1, 0, -1):
            prefix_exprs[i] = sum_over([ordered[i]], prefix_exprs[i + 1])
        factors = []
        for i, node in enumerate(ordered, start=1):
            if node not in component:
                continue
            if i == 1:
                factors.append(prefix_exprs[1])
            else:
                factors.append(Fraction(prefix_exprs[i], prefix_exprs[i - 1]))
        scope, q_expr = component, product_of(factors)


def _run(c: ClusterDag, x: FrozenSet[str], y: FrozenSet[str]) -> Tuple[ProbExpr, Dict]:
    # Line 2 of ID: only the ancestors of Y matter, read from the full
    # graph's links within An(Y).  Kahn's lexicographic order on an
    # ancestral set is the restriction of the full order, so the chain
    # factors below only lose conditioning on non-ancestors.
    graph = c.graph
    nodes = graph.ancestral_closure(y)
    x = x & nodes
    order = tuple(v for v in graph.topological_order() if v in nodes)
    reduced = _ancestral_reduce(graph, nodes - x, y)
    table = _chain_table(order)

    # One factor per c-component of G[reduced], by smallest member.
    factors, seen = [], set()
    for v in sorted(reduced):
        if v in seen:
            continue
        comp = _district(graph, [v], reduced)
        seen |= comp
        enclosing = _district(graph, comp, nodes)
        base = _chain_factor(table, enclosing)
        factors.append(_identify_component(graph, order, comp, enclosing, base))
    expr = sum_over(sorted(reduced - y), product_of(factors))

    # The chain factors may condition on clusters outside x and y; the
    # expression's value does not depend on those contexts (it equals the
    # effect at every one of them), so averaging them out under their
    # observed weight leaves a formula over the query variables alone.
    # Returns the expression and the free-variable cache this filled, which
    # simplify's pass goes on to use.
    fv = {}
    extra = _free_vars(expr, fv) - x - y
    if extra:
        expr = sum_over(sorted(extra), product_of([CondProb(sorted(extra)), expr]))
    return expr, fv


def _build_hedge(c: ClusterDag, x: FrozenSet[str],
                 inner: FrozenSet[str], outer: FrozenSet[str]) -> Hedge:
    graph = c.graph

    # Distance of every outer node to the inner set along directed edges
    # within outer, by one reverse breadth-first search.
    dist = dict.fromkeys(inner, 0)
    queue = list(inner)
    for h in queue:
        for t in graph._parents[h]:
            if t in outer and t not in dist:
                dist[t] = dist[h] + 1
                queue.append(t)

    # Each node keeps its smallest-named child one step nearer the roots.
    chosen = [(v, min(h for h in graph._children[v]
                      if h in outer and dist[h] == dist[v] - 1))
              for v in sorted(outer - inner)]

    bidirected = [(a, b) for a, b in graph.bidirected if a in outer and b in outer]
    forest_f = Admg(sorted(outer), chosen, bidirected)
    forest_fprime = Admg(sorted(inner), (),
                         [(a, b) for a, b in bidirected if a in inner and b in inner])
    return Hedge(root_set=inner, forest_f=forest_f, forest_fprime=forest_fprime,
                 intersected_x=frozenset(outer & x))


def identify(c: ClusterDag, x: Iterable[str], y: Iterable[str]) -> IdResult:
    """Decide identifiability of P(y|do(x)) in the cluster DAG.

    Returns :class:`Identified` carrying a simplified expression over the
    observational cluster distribution, valid in every compatible
    underlying model, or :class:`NonIdentified` carrying a
    :class:`Hedge`.  An empty ``x`` gives the marginal P(y) (line 1 of ID).
    """
    x, y = _validate_query(c, x, y)
    try:
        expr, fv = _run(c, x, y)
    except _HedgeFound as found:
        return NonIdentified(_build_hedge(c, x, found.inner, found.outer))
    return Identified(_simplify_with(expr, x | y, fv))


def hedge_expansion_witness(c: ClusterDag, h: Hedge,
                            sizes: Dict[str, int]) -> Admg:
    """A compatible variable-level graph on which the query still fails.

    This is the default expansion: every cross-cluster edge joins the
    first members of its clusters, and every other member is isolated.
    The first members then carry a copy of the cluster graph and so of
    the hedge, so identification of the induced variable-level query
    fails on the result for any choice of cluster sizes.
    """
    if not set(h.forest_f.nodes) <= set(c.graph.nodes):
        raise ValueError("hedge does not belong to this cluster DAG")
    for name in c.graph.nodes:
        if sizes.get(name, 0) < 1:
            raise ValueError(f"size for cluster {name!r} must be a positive integer")
    return expand(c, ExpansionSpec(sizes=dict(sizes)))[0]

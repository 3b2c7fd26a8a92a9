"""Cluster DAGs: quotients of ADMGs under admissible partitions.

A partition groups variables into named clusters.  The quotient graph
has a directed edge between two clusters whenever some member of the
first is a parent of some member of the second, and a bidirected edge
whenever a cross-cluster bidirected edge exists.  The partition is
admissible iff the quotient is acyclic.  A cluster DAG stands for the
whole class of ADMGs with that exact quotient; conditioning on a cluster
means conditioning on all of its variables.
"""

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Tuple

from .graphs import Admg, CycleError


class PartitionError(ValueError):
    """Raised when a partition does not fit its target variable set."""


class InadmissibleError(PartitionError):
    """Raised when a partition induces a cyclic cluster graph."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("inadmissible partition, cluster cycle: "
                         + " -> ".join(self.cycle + (self.cycle[0],)))


@dataclass(frozen=True)
class Partition:
    """Named, disjoint, nonempty blocks of variables, sorted by name.

    Cluster names and variable names live in separate namespaces; a
    variable may share its cluster's name (the usual singleton case).
    """

    blocks: Tuple[Tuple[str, Tuple[str, ...]], ...]
    _members: Dict[str, Tuple[str, ...]] = field(repr=False, compare=False)
    _cluster_of: Dict[str, str] = field(repr=False, compare=False)

    def __init__(self, blocks: Iterable[Tuple[str, Iterable[str]]]):
        members: Dict[str, Tuple[str, ...]] = {}
        cluster_of: Dict[str, str] = {}
        for name, mem in blocks:
            mem = tuple(sorted(set(mem)))
            if not mem:
                raise PartitionError(f"cluster {name!r} is empty")
            if name in members:
                raise PartitionError(f"duplicate cluster name {name!r}")
            if not cluster_of.keys().isdisjoint(mem):
                raise PartitionError("variables assigned twice: "
                                     f"{sorted(cluster_of.keys() & mem)}")
            members[name] = mem
            for v in mem:
                cluster_of[v] = name
        object.__setattr__(self, "blocks", tuple(sorted(members.items())))
        object.__setattr__(self, "_members", members)
        object.__setattr__(self, "_cluster_of", cluster_of)

    @property
    def cluster_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.blocks)

    def members(self, cluster: str) -> Tuple[str, ...]:
        try:
            return self._members[cluster]
        except KeyError:
            raise PartitionError(f"unknown cluster {cluster!r}") from None

    def cluster_of(self, variable: str) -> str:
        try:
            return self._cluster_of[variable]
        except KeyError:
            raise PartitionError(f"variable {variable!r} is not in the partition") from None

    def variables_of(self, clusters: Iterable[str]) -> FrozenSet[str]:
        return frozenset(v for c in clusters for v in self.members(c))

    def to_cluster_map(self) -> Dict[str, Tuple[str, ...]]:
        return dict(self._members)

    def _check_covers(self, g: Admg):
        if self._cluster_of.keys() != set(g.nodes):
            missing = set(g.nodes) - self._cluster_of.keys()
            extra = self._cluster_of.keys() - set(g.nodes)
            parts = []
            if missing:
                parts.append(f"uncovered variables {sorted(missing)}")
            if extra:
                parts.append(f"unknown variables {sorted(extra)}")
            raise PartitionError("partition does not match the graph: " + "; ".join(parts))


@dataclass(frozen=True)
class ClusterDag:
    """A cluster-level ADMG: the graph over clusters is the whole value.

    It stands for every variable-level graph whose quotient it is, so it
    carries no partition, whether it was built from one or written down
    directly as domain knowledge about an unknown underlying graph.
    """

    graph: Admg


def _quotient_edges(g: Admg, p: Partition):
    directed = set()
    for tail, head in g.directed:
        ct, ch = p.cluster_of(tail), p.cluster_of(head)
        if ct != ch:
            directed.add((ct, ch))
    bidirected = set()
    for a, b in g.bidirected:
        ca, cb = p.cluster_of(a), p.cluster_of(b)
        if ca != cb:
            bidirected.add(tuple(sorted((ca, cb))))
    return directed, bidirected


def build_cdag(g: Admg, p: Partition) -> ClusterDag:
    """Quotient ``g`` by ``p``; raises InadmissibleError on a cluster cycle.

    Intra-cluster edges of ``g`` are discarded.  The error carries one
    shortest cluster cycle for diagnostics.
    """
    p._check_covers(g)
    directed, bidirected = _quotient_edges(g, p)
    try:
        graph = Admg(p.cluster_names, directed, bidirected)
    except CycleError as err:
        raise InadmissibleError(err.cycle) from None
    return ClusterDag(graph)


def is_compatible(g: Admg, c: ClusterDag, p: Partition) -> bool:
    """True iff the quotient of ``g`` by ``p`` is exactly ``c``'s graph.

    Compatibility is exact edge-set equality, not containment: the
    quotient construction produces all and only the witnessed edges.
    """
    p._check_covers(g)
    if set(p.cluster_names) != set(c.graph.nodes):
        raise PartitionError("partition cluster names do not match the cluster DAG")
    try:
        quotient = build_cdag(g, p)
    except InadmissibleError:
        return False
    return quotient.graph == c.graph


def singleton_cdag(g: Admg) -> ClusterDag:
    """Wrap an Admg as the cluster DAG with one variable per cluster."""
    return ClusterDag(g)


def mutilate_cdag(c: ClusterDag, cut_into: Iterable[str] = (),
                  cut_out_of: Iterable[str] = ()) -> ClusterDag:
    """Cut cluster edges into ``cut_into`` and out of ``cut_out_of``.

    The result is the cluster DAG of the equally mutilated underlying
    graph, so cluster-level surgery commutes with the quotient.
    """
    return ClusterDag(c.graph.mutilate(cut_into, cut_out_of))


def cdag_d_separated(c: ClusterDag, x: Iterable[str], y: Iterable[str],
                     z: Iterable[str] = ()) -> bool:
    """d-separation between cluster sets: m-separation on the cluster graph."""
    return c.graph.m_separated(x, y, z)

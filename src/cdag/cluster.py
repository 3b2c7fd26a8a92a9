"""Cluster DAGs: quotients of ADMGs under admissible partitions.

A partition groups variables into named clusters.  The quotient graph
has a directed edge between two clusters whenever some member of the
first is a parent of some member of the second, and a bidirected edge
whenever a cross-cluster bidirected edge exists.  The partition is
admissible iff the quotient is acyclic.  A cluster DAG stands for the
whole class of ADMGs with that exact quotient; conditioning on a cluster
means conditioning on all of its variables.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

from .graphs import Admg, CycleError


class PartitionError(ValueError):
    """Raised when a partition does not fit its target variable set."""


class InadmissibleError(PartitionError):
    """Raised when a partition induces a cyclic cluster graph."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("inadmissible partition, cluster cycle: "
                         + " -> ".join(self.cycle + (self.cycle[0],)))


class Partition:
    """An ordered list of named, disjoint, nonempty blocks of variables.

    Cluster names and variable names live in separate namespaces; a
    variable may share its cluster's name (the usual singleton case).
    """

    __slots__ = ("blocks", "_cluster_of")

    def __init__(self, blocks: Sequence[Tuple[str, Iterable[str]]]):
        seen_clusters = set()
        seen_vars = set()
        normalized = []
        for name, members in blocks:
            members = tuple(sorted(set(members)))
            if not members:
                raise PartitionError(f"cluster {name!r} is empty")
            if name in seen_clusters:
                raise PartitionError(f"duplicate cluster name {name!r}")
            overlap = seen_vars & set(members)
            if overlap:
                raise PartitionError(f"variables assigned twice: {sorted(overlap)}")
            seen_clusters.add(name)
            seen_vars |= set(members)
            normalized.append((name, members))
        normalized.sort(key=lambda b: b[0])
        self.blocks: Tuple[Tuple[str, Tuple[str, ...]], ...] = tuple(normalized)
        self._cluster_of: Dict[str, str] = {}
        for name, members in self.blocks:
            for v in members:
                self._cluster_of[v] = name

    @classmethod
    def singletons(cls, names: Iterable[str]) -> "Partition":
        return cls([(n, (n,)) for n in names])

    @property
    def cluster_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.blocks)

    @property
    def variables(self) -> FrozenSet[str]:
        return frozenset(self._cluster_of)

    def members(self, cluster: str) -> Tuple[str, ...]:
        for name, mem in self.blocks:
            if name == cluster:
                return mem
        raise PartitionError(f"unknown cluster {cluster!r}")

    def cluster_of(self, variable: str) -> str:
        try:
            return self._cluster_of[variable]
        except KeyError:
            raise PartitionError(f"variable {variable!r} is not in the partition") from None

    def variables_of(self, clusters: Iterable[str]) -> FrozenSet[str]:
        out = set()
        for c in clusters:
            out |= set(self.members(c))
        return frozenset(out)

    def to_cluster_map(self) -> Dict[str, Tuple[str, ...]]:
        return {name: mem for name, mem in self.blocks}

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"Partition({list(self.blocks)})"

    def check_partitions(self, g: Admg):
        if self.variables != set(g.nodes):
            missing = set(g.nodes) - self.variables
            extra = self.variables - set(g.nodes)
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
    p.check_partitions(g)
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
    p.check_partitions(g)
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

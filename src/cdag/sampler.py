"""Generation of variable-level graphs compatible with a cluster DAG.

Compatibility is enforced constructively: a deterministic witness
skeleton realizes every cluster edge first, then the chosen policies add
internal structure and extra cross edges that can never change the
quotient.  Internal directed edges always follow each cluster's member
order, so the variable graph is acyclic by construction and every output
passes the exact compatibility check (the tests run it, not ``expand``).
"""

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .graphs import Admg
from .cluster import ClusterDag, Partition
from .oracle import StateSpaceCapError, _cap


@dataclass(frozen=True)
class InternalPolicy:
    """Connections inside a cluster.

    ``random`` draws directed edges along the member order with
    probability ``edge_density`` and bidirected edges with probability
    ``bidirected_density``; ``chain`` links consecutive members with a
    directed and a parallel bidirected edge; ``full`` wires every ordered
    pair both ways; ``empty`` adds nothing.
    """

    kind: str
    edge_density: float = 0.0
    bidirected_density: float = 0.0

    def __post_init__(self):
        if self.kind not in ("random", "chain", "full", "empty"):
            raise ValueError(f"unknown internal policy {self.kind!r}")
        for d in (self.edge_density, self.bidirected_density):
            if not 0.0 <= d <= 1.0:
                raise ValueError(f"density {d!r} outside [0, 1]")


@dataclass(frozen=True)
class CrossPolicy:
    """Connections between clusters joined by a cluster edge.

    ``minimal_witness`` realizes each cluster edge with exactly one
    deterministic variable edge (first members by order); ``random``
    places one witness uniformly among the cross pairs and adds further
    pairs with probability ``density``; ``full`` wires every cross pair.
    A fixed witness seat would make every sample share one distinguished
    member per cluster, which badly skews identifiability statistics, so
    the random policy randomizes the seat as well.
    """

    kind: str
    density: float = 0.0

    def __post_init__(self):
        if self.kind not in ("minimal_witness", "random", "full"):
            raise ValueError(f"unknown cross policy {self.kind!r}")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density {self.density!r} outside [0, 1]")


@dataclass(frozen=True)
class ExpansionSpec:
    sizes: Dict[str, int] = field(default_factory=dict)
    internal: InternalPolicy = InternalPolicy("empty")
    cross: CrossPolicy = CrossPolicy("minimal_witness")
    seed: int = 0

    def size_of(self, cluster: str) -> int:
        size = self.sizes.get(cluster, 1)
        if size < 1:
            raise ValueError(f"size for cluster {cluster!r} must be >= 1")
        return size


def _member_names(cluster: str, size: int) -> Tuple[str, ...]:
    if size == 1:
        return (cluster,)
    return tuple(f"{cluster}_{k}" for k in range(1, size + 1))


def expand(c: ClusterDag, spec: ExpansionSpec) -> Tuple[Admg, Partition]:
    """A variable-level graph and partition with quotient exactly ``c``.

    With all sizes 1 and any policies the result is the cluster graph
    itself under the singleton partition.  Raises ``StateSpaceCapError``
    when the policies would walk more member pairs than ``CDAG_STATE_CAP``.
    """
    size = {name: spec.size_of(name) for name in c.graph.nodes}
    if not size.keys() >= spec.sizes.keys():
        raise ValueError(f"sizes name unknown cluster(s) {sorted(spec.sizes.keys() - size.keys())}")
    # every member pair the policies walk, counted before any name is built
    kind = spec.internal.kind
    internal = sum(n - 1 if kind == "chain" else 0 if kind == "empty" else n * (n - 1) // 2
                   for n in size.values())
    pairs = internal + sum(size[a] * size[b] for edges in (c.graph.directed, c.graph.bidirected)
                           for a, b in edges)
    cap = _cap()
    if pairs > cap:
        raise StateSpaceCapError(f"expand: {pairs} member pairs exceed the cap ({cap}); "
                                 "raise CDAG_STATE_CAP")

    # the stream keyed by (seed, 0), which the pinned expansions were drawn from
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(0,)))
    members = {name: _member_names(name, size[name]) for name in c.graph.nodes}
    partition = Partition([(name, members[name]) for name in c.graph.nodes])

    directed: List[Tuple[str, str]] = []
    bidirected: List[Tuple[str, str]] = []
    # every internal pair's (directed, bidirected) draws, as scalar draws give them
    draws = iter(rng.random(2 * internal).tolist() if kind == "random" else ())

    for name in c.graph.nodes:
        mem = members[name]
        if kind == "random":
            for pair in itertools.combinations(mem, 2):
                if next(draws) < spec.internal.edge_density:
                    directed.append(pair)
                if next(draws) < spec.internal.bidirected_density:
                    bidirected.append(pair)
        elif kind != "empty":
            walk = list(zip(mem, mem[1:]) if kind == "chain" else itertools.combinations(mem, 2))
            directed += walk
            bidirected += walk

    def cross_pairs(tail_cluster, head_cluster):
        pairs = [(a, b) for a in members[tail_cluster] for b in members[head_cluster]]
        if spec.cross.kind == "minimal_witness":
            return [pairs[0]]
        if spec.cross.kind == "full":
            return pairs
        witness = pairs[int(rng.integers(len(pairs)))]
        rest = [pair for pair in pairs if pair != witness]
        uniforms = rng.random(len(rest)).tolist() if rest else ()    # no call when none is drawn
        return [witness] + [pair for pair, u in zip(rest, uniforms) if u < spec.cross.density]

    for tail, head in sorted(c.graph.directed):
        directed.extend(cross_pairs(tail, head))
    for a, b in sorted(c.graph.bidirected):
        bidirected.extend(cross_pairs(a, b))

    variables = [v for name in c.graph.nodes for v in members[name]]
    return Admg(variables, directed, bidirected), partition


def sample_batch(c: ClusterDag, spec: ExpansionSpec, count: int) -> List[Tuple[Admg, Partition]]:
    """``count`` independent expansions with per-item seeds derived from
    ``spec.seed`` by the counter-based splitting rule."""
    return [expand(c, replace(spec, seed=_derive_seed(spec.seed, i))) for i in range(count)]


def _derive_seed(seed: int, *key: int) -> int:
    """A 64-bit seed keyed by ``(seed, *key)``, independent across keys."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key)
               .generate_state(1, np.uint64)[0])

"""Acyclic directed mixed graphs (ADMGs) and the algorithms on them.

An ADMG has directed edges (causal influence) and bidirected edges
(latent confounding between the endpoints).  Kinship relations follow
directed edges only.  All values are immutable after construction and
every operation is a pure function, so graphs are safe to share freely.
"""

import heapq
from collections import deque
from typing import Iterable, Tuple, FrozenSet


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class CycleError(GraphError):
    """Raised when the directed part of a graph contains a cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("directed cycle: " + " -> ".join(self.cycle + (self.cycle[0],)))


class UnknownNodeError(GraphError):
    """Raised when a query mentions a node that is not in the graph."""


class Admg:
    """An acyclic directed mixed graph over named nodes.

    Nodes are opaque strings kept in lexicographic order so that every
    derived ordering (topological sorts, renderings)
    is reproducible.  Directed edges are (tail, head) pairs; bidirected
    edges are stored as canonical sorted pairs.  Self loops are rejected
    in both edge sets and the directed part is checked for acyclicity at
    construction time, so every Admg instance is valid thereafter.
    """

    __slots__ = ("nodes", "directed", "bidirected", "_node_set", "_parents",
                 "_children", "_siblings", "_topo")

    def __init__(self, nodes: Iterable[str], directed: Iterable[Tuple[str, str]] = (),
                 bidirected: Iterable[Tuple[str, str]] = ()):
        nodes = tuple(sorted(set(nodes)))
        for name in (v for v in nodes if v.endswith("'")):    # kept for renamed names
            raise GraphError(f"node name {name!r} must not end in a prime")
        node_set = frozenset(nodes)

        edge_sets = []
        for arrow, edges in (("->", directed), ("<->", bidirected)):
            checked = set()
            for a, b in edges:
                if a not in node_set or b not in node_set:
                    raise UnknownNodeError(
                        f"edge {a} {arrow} {b} has an endpoint outside the node set")
                if a == b:
                    raise GraphError(f"self loop {a} {arrow} {b}")
                checked.add((a, b) if arrow == "->" or a <= b else (b, a))
            edge_sets.append(frozenset(checked))

        self._link(nodes, node_set, *edge_sets)
        self._topo = self._kahn_order()

    @classmethod
    def _trusted(cls, nodes, node_set, directed, bidirected) -> "Admg":
        # A subgraph of a valid graph: sorted distinct nodes and checked
        # edge sets, so no check runs, and it is acyclic, so its order is
        # found on first use.
        g = object.__new__(cls)
        g._link(nodes, node_set, directed, bidirected)
        return g

    def _link(self, nodes, node_set, directed, bidirected):
        self.nodes: Tuple[str, ...] = nodes
        self._node_set = node_set
        self.directed: FrozenSet[Tuple[str, str]] = directed
        self.bidirected: FrozenSet[Tuple[str, str]] = bidirected
        self._parents = {v: set() for v in nodes}
        self._children = {v: set() for v in nodes}
        for tail, head in directed:
            self._parents[head].add(tail)
            self._children[tail].add(head)
        self._siblings = {v: set() for v in nodes}
        for a, b in bidirected:
            self._siblings[a].add(b)
            self._siblings[b].add(a)
        self._topo = None

    def _kahn_order(self):
        # Kahn's algorithm with a lexicographic tie break, the ready nodes
        # on a heap; raises CycleError carrying one shortest cycle if the
        # directed part is cyclic.
        in_degree = {v: len(self._parents[v]) for v in self.nodes}
        ready = [v for v in self.nodes if not in_degree[v]]    # sorted, so a heap
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for ch in self._children[v]:
                in_degree[ch] -= 1
                if in_degree[ch] == 0:
                    heapq.heappush(ready, ch)
        if len(order) != len(self.nodes):
            raise CycleError(self._find_cycle())
        return tuple(order)

    def _find_cycle(self):
        # Shortest directed cycle by BFS from each node back to itself.
        best = None
        for start in self.nodes:
            prev = {start: None}
            queue = deque([start])
            found = None
            while queue and found is None:
                v = queue.popleft()
                for ch in sorted(self._children[v]):
                    if ch == start:
                        found = v
                        break
                    if ch not in prev:
                        prev[ch] = v
                        queue.append(ch)
            if found is not None:
                cycle = [found]
                while prev[cycle[-1]] is not None:
                    cycle.append(prev[cycle[-1]])
                cycle.reverse()
                if best is None or len(cycle) < len(best):
                    best = cycle
        return best

    # -- basic protocol -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Admg):
            return NotImplemented
        return (self.nodes == other.nodes and self.directed == other.directed
                and self.bidirected == other.bidirected)

    def __hash__(self):
        return hash((self.nodes, self.directed, self.bidirected))

    def __repr__(self):
        return (f"Admg(nodes={list(self.nodes)}, directed={sorted(self.directed)}, "
                f"bidirected={sorted(self.bidirected)})")

    def _check_members(self, s):
        s = frozenset(s)
        unknown = s - self._node_set
        if unknown:
            raise UnknownNodeError(f"unknown node(s): {sorted(unknown)}")
        return s

    # -- kinship --------------------------------------------------------

    def ancestral_closure(self, s: Iterable[str]) -> FrozenSet[str]:
        """``s`` together with all its ancestors (a closed set under ancestors)."""
        return self._reach(self._check_members(s), self._parents, self._node_set)

    @staticmethod
    def _reach(s: Iterable[str], links, within) -> FrozenSet[str]:
        """``s`` and every node reached from it along ``links`` (the adjacency
        map ``_parents`` or ``_siblings``) without leaving ``within``,
        unchecked.  For ``s`` inside ``within`` this is the ancestral closure
        or c-component union of ``s`` in the subgraph ``within`` induces,
        found without building that subgraph."""
        seen = set(s)
        frontier = list(seen)
        while frontier:
            for w in links[frontier.pop()]:
                if w in within and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return frozenset(seen)

    def topological_order(self) -> Tuple[str, ...]:
        """Deterministic topological order (Kahn, lexicographic tie break)."""
        if self._topo is None:
            self._topo = self._kahn_order()
        return self._topo

    # -- surgery ----------------------------------------------------------

    def mutilate(self, cut_into: Iterable[str] = (), cut_out_of: Iterable[str] = ()) -> "Admg":
        """Remove edges with an arrowhead at ``cut_into`` and directed edges
        with a tail in ``cut_out_of``.

        Arrowheads at a node are directed heads and both ends of incident
        bidirected edges, so bidirected edges touching ``cut_into`` go away
        while ``cut_out_of`` leaves them alone.
        """
        into = self._check_members(cut_into)
        out_of = self._check_members(cut_out_of)
        directed = frozenset((t, h) for t, h in self.directed if h not in into and t not in out_of)
        bidirected = frozenset((a, b) for a, b in self.bidirected if a not in into and b not in into)
        return Admg._trusted(self.nodes, self._node_set, directed, bidirected)

    # -- separation -------------------------------------------------------

    def m_separated(self, x: Iterable[str], y: Iterable[str], z: Iterable[str] = ()) -> bool:
        """Test whether every path between ``x`` and ``y`` is blocked by ``z``.

        Bidirected edges act as segments with arrowheads at both ends.  A
        collider on a path is active iff it or one of its descendants is in
        ``z``; a non-collider is active iff it is not in ``z``.  Implemented
        as Bayes-ball (Shachter 1998) over (node, entered-by-an-arrowhead)
        states, linear in the number of edges: a node outside ``z`` passes
        the ball on to its children, and also to its parents and siblings
        when the ball came in by a tail, as it does at the ``x`` nodes; a
        node in ``z`` sends a ball that came in by an arrowhead back out to
        its parents and siblings, and stops every other ball.  A collider
        with a descendant in ``z`` needs no ancestor set: the ball walks on
        down to that descendant, bounces, and climbs back by a tail.
        """
        x = self._check_members(x)
        y = self._check_members(y)
        z = self._check_members(z)
        if x & y or x & z or y & z:
            raise GraphError("query sets must be pairwise disjoint")
        if not x or not y:
            return True

        children, parents, siblings = self._children, self._parents, self._siblings
        stack = [(v, False) for v in x]
        visited = set(stack)
        while stack:
            v, by_head = stack.pop()
            if v in z:
                if not by_head:
                    continue
                moves = ((parents[v], False), (siblings[v], True))
            elif by_head:
                moves = ((children[v], True),)
            else:
                moves = ((children[v], True), (parents[v], False), (siblings[v], True))
            for nodes, head in moves:
                for w in nodes:
                    if (w, head) not in visited:
                        if w in y:
                            return False
                        visited.add((w, head))
                        stack.append((w, head))
        return True

"""Applicability of the three do-calculus rules on a cluster DAG.

These are checkers, not a proof search: each rule reports whether its
graphical condition holds and, if so, which distributional equality it
licenses.  Rule 1 drops an observation, rule 2 exchanges an intervention
for an observation, and rule 3 drops an intervention; rule 3 first
computes the intervened clusters that are non-ancestors of the
observation set in the X-cut graph and cuts into those as well.
"""

from dataclasses import dataclass
from typing import FrozenSet, Iterable

from .graphs import GraphError
from .cluster import ClusterDag, cdag_d_separated, mutilate_cdag


@dataclass(frozen=True)
class DoQuery:
    """Disjoint cluster sets: intervened x, targets y, candidates z, context w."""

    x: FrozenSet[str]
    y: FrozenSet[str]
    z: FrozenSet[str]
    w: FrozenSet[str]

    def __init__(self, x: Iterable[str] = (), y: Iterable[str] = (),
                 z: Iterable[str] = (), w: Iterable[str] = ()):
        object.__setattr__(self, "x", frozenset(x))
        object.__setattr__(self, "y", frozenset(y))
        object.__setattr__(self, "z", frozenset(z))
        object.__setattr__(self, "w", frozenset(w))
        sets = [self.x, self.y, self.z, self.w]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                if sets[i] & sets[j]:
                    raise GraphError(f"query sets overlap on {sorted(sets[i] & sets[j])}")

    def validate_for(self, c: ClusterDag):
        unknown = (self.x | self.y | self.z | self.w) - set(c.graph.nodes)
        if unknown:
            raise GraphError(f"unknown cluster(s): {sorted(unknown)}")
        if not self.y or not self.z:
            raise GraphError("rule checks need nonempty y and z sets")


@dataclass(frozen=True)
class RuleVerdict:
    rule: str
    applies: bool
    separation_tested: str
    equality_granted: str


def _names(s: FrozenSet[str]) -> str:
    return ",".join(sorted(v.lower() for v in s))


def _do(s: FrozenSet[str]) -> str:
    return f"do({_names(s)})" if s else ""


def _p_of(y, args) -> str:
    inner = ", ".join(a for a in args if a)
    return f"P({_names(y)} | {inner})" if inner else f"P({_names(y)})"


def _verdict(rule: str, c: ClusterDag, q: DoQuery, cut_into, cut_out_of, label: str,
             lhs, rhs) -> RuleVerdict:
    # Cut the graph, test (Y _||_ Z | X, W) in it and, if that holds, spell
    # out the equality P(y | lhs) = P(y | rhs) that the rule grants.
    cut = mutilate_cdag(c, cut_into=cut_into, cut_out_of=cut_out_of)
    applies = cdag_d_separated(cut, q.y, q.z, q.x | q.w)
    tested = f"({_names(q.y)} _||_ {_names(q.z)} | {_names(q.x | q.w) or '∅'}) in {label}"
    return RuleVerdict(rule, applies, tested,
                       f"{_p_of(q.y, lhs)} = {_p_of(q.y, rhs)}" if applies else "")


def rule1(c: ClusterDag, q: DoQuery) -> RuleVerdict:
    """Insertion/deletion of observations:
    P(y | do(x), z, w) = P(y | do(x), w) when Y and Z are separated by
    X and W after cutting edges into X."""
    q.validate_for(c)
    return _verdict("R1", c, q, q.x, (), f"G[cut into {_names(q.x) or '∅'}]",
                    [_do(q.x), _names(q.z), _names(q.w)], [_do(q.x), _names(q.w)])


def rule2(c: ClusterDag, q: DoQuery) -> RuleVerdict:
    """Action/observation exchange:
    P(y | do(x), do(z), w) = P(y | do(x), z, w) when Y and Z are separated
    by X and W after cutting edges into X and out of Z."""
    q.validate_for(c)
    return _verdict("R2", c, q, q.x, q.z,
                    f"G[cut into {_names(q.x) or '∅'}, out of {_names(q.z)}]",
                    [_do(q.x), _do(q.z), _names(q.w)], [_do(q.x), _names(q.z), _names(q.w)])


def rule3(c: ClusterDag, q: DoQuery) -> RuleVerdict:
    """Insertion/deletion of actions:
    P(y | do(x), do(z), w) = P(y | do(x), w) when Y and Z are separated by
    X and W after cutting edges into X and into Z(W), the Z-clusters that
    are not ancestors of any W-cluster once edges into X are cut."""
    q.validate_for(c)
    x_cut = mutilate_cdag(c, cut_into=q.x)
    w_ancestral = x_cut.graph.ancestral_closure(q.w) if q.w else frozenset()
    z_of_w = frozenset(zc for zc in q.z if zc not in w_ancestral)
    return _verdict("R3", c, q, q.x | z_of_w, (),
                    f"G[cut into {_names(q.x | z_of_w) or '∅'}] with Z(W) = {{{_names(z_of_w)}}}",
                    [_do(q.x), _do(q.z), _names(q.w)], [_do(q.x), _names(q.w)])

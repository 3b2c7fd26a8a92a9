"""Reference implementations that the tests compare the library against.

They are deliberately naive and independent of the code they check:

* :func:`evaluate` walks an expression pointwise, looping over every
  joint value of each bound variable; the library evaluates through the
  vectorized :func:`cdag.formula.tabulate`.
* :func:`tabulate_walk` evaluates an expression vectorized by walking it,
  resolving names and working out every permutation and shape at each
  node; the library builds a plan once per expression and table layout
  and runs it on each table.  Both issue the same numpy operations.
* :func:`m_separated_brute_force` enumerates every path, with the
  colliders opened by ``z`` read from the edge list, and
  :func:`m_separated_augmented` searches Richardson's (2003) augmented
  graph from the three edge collections alone, with no ``Admg`` method;
  the library's :meth:`cdag.graphs.Admg.m_separated` is Bayes-ball.
* :func:`kahn_order` keeps Kahn's ready nodes in a list it sorts again
  whenever nodes open, and scans the directed edge list for each placed
  node; the library keeps them on a heap.
* :func:`descendants` and :func:`c_components` rescan the edge lists
  until nothing grows, as :func:`_cut_ancestors` does for ancestors; the
  library walks its adjacency maps, and keeps neither set as a method.
* :func:`simplify`, :func:`free_vars` and :func:`alpha_normalize` walk an
  expression as a tree, so a sub-expression shared by several parents is
  rewritten once per reference and free variables are recomputed at
  every sum, and :func:`simplify` repeats its rewrite pass until nothing
  changes; the library processes each shared node once, in one pass.
  :func:`alpha_normalize` builds each renamed conditional through the
  checked, sorting constructor; the library sorts the renamed names itself.
* :func:`sum_rules` restarts its scan at the first factor after every
  drop; the library sweeps from the last factor to the first until a
  sweep drops nothing.
* :func:`render_per_name` lowercases each variable name on its own; the
  library's :func:`cdag.formula.render` lowercases each joined name list
  once.
* :func:`counterfactual_prob` solves every exogenous state one at a time
  through :func:`solve`, which takes the argmax of each CPT row in
  topological order, or through :class:`MacroScm`, which substitutes each
  cluster's member mechanisms in cluster order.  They are the only copies:
  the library keeps no counterfactual engine.  Each takes a deterministic
  model, one whose CPT entries are all 0 or 1, and reads that from the
  tables.
* :func:`reference_random_cbn` draws a random model one Dirichlet row at
  a time and builds it through the checked constructor; the library's
  :func:`cdag.random_cbn` batches the same draws and must match it bit
  for bit.  It also builds the models the library does not: noise of any
  cardinality, and the deterministic models the counterfactual oracles
  need, each CPT row a permutation of its variable's private noise.
* :func:`interventional_distribution` fixes the intervened values in
  every factor and contracts once per value, finding private noise by
  scanning every mechanism; the library builds each factor once per
  model and answers every value of an intervened set from one
  contraction.  :func:`cluster_factorization_check` compares it with the
  cluster-level reassembly one intervention value at a time.
* :func:`contract` scans the factors still to come for each axis after
  every join and lines every operand up through :func:`product`, whose
  views :func:`broadcast` finds by searching the name tuples; the library
  records where each axis is used last and folds each prior in with one
  broadcast multiply.  Both issue the same numpy operations, so the
  tables above, :func:`joint_distribution` and :func:`tabulate_walk`
  are byte references for the library.
* :func:`model_table_error` checks a model's exogenous laws and CPT
  rows one table at a time, as the library checks a hand-built model;
  ``tests/conftest.py`` runs it on every model ``random_cbn`` builds,
  which the library does not check.
* :func:`check_hedge` checks a returned hedge against Shpitser and
  Pearl's (2006) definition, and :func:`has_hedge` searches every pair
  of node sets for one, which :func:`find_hedge` returns as a hedge; they
  scan edge lists over explicit node sets and share no code with
  ``cdag.identify`` or ``Admg``'s reachability.
  :func:`identified_by_fixed_point` certifies the identified side at any
  size by ID's own fixed point, over adjacency lists it builds from the
  edge collections alone; it is independent of the library in code only.

The enumerations among them are exponential and meant for small inputs
only; the augmentation criterion and the fixed point are polynomial.
"""

import functools
import itertools
import math
from collections import Counter
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from cdag.formula import (ONE, CondProb, Fraction, FormulaError, JointTable, ProbExpr,
                          Product, Sum, UnknownVariableError, ZeroConditioningMass,
                          _LATEX, _TEXT, _base_name, _One, product_of, render,
                          tabulate)
from cdag.graphs import Admg, GraphError
from cdag.identify import Hedge
from cdag.cluster import Partition, build_cdag
from cdag.oracle import DiscreteCbn, Mechanism, StateSpaceCapError, _cap


class _Factor:
    """A named-axis array: axis ``i`` of ``values`` is ``names[i]``.  The
    reference walker and the reference contraction use this one, not the
    library's, so they stay independent of the code they check."""

    __slots__ = ("names", "values")

    def __init__(self, names: Sequence, values: np.ndarray):
        self.names = tuple(names)
        self.values = values

    def sum_out(self, drop) -> "_Factor":
        """Sum over the axes named in ``drop``, in one ``sum`` call."""
        axes = tuple(i for i, n in enumerate(self.names) if n in drop)
        if not axes:
            return self
        return _Factor([n for n in self.names if n not in drop], self.values.sum(axis=axes))


def _resolver(table: JointTable, clusters: Optional[Dict[str, Sequence[str]]]):
    clusters = clusters or {}

    def resolve(name):
        base = _base_name(name)
        if base in table._index:
            return (base,)
        if base in clusters:
            return tuple(clusters[base])
        raise UnknownVariableError(f"variable {name!r} is neither a table variable "
                                   "nor a known cluster")

    return resolve


def evaluate(e: ProbExpr, t: JointTable, assignment: Dict[str, int],
             clusters: Optional[Dict[str, Sequence[str]]] = None,
             zero_division: str = "raise") -> float:
    """Evaluate ``e`` on the joint table at the given free-variable values.

    ``assignment`` maps table variables to state indices and must cover
    the member variables of every free expression variable.  Cluster
    names resolve through ``clusters`` to their member variables; bound
    cluster variables are enumerated over the members' joint state space.

    ``zero_division`` controls conditionals with zero conditioning mass:
    ``"raise"`` raises :class:`ZeroConditioningMass` (full-support tables
    never trigger it), ``"zero"`` uses the plug-in convention 0/0 = 0 for
    empirical tables.
    """
    if zero_division not in ("raise", "zero"):
        raise FormulaError(f"bad zero_division mode {zero_division!r}")
    resolve = _resolver(t, clusters)
    context: Dict[str, Tuple[int, ...]] = {}
    for name in sorted(free_vars(e)):
        group = resolve(name)
        try:
            context[name] = tuple(assignment[v] for v in group)
        except KeyError as err:
            raise FormulaError(f"assignment is missing variable {err.args[0]!r} "
                               f"needed by {name!r}") from None

    def cond_value(node):
        pairs = {}
        for name in node.target + node.given:
            for var, val in zip(resolve(name), context[name]):
                if var in pairs:
                    raise FormulaError(f"variable {var!r} indexed twice in "
                                       f"{render(node, 'text')}")
                pairs[var] = val
        given_pairs = {}
        for name in node.given:
            for var, val in zip(resolve(name), context[name]):
                given_pairs[var] = val
        denom = t.prob_of(given_pairs) if given_pairs else 1.0
        if denom <= 0.0:
            if zero_division == "zero":
                return 0.0
            raise ZeroConditioningMass(
                f"conditioning event has zero probability in {render(node, 'text')}")
        return t.prob_of(pairs) / denom

    def walk(node):
        if isinstance(node, _One):
            return 1.0
        if isinstance(node, CondProb):
            return cond_value(node)
        if isinstance(node, Product):
            out = 1.0
            for f in node.factors:
                out *= walk(f)
                if out == 0.0:
                    return 0.0
            return out
        if isinstance(node, Fraction):
            den = walk(node.denominator)
            if den == 0.0:
                if zero_division == "zero":
                    return 0.0
                raise ZeroConditioningMass("fraction denominator evaluated to zero")
            return walk(node.numerator) / den
        if isinstance(node, Sum):
            groups = [resolve(v) for v in node.bound]
            spaces = [tuple(itertools.product(*(range(t.card(m)) for m in grp)))
                      for grp in groups]
            saved = {v: context.get(v) for v in node.bound}
            total = 0.0
            for combo in itertools.product(*spaces):
                for v, val in zip(node.bound, combo):
                    context[v] = val
                total += walk(node.body)
            for v, old in saved.items():
                if old is None:
                    context.pop(v, None)
                else:
                    context[v] = old
            return total
        raise TypeError(f"not a ProbExpr: {node!r}")

    return walk(e)


def tabulate_walk(e: ProbExpr, t: JointTable,
                  clusters: Optional[Dict[str, Sequence[str]]] = None,
                  zero_division: str = "raise"):
    """The values of ``e`` at every free-variable assignment, by one walk
    of the expression that resolves names, permutes and reshapes as it
    goes; in "raise" mode a cell whose value needs a zero-mass
    conditioning event is NaN.  A library plan run on ``t`` must match it
    in bytes, shape and strides."""
    if zero_division not in ("raise", "zero"):
        raise FormulaError(f"bad zero_division mode {zero_division!r}")
    clusters = clusters or {}
    fill = 0.0 if zero_division == "zero" else np.nan

    def resolve(name):
        base = _base_name(name)
        if base in t._index:
            return (base,)
        if base in clusters:
            return tuple(clusters[base])
        raise UnknownVariableError(f"variable {name!r} is neither a table variable "
                                   "nor a known cluster")

    # Axes are (expression name, member variable) pairs so that a bound
    # primed name never collides with the free name sharing its base.
    def axes_of(names):
        return [(n, m) for n in names for m in resolve(n)]

    def ones(axes):
        return _Factor(axes, np.ones([t.card(m) for _, m in axes]))

    def divide(num, den):
        # NaN (0 in "zero" mode) where the denominator has no mass; NaN
        # then survives every product, sum and fraction above it.  With
        # no such cell, "raise" mode divides plainly: numpy then picks the
        # output's memory layout, which fixes the order in which later
        # sums add and so the last bits of the result.
        positive = den > 0
        if zero_division == "raise" and positive.all():
            return num / den
        return np.divide(num, den, out=np.full(np.broadcast_shapes(
            num.shape, den.shape), fill), where=positive)

    def walk(node):
        if isinstance(node, _One):
            return _Factor((), np.array(1.0))
        if isinstance(node, CondProb):
            all_axes = axes_of(node.target + node.given)
            if len({m for _, m in all_axes}) != len(all_axes):
                raise FormulaError(f"variable indexed twice in {render(node, 'text')}")
            num = t.marginal([m for _, m in all_axes])
            # marginal axes come in table order; label then reorder
            table_order = [ax for v in t.variables for ax in all_axes if ax[1] == v]
            num = np.transpose(num, [table_order.index(ax) for ax in all_axes])
            if not node.given:
                return _Factor(all_axes, num)
            den = product(_Factor(all_axes, np.ones_like(num)), walk(CondProb(node.given)))
            return _Factor(all_axes, divide(num, den.values))
        if isinstance(node, Product):
            acc = _Factor((), np.array(1.0))
            for f in node.factors:
                acc = product(acc, walk(f))
            return acc
        if isinstance(node, Fraction):
            num, den = walk(node.numerator), walk(node.denominator)
            axes = num.names + tuple(ax for ax in den.names if ax not in num.names)
            return _Factor(axes, divide(product(ones(axes), num).values,
                                        product(ones(axes), den).values))
        if isinstance(node, Sum):
            body = walk(node.body)
            out = body.sum_out([ax for ax in body.names if ax[0] in node.bound])
            # a bound name absent from the body counts its joint states
            present = {n for n, _ in body.names}
            count = math.prod(t.card(m) for _, m in
                              axes_of([n for n in node.bound if n not in present]))
            return out if count == 1 else _Factor(out.names, out.values * count)
        raise TypeError(f"not a ProbExpr: {node!r}")

    result = walk(e)
    return tuple(m for _, m in result.names), result.values


def m_separated_brute_force(g: Admg, x, y, z=()) -> bool:
    """Exhaustive path-enumeration test of m-separation.

    Enumerates every node-simple path between ``x`` and ``y`` (including
    the choice between parallel directed and bidirected edges) and checks
    the active-vertex rules directly.  Exponential; intended as an
    independent oracle for small graphs.
    """
    x = g._check_members(x)
    y = g._check_members(y)
    z = g._check_members(z)
    if x & y or x & z or y & z:
        raise GraphError("query sets must be pairwise disjoint")
    collider_open = _cut_ancestors(g.directed, (), z)

    # Each step is (node, head_at_prev, head_at_node) for the edge walked.
    def edges_from(v):
        for ch in sorted(g._children[v]):
            yield ch, False, True
        for pa in sorted(g._parents[v]):
            yield pa, True, False
        for sib in sorted(g._siblings[v]):
            yield sib, True, True

    def active_interior(v, head_in, head_out):
        if head_in and head_out:
            return v in collider_open
        return v not in z

    def dfs(v, head_at_v, on_path):
        for w, head_back, head_fwd in edges_from(v):
            if w in on_path:
                continue
            # v is interior here: arrived with head_at_v, leaving with
            # an edge whose v-end is a head iff head_back
            if not active_interior(v, head_at_v, head_back):
                continue
            if w in y:
                return True
            if w in x or w in on_path:
                continue
            if dfs(w, head_fwd, on_path | {w}):
                return True
        return False

    for s in sorted(x):
        for w, _, head_fwd in edges_from(s):
            if w in y:
                return False
            if w in x:
                continue
            if dfs(w, head_fwd, frozenset({s, w})):
                return False
    return True


def m_separated_augmented(nodes, directed, bidirected, x, y, z=()) -> bool:
    """m-separation by the augmentation criterion (Richardson 2003), the
    ADMG form of moralization: x and y are m-separated given z iff z
    separates them in the undirected graph over A = An(x ∪ y ∪ z) that
    joins every pair inside D ∪ pa(D), for each district D of G[A].
    Polynomial, so it reaches graphs far beyond path enumeration."""
    x, y, z = set(x), set(y), set(z)
    parents = {v: set() for v in nodes}
    for t, h in directed:
        parents[h].add(t)
    ancestral = x | y | z
    frontier = list(ancestral)
    while frontier:
        for p in parents[frontier.pop()] - ancestral:
            ancestral.add(p)
            frontier.append(p)

    # districts of G[A] by union-find over its bidirected edges
    root = {v: v for v in ancestral}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for a, b in bidirected:
        if a in ancestral and b in ancestral:
            root[find(a)] = find(b)
    districts = {}
    for v in ancestral:
        districts.setdefault(find(v), set()).add(v)

    # Each D ∪ pa(D) is kept whole, as the list of sets holding each node,
    # and a search step crosses all its pairs at once.  A is ancestral, so
    # pa(D) lies inside it.
    joined = [d.union(*(parents[v] for v in d)) for d in districts.values()]
    holding = {v: [] for v in ancestral}
    for k, members in enumerate(joined):
        for v in members:
            holding[v].append(k)
    reached, frontier, crossed = set(x), list(x), set()
    while frontier:
        for k in holding[frontier.pop()]:
            if k in crossed:
                continue
            crossed.add(k)
            for w in joined[k] - reached - z:
                if w in y:
                    return False
                reached.add(w)
                frontier.append(w)
    return True


def kahn_order(g: Admg) -> Tuple[str, ...]:
    """Kahn's algorithm with a lexicographic tie break, read from the
    directed edge list by a scan per placed node."""
    in_degree = {v: 0 for v in g.nodes}
    for _, h in g.directed:
        in_degree[h] += 1
    ready = sorted(v for v in g.nodes if in_degree[v] == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        opened = []
        for t, ch in g.directed:
            if t == v:
                in_degree[ch] -= 1
                if in_degree[ch] == 0:
                    opened.append(ch)
        if opened:
            ready = sorted(ready + opened)
    return tuple(order)


def descendants(g: Admg, s) -> set:
    """The nodes outside ``s`` that a directed path from ``s`` reaches, by
    rescanning the directed edge list until no edge adds a node."""
    reached, grown = set(s), True
    while grown:
        grown = False
        for t, h in g.directed:
            if t in reached and h not in reached:
                reached.add(h)
                grown = True
    return reached - set(s)


def c_components(g: Admg) -> list:
    """The bidirected-connected components of ``g``, each a frozenset,
    ordered by their least node: each grown from its least node outside
    the earlier ones by rescanning the bidirected edge list."""
    comps, placed = [], set()
    for v in g.nodes:
        if v in placed:
            continue
        comp, grown = {v}, True
        while grown:
            grown = False
            for a, b in g.bidirected:
                if (a in comp) != (b in comp):
                    comp |= {a, b}
                    grown = True
        comps.append(frozenset(comp))
        placed |= comp
    return comps


# -- the tree-walking simplifier ----------------------------------------------

def free_vars(e: ProbExpr) -> frozenset:
    """Variables occurring free in ``e`` (bound names shadow outer ones)."""

    def walk(node, scope):
        if isinstance(node, _One):
            return frozenset()
        if isinstance(node, CondProb):
            return frozenset(v for v in node.target + node.given if v not in scope)
        if isinstance(node, Product):
            out = frozenset()
            for f in node.factors:
                out |= walk(f, scope)
            return out
        if isinstance(node, Sum):
            return walk(node.body, scope | set(node.bound))
        if isinstance(node, Fraction):
            return walk(node.numerator, scope) | walk(node.denominator, scope)
        raise TypeError(f"not a ProbExpr: {node!r}")

    return walk(e, frozenset())


def alpha_normalize(e: ProbExpr, reserved: Iterable[str] = ()) -> ProbExpr:
    """Rename bound variables so they are unique across the expression and
    disjoint from the free variables, priming names as needed.  Names in
    ``reserved`` are treated as taken even when they do not occur free
    (identification reserves its query variables this way)."""
    used = set(free_vars(e)) | set(reserved)

    def fresh(name):
        candidate = name
        while candidate in used:
            candidate += "'"
        used.add(candidate)
        return candidate

    def walk(node, env):
        if isinstance(node, _One):
            return node
        if isinstance(node, CondProb):
            return CondProb([env.get(v, v) for v in node.target],
                            [env.get(v, v) for v in node.given])
        if isinstance(node, Product):
            return Product([walk(f, env) for f in node.factors])
        if isinstance(node, Fraction):
            return Fraction(walk(node.numerator, env), walk(node.denominator, env))
        if isinstance(node, Sum):
            env2 = dict(env)
            renamed = []
            for v in node.bound:
                nv = fresh(v)
                env2[v] = nv
                renamed.append(nv)
            return Sum(renamed, walk(node.body, env2))
        raise TypeError(f"not a ProbExpr: {node!r}")

    return walk(e, {})


def _cancel(num_factors, den_factors):
    # One round of each step; the fixpoint loop of :func:`simplify` repeats
    # them.  Cancel structurally identical factors, then collapse
    # conditional ratios P(a,b|g) / P(b|g) -> P(a|b,g).
    num = list(num_factors)
    den = list(den_factors)
    for d in list(den):
        if d in num:
            num.remove(d)
            den.remove(d)
    changed = True
    while changed:
        changed = False
        for d in den:
            if not isinstance(d, CondProb):
                continue
            for i, n in enumerate(num):
                if (isinstance(n, CondProb) and n.given == d.given
                        and set(d.target) < set(n.target)):
                    rest = tuple(sorted(set(n.target) - set(d.target)))
                    num[i] = CondProb(rest, set(n.given) | set(d.target))
                    den.remove(d)
                    changed = True
                    break
            if changed:
                break
    return num, den


def _flatten_product(node):
    out = []
    for f in node.factors:
        f = _simplify(f)
        if isinstance(f, Product):
            out.extend(f.factors)
        elif f is not ONE:
            out.append(f)
    return out


def _simplify(node):
    if isinstance(node, (_One, CondProb)):
        return node
    if isinstance(node, Product):
        return product_of(_flatten_product(node))
    if isinstance(node, Fraction):
        num = _simplify(node.numerator)
        den = _simplify(node.denominator)
        if den is ONE:
            return num
        if num == den:
            return ONE
        num_factors = list(num.factors) if isinstance(num, Product) else [num]
        den_factors = list(den.factors) if isinstance(den, Product) else [den]
        num_factors, den_factors = _cancel(num_factors, den_factors)
        if not den_factors:
            return product_of(num_factors)
        return Fraction(product_of(num_factors), product_of(den_factors))
    if isinstance(node, Sum):
        body = _simplify(node.body)
        bound = list(node.bound)
        if isinstance(body, Sum) and not set(bound) & set(body.bound):
            bound += list(body.bound)
            body = body.body
        # Normalization: a factor P(t|g) whose targets are bound here and
        # occur nowhere else in the body sums to one and can be dropped.
        factors = list(body.factors) if isinstance(body, Product) else [body]
        fvs = [free_vars(f) for f in factors]
        uses = Counter(v for fv in fvs for v in fv)
        changed = True
        while changed:
            changed = False
            for i, f in enumerate(factors):
                if not isinstance(f, CondProb):
                    continue
                targets = set(f.target)
                if not targets <= set(bound):
                    continue
                # f holds each of its targets once, so a count above one
                # means the target occurs in a sibling.
                if any(uses[t] > 1 for t in targets):
                    continue
                factors.pop(i)
                uses.subtract(fvs.pop(i))
                bound = [v for v in bound if v not in targets]
                changed = True
                break
        body = product_of(factors)
        if not bound:
            return body
        return Sum(bound, body)
    raise TypeError(f"not a ProbExpr: {node!r}")


def sum_rules(bound, body) -> ProbExpr:
    """The Sum rules on a normal ``body``, as one rewrite applies them:
    merge a nested sum, drop normalized factors, restarting at the first
    factor after every drop, and merge a lone inner sum the drops leave."""
    bound = list(bound)
    if isinstance(body, Sum) and not set(bound) & set(body.bound):
        bound += list(body.bound)
        body = body.body
    factors = list(body.factors) if isinstance(body, Product) else [body]
    fvs = [free_vars(f) & set(bound) for f in factors]
    uses = Counter(v for fv in fvs for v in fv)
    changed = True
    while changed:
        changed = False
        for i, f in enumerate(factors):
            if not isinstance(f, CondProb):
                continue
            targets = set(f.target)
            if not targets <= set(bound):
                continue
            if any(uses[t] > 1 for t in targets):
                continue
            factors.pop(i)
            uses.subtract(fvs.pop(i))
            bound = [v for v in bound if v not in targets]
            changed = True
            break
    body = product_of(factors)
    if not bound:
        return body
    if isinstance(body, Sum) and not set(bound) & set(body.bound):
        return sum_rules(bound, body)
    return Sum(bound, body)


def simplify(e: ProbExpr, reserved: Iterable[str] = ()) -> ProbExpr:
    """Apply the rewrite rules of :func:`_simplify` to a fixpoint, then
    normalize names."""
    previous = None
    current = e
    while current != previous:
        previous = current
        current = _simplify(current)
    return alpha_normalize(current, reserved)


def render_per_name(e: ProbExpr, format: str = "text") -> str:
    """Text or LaTeX rendering with one ``lower()`` call per name."""
    return _render(e, {"text": _TEXT, "latex": _LATEX}[format])


def _render(node, style, prec=0):
    sep, bar, left, right, sum_head, fraction = style
    if isinstance(node, _One):
        return "1"
    if isinstance(node, CondProb):
        head = sep.join(v.lower() for v in node.target)
        if node.given:
            head += bar + sep.join(v.lower() for v in node.given)
        return f"P({head})"
    if isinstance(node, Fraction):
        return fraction.format(_render(node.numerator, style),
                               _render(node.denominator, style))
    if isinstance(node, Product):
        parts = [_render(f, style, 2) for f in node.factors[:-1]]
        parts.append(_render(node.factors[-1], style, min(prec, 1)))
        out = " ".join(parts)
    else:
        head = sum_head(sep.join(v.lower() for v in node.bound))
        out = f"{head} {_render(node.body, style, 1)}"
    return left + out + right if prec >= 2 else out


# -- random models, one row at a time -----------------------------------------

def _reference_row(rng, size):
    row = rng.dirichlet(np.ones(size))
    row = np.clip(row, 1e-6, None)
    return row / row.sum()


def reference_random_cbn(g, cards, seed, exo_card=2, deterministic=False):
    """A random model on ``g`` built row by row through the checked
    constructor: one Dirichlet draw per exogenous law and CPT row, in
    :func:`cdag.random_cbn`'s stream order, with noise of ``exo_card``
    states.  A deterministic model keeps the exogenous laws, gives each
    private noise its variable's cardinality, and makes each CPT row one
    permutation of that noise, drawn row by row.  The library draws only
    the binary stochastic models, the same bit for bit."""
    rng = np.random.default_rng(seed)
    taken = set(g.nodes)
    edge_noise = {}
    for a, b in sorted(g.bidirected):
        name = f"U({a}~{b})"
        while name in taken:
            name += "'"
        taken.add(name)
        edge_noise[(a, b)] = name
    private_noise = {}
    for v in g.nodes:
        name = f"U({v})"
        while name in taken:
            name += "'"
        taken.add(name)
        private_noise[v] = name

    exo_cards, exo_dists = {}, {}
    for _, name in sorted(edge_noise.items()):
        exo_cards[name] = exo_card
        exo_dists[name] = _reference_row(rng, exo_card)
    for v in g.nodes:
        name = private_noise[v]
        exo_cards[name] = cards[v] if deterministic else exo_card
        exo_dists[name] = _reference_row(rng, exo_cards[name])

    mechanisms = {}
    for v in g.nodes:
        endo = tuple(sorted(t for t, h in g.directed if h == v))
        incident = [edge_noise[e] for e in sorted(edge_noise) if v in e]
        exo = tuple(sorted(incident + [private_noise[v]]))
        m = cards[v]
        if deterministic:
            shared = tuple(u for u in exo if u != private_noise[v])
            cpt = np.zeros(tuple(cards[p] for p in endo) +
                           tuple(exo_cards[u] for u in shared) + (m, m))
            for row in cpt.reshape(-1, m, m):
                perm = rng.permutation(m)
                for u_val in range(m):
                    row[u_val, perm[u_val]] = 1.0
            axes_order = endo + shared + (private_noise[v], v)
            cpt = np.transpose(cpt, [axes_order.index(a) for a in endo + exo + (v,)])
        else:
            cpt = np.zeros(tuple(cards[p] for p in endo) +
                           tuple(exo_cards[u] for u in exo) + (m,))
            flat = cpt.reshape(-1, m)
            for i in range(flat.shape[0]):
                flat[i] = _reference_row(rng, m)
        mechanisms[v] = Mechanism(endo, exo, cpt)
    return DiscreteCbn(g, cards, exo_cards, exo_dists, mechanisms)


# -- potential responses and the macro-variable model ----------------------

def _require_deterministic(model: DiscreteCbn, what: str) -> None:
    # Deterministic means every CPT entry is 0 or 1: each variable is then
    # a function of its parents and noise.
    if not all(np.isin(mech.cpt, (0.0, 1.0)).all() for mech in model.mechanisms.values()):
        raise GraphError(f"{what} need deterministic mechanisms, every CPT entry 0 or 1; "
                         "build the model with reference_random_cbn(..., deterministic=True)")


def check_assignment(x: Dict, cards: Dict[str, int],
                     members: Optional[Dict[str, Sequence[str]]] = None,
                     what: str = "intervention") -> None:
    """Raise :class:`GraphError` unless every name in ``x`` is a variable,
    or with ``members`` a cluster given a tuple of one value per member,
    set to integer states in range."""
    kind = "variable" if members is None else "cluster"
    unknown = x.keys() - (cards if members is None else members).keys()
    if unknown:
        raise GraphError(f"unknown {kind}(s) in {what}: {sorted(unknown)}")
    for name, value in x.items():
        group, values = ((name,), (value,)) if members is None else (members[name], value)
        if not (isinstance(values, (tuple, list)) and len(values) == len(group) and all(
                isinstance(val, (int, np.integer)) and 0 <= val < cards[v]
                for v, val in zip(group, values))):
            raise GraphError(f"{value!r} is not a state of {kind} {name!r}")


def _respond(model: DiscreteCbn, order: Sequence[str], values: Dict, exo: Dict) -> Dict:
    # Fill in each variable of ``order`` (parents first) as the argmax of
    # its CPT row at its parents' values and its noise states.
    for v in order:
        mech = model.mechanisms[v]
        row = mech.cpt[tuple(values[p] for p in mech.endo_parents) +
                       tuple(exo[u] for u in mech.exo_parents)]
        values[v] = int(row.argmax())
    return values


def solve(model: DiscreteCbn, exo: Dict[str, int],
          interventions: Optional[Dict[str, int]] = None) -> Dict[str, int]:
    """Potential response of every variable of a deterministic model at one
    exogenous state, under ``interventions``."""
    _require_deterministic(model, "potential responses")
    return _solve(model, exo, interventions or {})


def _solve(model: DiscreteCbn, exo: Dict[str, int], interventions: Dict[str, int]) -> Dict:
    # solve once the model is known to be deterministic
    check_assignment(interventions, model.cards)
    return _respond(model, [v for v in model.graph.topological_order() if v not in interventions],
                    {v: int(val) for v, val in interventions.items()}, exo)


class MacroScm:
    """A structural model over cluster-valued variables, built from a
    deterministic base model by recursive substitution of intra-cluster
    mechanisms.  It shares the base model's exogenous variables and
    distribution, and its induced cluster diagram is the quotient."""

    def __init__(self, base: DiscreteCbn, partition: Partition):
        _require_deterministic(base, "macro models")
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

    def solve(self, exo: Dict[str, int],
              interventions: Optional[Dict[str, tuple]] = None) -> Dict[str, tuple]:
        """Cluster-valued potential response at one exogenous state.  Each
        cluster's member mechanisms are substituted in cluster order; a
        cluster reads only its parent clusters' members and its own
        exogenous group, and reading anything else is a KeyError."""
        interventions = interventions or {}
        check_assignment(interventions, self.base.cards, self.members)
        out: Dict[str, tuple] = {}
        for name in self.cluster_order:
            if name in interventions:
                out[name] = tuple(int(val) for val in interventions[name])
                continue
            inputs = {v: val for pc in self.parent_clusters[name]
                      for v, val in zip(self.members[pc], out[pc])}
            noise = {u: exo[u] for u in self.exo_groups[name]}
            values = _respond(self.base, self._local_order[name], inputs, noise)
            out[name] = tuple(values[v] for v in self.members[name])
        return out


def counterfactual_prob(model, events: Sequence[Tuple[Dict, Dict]]) -> float:
    """Probability that every counterfactual event holds simultaneously.

    Each event pairs a target assignment with an intervention assignment;
    the potential response under that intervention must match the target.
    For a :class:`DiscreteCbn` both dictionaries map variables to values;
    for a :class:`MacroScm` they map clusters to member-value tuples.  A
    target or intervention naming an unknown variable or cluster, or a
    state out of range, raises :class:`GraphError`.  Computed by
    exhaustive enumeration of the exogenous state space.
    """
    macro = isinstance(model, MacroScm)
    base = model.base if macro else model
    _require_deterministic(base, "counterfactual queries")
    members = model.members if macro else None
    for targets, interventions in events:
        check_assignment(targets, base.cards, members, "event target")
        check_assignment(interventions, base.cards, members)
    events = [({k: tuple(v) if macro else v for k, v in targets.items()}, interventions)
              for targets, interventions in events]

    names = base.exo_names
    size = 1
    for name in names:
        size *= base.exo_cards[name]
    if size > _cap():
        raise StateSpaceCapError(f"counterfactual_prob: exogenous state space of {size} "
                                 f"entries exceeds the cap ({_cap()})")

    respond = model.solve if macro else functools.partial(_solve, model)
    total = 0.0
    for state in itertools.product(*(range(base.exo_cards[n]) for n in names)):
        exo = dict(zip(names, state))
        ok = True
        for targets, interventions in events:
            solution = respond(exo, interventions)
            if any(solution[k] != v for k, v in targets.items()):
                ok = False
                break
        if ok:
            weight = 1.0
            for name, val in exo.items():
                weight *= base.exo_dists[name][val]
            total += weight
    return total


# -- the exact oracle's contraction, walked ---------------------------------

def broadcast(a_names, a_shape, b_names, b_shape, lead=()):
    """The union of two factors' axes, ``lead``'s first, then ``a``'s, then
    ``b``'s, and per operand the (transpose, reshape) that lines it up with
    the union; a name both hold takes ``a``'s length."""
    names = a_names + tuple(n for n in b_names if n not in a_names)
    if lead:
        names = tuple(n for n in lead if n in names) + tuple(n for n in names if n not in lead)
    dims = dict(zip(b_names, b_shape)) | dict(zip(a_names, a_shape))

    def view(f_names):
        return ([f_names.index(n) for n in names if n in f_names],
                [dims[n] if n in f_names else 1 for n in names])

    return names, view(a_names), view(b_names)


def product(a: _Factor, b: _Factor, lead=()) -> _Factor:
    names, (perm_a, shape_a), (perm_b, shape_b) = broadcast(
        a.names, a.values.shape, b.names, b.values.shape, lead)
    return _Factor(names, np.transpose(a.values, perm_a).reshape(shape_a) *
                   np.transpose(b.values, perm_b).reshape(shape_b))


def _join(a: _Factor, b: _Factor, cap: int, phase: str, lead=()) -> _Factor:
    new_dims = [d for n, d in zip(b.names, b.values.shape) if n not in a.names]
    if a.values.size * math.prod(new_dims) > cap:
        raise StateSpaceCapError(
            f"{phase}: intermediate table over {len(a.names) + len(new_dims)} axes "
            f"exceeds the cap ({cap} entries); raise CDAG_STATE_CAP to allow it")
    return product(a, b, lead)


def contract(factors, priors, keep, phase, lead=()) -> np.ndarray:
    """The product of the factors summed over every prior-weighted axis, as
    an array over ``keep``: factors grouped by shared summed axes, each
    group joined in order, each prior folded in and its axis summed out as
    soon as no factor still to come uses it."""
    cap = _cap()
    sum_axes = {n for f in factors for n in f.names if n in priors and n not in keep}
    groups, axis_group = [], {}
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

    results = []
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
            acc = _join(acc, remaining[0], cap, phase, lead)
            absorbed += 1
        results.append(acc)

    result = _Factor((), np.array(1.0))
    for f in results:
        result = _join(result, f, cap, phase, lead)
    result = result.sum_out([n for n in result.names if n not in keep])
    return np.transpose(result.values, [result.names.index(n) for n in keep])


def macro_factor(m, members) -> _Factor:
    # A whole cluster's table given its external parents and all exogenous
    # parents of its members: their mechanisms joined in order, which must
    # normalize over the member axes.
    factor = None
    for v in members:
        mech = m.mechanisms[v]
        f = _Factor(mech.endo_parents + mech.exo_parents + (v,), mech.cpt)
        factor = f if factor is None else _join(factor, f, _cap(), "cluster_factorization_check")
    totals = factor.values.sum(axis=tuple(factor.names.index(v) for v in members))
    if not np.allclose(totals, 1.0, atol=1e-9):
        raise GraphError("cluster factor does not normalize over its members")
    return factor


def equivalent_on(e1: ProbExpr, e2: ProbExpr, t: JointTable,
                  clusters: Optional[Dict[str, Sequence[str]]] = None,
                  tol: float = 1e-9) -> bool:
    """True iff the expressions agree within ``tol`` at every assignment
    of their free variables (one missing a variable is constant in it)."""

    def over_table(variables, arr):
        # axes in table order, size 1 for the variables arr does not use;
        # a variable behind two free names (X and X') keeps its diagonal
        axes = [t._index[v] for v in variables]
        used = sorted(set(axes))
        shape = [c if i in used else 1 for i, c in enumerate(t.cards)]
        return np.einsum(arr, axes, used).reshape(shape)

    a1 = over_table(*tabulate(e1, t, clusters))
    a2 = over_table(*tabulate(e2, t, clusters))
    return bool(np.all(np.abs(a1 - a2) <= tol))


def to_csv(t: JointTable) -> str:
    """The table as CSV: one row per joint state, header of variable names plus ``p``."""
    lines = [",".join(t.variables + ("p",))]
    for state in itertools.product(*(range(c) for c in t.cards)):
        lines.append(",".join(str(s) for s in state) + f",{float(t.probs[state])!r}")
    return "\n".join(lines) + "\n"


def model_table_error(cards, exo_cards, exo_dists, mechanisms):
    """The error that checking the model's tables one at a time raises
    first, or None: every exogenous law, in name order, is strictly
    positive, of its cardinality and sums to 1, then every CPT has one
    axis per parent, per noise and for its own states, of their
    cardinalities, and its rows are nonnegative and sum to 1."""
    tol = 1e-12 + 1e-5
    try:
        for name in sorted(exo_cards):
            dist = np.asarray(exo_dists[name], dtype=float)
            if dist.shape != (exo_cards[name],) or not dist.min(initial=1.0) > 0 or \
                    not abs(dist.sum() - 1.0) <= tol:
                raise GraphError(f"exogenous {name!r} needs a strictly positive "
                                 "distribution of matching cardinality summing to 1")
        for v, mech in mechanisms.items():
            shape = tuple(cards.get(p) for p in mech.endo_parents) + \
                tuple(exo_cards.get(u) for u in mech.exo_parents) + (cards[v],)
            if mech.cpt.shape != shape:
                raise GraphError(f"CPT of {v!r} has shape {mech.cpt.shape}, not "
                                 f"{shape} from its parents, noises and states")
            rows = mech.cpt.reshape(-1, cards[v])
            if not (rows.min(initial=0.0) >= 0 and
                    np.abs(rows.sum(axis=1) - 1.0).max(initial=0.0) <= tol):
                raise GraphError(f"CPT rows of {v!r} must be nonnegative and sum to 1")
    except GraphError as err:
        return err
    return None

def _fix(f: _Factor, name: str, value: int) -> _Factor:
    # ``f`` at one value of ``name``, that axis taken away
    axis = f.names.index(name)
    return _Factor(f.names[:axis] + f.names[axis + 1:], np.take(f.values, value, axis=axis))


def _variable_factor(m, v: str) -> _Factor:
    # v's table with every noise variable that feeds no other mechanism
    # summed out against its prior.
    mech = m.mechanisms[v]
    factor = _Factor(mech.endo_parents + mech.exo_parents + (v,), mech.cpt)
    for name in mech.exo_parents:
        if sum(name in other.exo_parents for other in m.mechanisms.values()) == 1:
            axis = factor.names.index(name)
            weighted = np.tensordot(factor.values, m.exo_dists[name], axes=([axis], [0]))
            factor = _Factor(factor.names[:axis] + factor.names[axis + 1:], weighted)
    return factor


def joint_distribution(m) -> JointTable:
    """The observational table: every variable's factor, contracted."""
    factors = [_variable_factor(m, v) for v in m.graph.topological_order()]
    return JointTable(m.graph.nodes, contract(factors, m.exo_dists, m.graph.nodes,
                                              "joint_distribution"))


def interventional_distribution(m, x: Dict[str, int]) -> JointTable:
    """Exact distribution after forcing ``x``: every non-intervened
    variable's factor with the intervened values fixed, contracted for
    this one assignment."""
    unknown = set(x) - set(m.graph.nodes)
    if unknown:
        raise GraphError(f"unknown variable(s) in intervention: {sorted(unknown)}")
    for v, val in x.items():
        if not 0 <= val < m.cards[v]:
            raise GraphError(f"value {val} out of range for {v!r}")
    keep = tuple(v for v in m.graph.nodes if v not in x)
    size = int(np.prod([m.cards[v] for v in keep]))
    if size > _cap():
        raise StateSpaceCapError(f"interventional_distribution: joint state space of "
                                 f"{size} entries exceeds the cap ({_cap()})")
    factors = []
    for v in m.graph.topological_order():
        if v in x:
            continue
        f = _variable_factor(m, v)
        for parent in m.mechanisms[v].endo_parents:
            if parent in x:
                f = _fix(f, parent, x[parent])
        factors.append(f)
    probs = contract(factors, m.exo_dists, keep, "interventional_distribution")
    return JointTable(keep, probs)


def cluster_factorization_check(m, p, x_clusters=()) -> float:
    """Max deviation between :func:`interventional_distribution` and the
    cluster-level reassembly of the model, one intervention value at a
    time."""
    x_clusters = frozenset(x_clusters)
    cdag = build_cdag(m.graph, p)
    x_vars = sorted(p.variables_of(x_clusters))
    keep = tuple(v for v in m.graph.nodes if v not in x_vars)
    macro_factors = [macro_factor(m, p.members(name))
                     for name in cdag.graph.topological_order() if name not in x_clusters]
    worst = 0.0
    for x_state in itertools.product(*(range(m.cards[v]) for v in x_vars)):
        x_assign = dict(zip(x_vars, x_state))
        lhs = interventional_distribution(m, x_assign).probs
        factors = []
        for f in macro_factors:
            for var in f.names:
                if var in x_assign:
                    f = _fix(f, var, x_assign[var])
            factors.append(f)
        rhs = contract(factors, m.exo_dists, keep, "cluster_factorization_check")
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0)
    return worst


# -- hedges, from the definition ----------------------------------------------

def _cut_ancestors(directed, x, y) -> set:
    # An(y) once every edge into x is cut, by rescanning the edge list
    # until no edge adds a node
    ancestors, grown = set(y), True
    while grown:
        grown = False
        for t, h in directed:
            if h in ancestors and h not in x and t not in ancestors:
                ancestors.add(t)
                grown = True
    return ancestors


def _linked(nodes, edges) -> bool:
    # whether ``edges`` within the nonempty set ``nodes`` join all of it
    reached, grown = {min(nodes)}, True
    while grown:
        grown = False
        for a, b in edges:
            if a in nodes and b in nodes and (a in reached) != (b in reached):
                reached |= {a, b}
                grown = True
    return reached == set(nodes)


def check_hedge(c, hedge, x, y) -> None:
    """Raise AssertionError unless ``hedge`` is a hedge for P(y|do(x)) in
    the cluster graph of ``c``: forests F' ⊆ F, edge subgraphs of the
    graph, each a single c-component whose nodes have at most one child
    and whose childless nodes are the root set R; F meets X at
    ``intersected_x``, F' avoids X, and R ⊆ An(Y) once the edges into X
    are cut."""
    x, y, graph = frozenset(x), frozenset(y), c.graph
    f, fprime = hedge.forest_f, hedge.forest_fprime
    for name, forest in (("F", f), ("F'", fprime)):
        nodes = set(forest.nodes)
        assert nodes and nodes <= set(graph.nodes), f"{name}: not a nonempty set of clusters"
        assert forest.directed <= graph.directed and forest.bidirected <= graph.bidirected, \
            f"{name}: an edge that is not in the cluster graph"
        children = Counter(t for t, _ in forest.directed)
        assert max(children.values(), default=1) == 1, f"{name}: a node with two children"
        assert nodes - children.keys() == hedge.root_set, \
            f"{name}: its childless nodes are not the root set"
        assert _linked(nodes, forest.bidirected), f"{name}: not a single c-component"
    assert set(fprime.nodes) <= set(f.nodes) and fprime.directed <= f.directed and \
        fprime.bidirected <= f.bidirected, "F' is not contained in F"
    assert not set(fprime.nodes) & x, "F' meets X"
    assert set(f.nodes) & x, "F does not meet X"
    assert hedge.intersected_x == set(f.nodes) & x, "intersected_x is not the meet of F and X"
    assert hedge.root_set <= _cut_ancestors(graph.directed, x, y), \
        "the root set is not ancestral to Y once the edges into X are cut"


def rooted_forests(g: Admg) -> Dict[frozenset, list]:
    """For every nonempty node set R, the node sets F ⊇ R that are R-rooted
    c-forests: G[F] is bidirected-connected and every node of F has a
    directed path inside G[F] into R."""
    nodes = sorted(g.nodes)
    subsets = [frozenset(s) for k in range(1, len(nodes) + 1)
               for s in itertools.combinations(nodes, k)]
    forests = {r: [] for r in subsets}
    for s in subsets:
        if not _linked(s, g.bidirected):
            continue
        inside = [(t, h) for t, h in g.directed if t in s and h in s]
        for r in subsets:
            if r <= s and _cut_ancestors(inside, (), r) == s:
                forests[r].append(s)
    return forests


def _hedge_sets(g: Admg, x, y, forests):
    # every (R, F', F) that makes a hedge, as node sets
    x, y = frozenset(x), frozenset(y)
    forests = rooted_forests(g) if forests is None else forests
    ancestors = _cut_ancestors(g.directed, x, y)
    return ((r, fprime, f) for r, sets in forests.items() if r <= ancestors
            for fprime in sets for f in sets if fprime < f and f & x and not fprime & x)


def has_hedge(g: Admg, x, y, forests: Optional[Dict[frozenset, list]] = None) -> bool:
    """Whether P(y|do(x)) has a hedge in ``g``, by a search over node sets:
    R-rooted c-forests F' ⊂ F (see :func:`rooted_forests`) with F ∩ X ≠ ∅,
    F' ∩ X = ∅ and R ⊆ An(Y) once the edges into X are cut.  Pass the
    graph's ``forests`` to share them across queries."""
    return next(_hedge_sets(g, x, y, forests), None) is not None


def find_hedge(g: Admg, x, y, forests: Optional[Dict[frozenset, list]] = None):
    """The first hedge :func:`has_hedge`'s search meets, as a
    :class:`cdag.Hedge`, or None.  Each forest keeps every bidirected edge
    within its nodes, and each node outside R one child on a shortest
    directed path into R, into F' first for the nodes of F outside F'."""
    found = next(_hedge_sets(g, x, y, forests), None)
    if found is None:
        return None
    r, fprime, f = found

    def children(reached, nodes):
        # breadth-first from ``reached`` against the directed edges within ``nodes``
        chosen, reached = {}, set(reached)
        while reached != nodes:
            layer = {}
            for t, h in sorted(g.directed):
                if h in reached and t in nodes and t not in reached:
                    layer.setdefault(t, h)
            chosen.update(layer)
            reached |= layer.keys()
        return chosen

    def forest(nodes, directed):
        return Admg(sorted(nodes), directed.items(),
                    [(a, b) for a, b in g.bidirected if a in nodes and b in nodes])

    inner = children(r, fprime)
    return Hedge(root_set=r, forest_f=forest(f, {**inner, **children(fprime, f)}),
                 forest_fprime=forest(fprime, inner), intersected_x=f & frozenset(x))


def identified_by_fixed_point(nodes, directed, bidirected, x, y) -> bool:
    """Whether P(y|do(x)) is identifiable, by the fixed point of Shpitser
    and Pearl's (2006) ID.  For each c-component S of G[An(Y) \\ X], the
    ancestors of Y taken with the edges into X cut, F starts at S's
    district in G[An(Y)] and alternates "ancestors of S within G[F]" and
    "district of S within G[F]" until it stops changing.  The query fails
    iff F ≠ S for some S.  Reads only the three edge collections."""
    x, y = frozenset(x), frozenset(y)
    parents, siblings = {v: [] for v in nodes}, {v: [] for v in nodes}
    for t, h in directed:
        parents[h].append(t)
    for a, b in bidirected:
        siblings[a].append(b)
        siblings[b].append(a)

    def reach(start, links, within):
        # the nodes of ``within`` that ``links`` reach from ``start``, itself included
        reached, stack = set(start), list(start)
        while stack:
            for u in links[stack.pop()]:
                if u in within and u not in reached:
                    reached.add(u)
                    stack.append(u)
        return frozenset(reached)

    an_y = reach(y, parents, set(nodes))
    reduced = reach(y, parents, an_y - x)
    seen = set()
    for v in sorted(reduced):
        if v in seen:
            continue
        s = reach([v], siblings, reduced)
        seen |= s
        f = reach(s, siblings, an_y)
        while True:
            refined = reach(s, siblings, reach(s, parents, f))
            if refined == f:
                break
            f = refined
        if f != s:
            return False
    return True

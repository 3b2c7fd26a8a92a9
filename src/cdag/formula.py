"""Symbolic probability expressions and exact evaluation on joint tables.

Expression trees have five node kinds: conditional probabilities,
products, sums over bound variables, fractions, and the constant one.
Bound variables are given fresh primed names when they would otherwise
collide with free variables, so a rendered formula reads the usual way,
e.g. ``Sum_s P(s|x) Sum_{x'} P(y|x',s) P(x')``.

Expression variables may name clusters; at evaluation time a cluster
name expands to the joint assignment of its member variables in the
table (pass the partition's cluster map).  There is one evaluator, a
plan: built once per expression, table layout and cluster map, it runs
on any number of tables of that layout and computes the expression at
every free-variable assignment at once.  :func:`tabulate` builds one
and runs it, and :func:`evaluate` reads one cell of the array.
"""

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np


class FormulaError(ValueError):
    pass


class UnknownVariableError(FormulaError):
    pass


class ZeroConditioningMass(FormulaError):
    """A conditional probability was evaluated at a zero-mass conditioning event."""


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

class ProbExpr:
    __slots__ = ()

    def __repr__(self):
        return render(self, "text")


@dataclass(frozen=True, slots=True, repr=False)
class _One(ProbExpr):
    """The constant 1; :data:`ONE` is the node the library builds."""


ONE = _One()


@dataclass(frozen=True, slots=True, repr=False)
class CondProb(ProbExpr):
    """P(target | given); the two variable tuples must be disjoint."""

    target: Tuple[str, ...]
    given: Tuple[str, ...]

    def __init__(self, target: Iterable[str], given: Iterable[str] = ()):
        target = tuple(sorted(set(target)))
        given = tuple(sorted(set(given)))
        if not target:
            raise FormulaError("conditional probability needs at least one target variable")
        if set(target) & set(given):
            raise FormulaError("target and given variables overlap: "
                               f"{sorted(set(target) & set(given))}")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "given", given)

    @classmethod
    def _trusted(cls, target: tuple, given: tuple) -> "CondProb":
        # For tuples already sorted, distinct and disjoint: skips the checks.
        node = object.__new__(cls)
        object.__setattr__(node, "target", target)
        object.__setattr__(node, "given", given)
        return node


@dataclass(frozen=True, slots=True, repr=False)
class Product(ProbExpr):
    factors: Tuple[ProbExpr, ...]

    def __init__(self, factors: Sequence[ProbExpr]):
        object.__setattr__(self, "factors", tuple(factors))


@dataclass(frozen=True, slots=True, repr=False)
class Sum(ProbExpr):
    """Sum of the body over all joint values of the bound variables."""

    bound: Tuple[str, ...]
    body: ProbExpr

    def __init__(self, bound: Iterable[str], body: ProbExpr):
        bound = tuple(bound)
        if len(set(bound)) != len(bound):
            raise FormulaError(f"duplicate bound variables: {bound}")
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "body", body)


@dataclass(frozen=True, slots=True, repr=False)
class Fraction(ProbExpr):
    numerator: ProbExpr
    denominator: ProbExpr


def product_of(factors: Sequence[ProbExpr]) -> ProbExpr:
    """Product with the trivial cases collapsed."""
    factors = [f for f in factors if f is not ONE]
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    return Product(factors)


def sum_over(bound: Iterable[str], body: ProbExpr) -> ProbExpr:
    bound = tuple(bound)
    if not bound:
        return body
    return Sum(bound, body)


def _free_vars(node, cache):
    # A free-variable cache maps id(node) to (node, mask), where the mask
    # holds one bit per free name; holding the node keeps its id from being
    # reused while the cache lives.  The bits are numbered by first sight
    # in the name -> bit map the cache keeps under the key None.
    index = cache.setdefault(None, {})
    mask = _mask(node, cache, index)
    return frozenset([v for v, bit in index.items() if mask & bit])


def _bits(names, index):
    out = 0
    for v in names:
        out |= index.setdefault(v, 1 << len(index))
    return out


def _mask(node, cache, index):
    # Bottom-up, free(Σ_B body) = free(body) - B.
    hit = cache.get(id(node))
    if hit is not None:
        return hit[1]
    kind = type(node)
    if kind is CondProb:
        out = _bits(node.target + node.given, index)
    elif kind is Product:
        out = functools.reduce(operator.or_, [_mask(f, cache, index) for f in node.factors], 0)
    elif kind is Sum:
        out = _mask(node.body, cache, index) & ~_bits(node.bound, index)
    elif kind is Fraction:
        out = _mask(node.numerator, cache, index) | _mask(node.denominator, cache, index)
    elif kind is _One:
        out = 0
    else:
        raise TypeError(f"not a ProbExpr: {node!r}")
    cache[id(node)] = (node, out)
    return out


def _seed_chain(chain, cache):
    # Masks of P(v1), P(v2|v1), P(v3|v1,v2), ...: each factor conditions on
    # every earlier target, so its mask is the last one's with its own bits.
    index, mask = cache.setdefault(None, {}), 0
    for p in chain:
        mask |= _bits(p.target, index)
        cache[id(p)] = (p, mask)


def _base_name(name: str) -> str:
    return name.rstrip("'")


def _alpha_normalize(e, reserved, fv):
    # Rename bound variables so they are unique across the expression and
    # disjoint from the free variables and from ``reserved`` (identification
    # reserves its query variables), priming names as needed.  ``fv`` is a
    # free-variable cache as :func:`_free_vars` keeps it; simplify passes
    # the one its rewrite pass filled.
    used = set(_free_vars(e, fv)) | set(reserved)

    def fresh(name):
        candidate = name
        while candidate in used:
            candidate += "'"
        used.add(candidate)
        return candidate

    def walk(node, env):
        kind = type(node)
        if kind is CondProb:
            if env.keys().isdisjoint(node.target + node.given):
                return node
            # the renames are one-to-one onto names not in use, so the
            # renamed lists stay distinct and disjoint
            return CondProb._trusted(tuple(sorted([env.get(v, v) for v in node.target])),
                                     tuple(sorted([env.get(v, v) for v in node.given])))
        if kind is Product:
            return Product([walk(f, env) for f in node.factors])
        if kind is _One:
            return node
        if kind is Fraction:
            return Fraction(walk(node.numerator, env), walk(node.denominator, env))
        if kind is Sum:
            env2 = dict(env)
            renamed = []
            for v in node.bound:
                # a binding puts its name in ``used``, so a name is kept only
                # where no enclosing sum binds it: ``env`` holds renames only
                nv = fresh(v)
                if nv != v:
                    env2[v] = nv
                renamed.append(nv)
            return Sum(renamed, walk(node.body, env2))
        raise TypeError(f"not a ProbExpr: {node!r}")

    return walk(e, {})


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------

def _flatten_product(node, memo, fv):
    out = []
    for f in node.factors:
        if type(f) is CondProb:
            # a leaf is its own normal form
            out.append(f)
            continue
        f = _simplify(f, memo, fv)
        if type(f) is Product:
            out.extend(f.factors)
        elif f is not ONE:
            out.append(f)
    return out


def _collapse(num, den):
    # Collapse one conditional ratio P(a,b|g) / P(b|g) -> P(a|b,g) in
    # place; False if none applies.
    for d, (i, n) in itertools.product(den, enumerate(num)):
        if (isinstance(d, CondProb) and isinstance(n, CondProb) and n.given == d.given
                and set(d.target) < set(n.target)):
            num[i] = CondProb(set(n.target) - set(d.target), set(n.given) | set(d.target))
            den.remove(d)
            return True
    return False


def _cancel(num_factors, den_factors):
    # Cancel structurally identical factors, then collapse ratios.  A
    # collapse can make a factor identical to one still in the
    # denominator, so both steps repeat until no collapse fires.
    num = list(num_factors)
    den = list(den_factors)
    collapsed = True
    while collapsed:
        for d in list(den):
            if d in num:
                num.remove(d)
                den.remove(d)
        collapsed = False
        while _collapse(num, den):
            collapsed = True
    return num, den


def _simplify(node, memo, fv):
    # One rewrite pass over a DAG: each distinct node object is rewritten
    # once.  ``memo`` maps id(node) to (node, result) and ``fv`` caches
    # free variables the same way; both live for one pass only.
    hit = memo.get(id(node))
    if hit is None:
        hit = memo[id(node)] = (node, _rewrite(node, memo, fv))
    return hit[1]


def _rewrite(node, memo, fv):
    # Invariant: if every child is in normal form (a fixpoint of
    # ``_simplify``), so is the result.  A product of normal children
    # flattens to normal factors that are neither products nor ONE, and
    # these flatten to themselves again.  A fraction's factors leave
    # ``_cancel`` with no shared factor and no ratio left to collapse.
    kind = type(node)
    if kind is CondProb or kind is _One:
        return node
    if kind is Product:
        return product_of(_flatten_product(node, memo, fv))
    if kind is Sum:
        return _sum_rules(node.bound, _simplify(node.body, memo, fv), fv)
    if kind is Fraction:
        num = _simplify(node.numerator, memo, fv)
        den = _simplify(node.denominator, memo, fv)
        if den is ONE:
            return num
        num_factors = list(num.factors) if type(num) is Product else [num]
        den_factors = list(den.factors) if type(den) is Product else [den]
        num_factors, den_factors = _cancel(num_factors, den_factors)
        if not den_factors:
            return product_of(num_factors)
        return Fraction(product_of(num_factors), product_of(den_factors))
    raise TypeError(f"not a ProbExpr: {node!r}")


def _sum_rules(bound, body, fv):
    # The Sum rules on a normal ``body``: merge a nested sum, then drop
    # normalized factors.
    bound = list(bound)
    if type(body) is Sum and set(bound).isdisjoint(body.bound):
        bound += body.bound
        body = body.body
    # Normalization: a factor P(t|g) whose targets are bound here and
    # occur nowhere else in the body sums to one and can be dropped.  Such
    # a factor's target mask is kept; every other factor's is 0.
    factors = list(body.factors) if type(body) is Product else [body]
    index = fv.setdefault(None, {})
    bound_mask = _bits(bound, index)
    targets = [_bits(f.target, index) if type(f) is CondProb else 0 for f in factors]
    targets = [0 if t & ~bound_mask else t for t in targets]
    masks = [_mask(f, fv, index) for f in factors]
    # Sweep from the last factor to the first until a sweep drops nothing;
    # a factor drops when neither the factors before it nor those kept
    # after it hold one of its targets.  Dropping only takes names away, so
    # a droppable factor stays droppable, and a dropped factor's targets
    # are no other factor's: every drop order keeps the same factors, in
    # the same order, and the same bound names.
    gone, dropped = 0, any(targets)
    while dropped:
        dropped = False
        before = list(itertools.accumulate(masks, operator.or_, initial=0))
        after = 0
        for i in range(len(factors) - 1, -1, -1):
            if targets[i] and not targets[i] & (before[i] | after):
                gone |= targets[i]
                del factors[i], masks[i], targets[i]
                dropped = True
            else:
                after |= masks[i]
    if gone:
        bound = [v for v in bound if not index[v] & gone]
    body = product_of(factors)
    if not bound:
        return body
    if type(body) is Sum and set(bound).isdisjoint(body.bound):
        # the drops left a lone inner sum that now merges; its body is
        # already normal, so this re-run is local
        return _sum_rules(bound, body, fv)
    return Sum(bound, body)


def simplify(e: ProbExpr, reserved: Iterable[str] = ()) -> ProbExpr:
    """Apply the fixed rewrite rules to a fixpoint and normalize names.

    Rules: flatten products and drop unit factors, merge nested sums,
    cancel identical factors in fractions, collapse conditional ratios,
    and drop normalized factors under their own sums.  The result is
    idempotent and evaluation-equivalent to the input.  One bottom-up
    pass reaches a fixpoint, because a rewrite of a node whose children
    are in normal form returns a node in normal form.  The pass handles
    a shared sub-expression once; the final renaming walks a tree.
    """
    return _simplify_with(e, reserved, {})


def _simplify_with(e, reserved, fv):
    # :func:`simplify` from the free-variable cache ``fv``, which may hold
    # entries already: identification passes the one its last walk filled.
    return _alpha_normalize(_simplify(e, {}, fv), reserved, fv)


# ---------------------------------------------------------------------------
# joint tables
# ---------------------------------------------------------------------------

class JointTable:
    """A dense joint distribution over finitely-valued named variables."""

    __slots__ = ("variables", "cards", "probs", "_index", "_marg_cache")

    def __init__(self, variables: Sequence[str], probs: np.ndarray):
        variables = tuple(variables)
        for name in (v for v in variables if v.endswith("'")):    # kept for renamed names
            raise FormulaError(f"table variable {name!r} must not end in a prime")
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != len(variables):
            raise FormulaError(f"array rank {probs.ndim} does not match "
                               f"{len(variables)} variables")
        if np.any(probs < 0):
            raise FormulaError("negative probability entries")
        total = float(probs.sum())
        if not abs(total - 1.0) <= 1e-12:    # NaN fails this test too
            raise FormulaError(f"probabilities sum to {total!r}, not 1")
        self._link(variables, probs)

    @classmethod
    def _trusted(cls, variables: Tuple[str, ...], probs: np.ndarray) -> "JointTable":
        # An exact oracle's table: finite, nonnegative and summing to 1, so no check runs.
        t = object.__new__(cls)
        t._link(variables, probs)
        return t

    def _link(self, variables, probs):
        self.variables = variables
        self.cards = tuple(probs.shape)
        self.probs = probs
        self._index = {v: i for i, v in enumerate(variables)}
        self._marg_cache = {}

    def card(self, variable: str) -> int:
        try:
            return self.cards[self._index[variable]]
        except KeyError:
            raise UnknownVariableError(f"unknown table variable {variable!r}") from None

    def marginal(self, variables: Iterable[str]) -> np.ndarray:
        """Marginal array over ``variables`` in table order (cached)."""
        keep = frozenset(variables)
        if not self._index.keys() >= keep:
            raise UnknownVariableError(
                f"unknown table variable(s): {sorted(keep - self._index.keys())}")
        if keep not in self._marg_cache:
            axes = tuple(i for i, v in enumerate(self.variables) if v not in keep)
            self._marg_cache[keep] = self.probs.sum(axis=axes) if axes else self.probs
        return self._marg_cache[keep]

    def prob_of(self, assignment: Dict[str, int]) -> float:
        """Probability of a (possibly partial) assignment."""
        arr = self.marginal(assignment)
        order = [v for v in self.variables if v in assignment]
        return float(arr[tuple(assignment[v] for v in order)])

    @classmethod
    def from_csv(cls, text: str) -> "JointTable":
        rows = [line.strip() for line in text.strip().splitlines() if line.strip()]
        if not rows:
            raise FormulaError("CSV is empty; expected a header ending in 'p'")
        header = rows[0].split(",")
        if header[-1] != "p":
            raise FormulaError("last CSV column must be the probability column 'p'")
        if len(rows) == 1:
            raise FormulaError("CSV has a header but no rows")
        variables = tuple(header[:-1])
        for name in (v for v in variables if v.endswith("'")):    # kept for renamed names
            raise FormulaError(f"CSV column {name!r} must not end in a prime")
        states = []
        values = []
        for line in rows[1:]:
            cells = line.split(",")
            if len(cells) != len(header):
                raise FormulaError(f"bad CSV row: {line!r}")
            state = tuple(int(c) for c in cells[:-1])
            if any(s < 0 for s in state):
                raise FormulaError(f"negative state in CSV row: {line!r}")
            states.append(state)
            values.append(float(cells[-1]))
        cards = tuple(max(s[i] for s in states) + 1 for i in range(len(variables)))
        expected = int(np.prod(cards)) if variables else 1
        if len(states) != expected or len(set(states)) != len(states):
            raise FormulaError("CSV must enumerate every joint state exactly once")
        probs = np.zeros(cards)
        for state, value in zip(states, values):
            probs[state] = value
        return cls(variables, probs)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _broadcast(a_names, a_shape, b_names, b_shape, lead=()):
    # The broadcast rule of a product over the union of the axes: those of
    # ``lead`` first, then ``a``'s, then ``b``'s.  Returns the union and,
    # per operand, the view (transpose, reshape) that lines it up with it;
    # a name both hold takes ``a``'s length.
    a_pos = {n: i for i, n in enumerate(a_names)}
    b_pos = {n: i for i, n in enumerate(b_names)}
    names = a_names + tuple(n for n in b_names if n not in a_pos)
    if lead:
        names = tuple(n for n in lead if n in names) + tuple(n for n in names if n not in lead)
    a_perm, a_dims, b_perm, b_dims = [], [], [], []
    for n in names:
        i, j = a_pos.get(n), b_pos.get(n)
        dim = b_shape[j] if i is None else a_shape[i]
        if i is not None:
            a_perm.append(i)
        if j is not None:
            b_perm.append(j)
        a_dims.append(1 if i is None else dim)
        b_dims.append(1 if j is None else dim)
    return names, (a_perm, a_dims), (b_perm, b_dims)


def _line_up(values, view):
    # ``np.transpose(values, perm).reshape(shape)`` without numpy's wrapper
    perm, shape = view
    return values.transpose(perm).reshape(shape)


def _divide(num, den, zero, shape):
    # ``num`` over ``den``, which broadcasts to it: NaN (0 with ``zero``) where
    # the denominator has no mass; NaN survives every step above.  With no such
    # cell and no ``zero``, the quotient takes ``num``'s layout, which fixes the
    # order in which later sums add and so the last bits of the result.
    positive = den > 0
    if not zero and positive.all():
        return np.divide(num, den, out=np.empty_like(num))
    return np.divide(num, den, out=np.full(shape, 0.0 if zero else np.nan), where=positive)


class _Plan:
    """:func:`tabulate`'s evaluator, built once for tables over
    ``variables`` with ``cards`` and run on any number of them.  Building
    resolves every name and fixes each product's views, each sum's axes and
    each absent bound name's count; a run issues only the numpy operations
    of a walk of the expression, in its order and on arrays of its layout,
    and so gives the walk's bytes.  A conditional divides by the broadcast
    view of its denominator: the walk's full-size copy holds the same
    values, so each quotient is the same."""

    __slots__ = ("variables", "cards", "out", "_run")

    def __init__(self, e: ProbExpr, variables: Sequence[str], cards: Sequence[int],
                 clusters: Optional[Dict[str, Sequence[str]]] = None):
        self.variables, self.cards = tuple(variables), tuple(cards)
        card = dict(zip(self.variables, self.cards))
        index = {v: i for i, v in enumerate(self.variables)}
        clusters = clusters or {}

        # Axes are (expression name, member variable) pairs so that a bound
        # primed name never collides with the free name sharing its base.
        def axes_of(names):
            axes = []
            for n in names:
                base = _base_name(n)
                members = (base,) if base in card else clusters.get(base)
                if members is None or not card.keys() >= set(members):
                    raise UnknownVariableError(f"variable {n!r} is neither a table variable "
                                               "nor a cluster of table variables")
                axes += [(n, m) for m in members]
            return tuple(axes)

        def shape(axes):
            return [card[m] for _, m in axes]

        def view(axes, of):
            # lines an array over ``of`` up with one over its superset ``axes``
            return _broadcast(axes, shape(axes), of, shape(of))[2]

        def marginal(axes):
            # the marginal comes in table order; one transpose reorders it
            keep = frozenset(m for _, m in axes)
            in_table = sorted(axes, key=lambda ax: index[ax[1]])
            perm = [in_table.index(ax) for ax in axes]
            return lambda t, zero: t.marginal(keep).transpose(perm)

        def build(node):
            # (axes, run): the node's axes and its array as run(table, zero)
            if isinstance(node, _One):
                return (), lambda t, zero: np.array(1.0)
            if isinstance(node, CondProb):
                axes = axes_of(node.target + node.given)
                if len({m for _, m in axes}) != len(axes):
                    raise FormulaError(f"variable indexed twice in {render(node, 'text')}")
                num = marginal(axes)
                if not node.given:
                    return axes, num
                given = axes_of(node.given)
                den, den_view, full = marginal(given), view(axes, given), shape(axes)

                def cond(t, zero):
                    return _divide(num(t, zero), _line_up(den(t, zero), den_view), zero, full)
                return axes, cond
            if isinstance(node, Product):
                axes, steps = (), []
                for f in node.factors:
                    f_axes, f_run = build(f)
                    axes, *views = _broadcast(axes, shape(axes), f_axes, shape(f_axes))
                    steps.append((f_run, *views))

                def product(t, zero):
                    acc = np.array(1.0)
                    for f_run, acc_view, f_view in steps:
                        values = f_run(t, zero)
                        acc = _line_up(acc, acc_view) * _line_up(values, f_view)
                    return acc
                return axes, product
            if isinstance(node, Fraction):
                (n_axes, n_run), (d_axes, d_run) = build(node.numerator), build(node.denominator)
                axes = n_axes + tuple(ax for ax in d_axes if ax not in n_axes)
                n_view, d_view, full = view(axes, n_axes), view(axes, d_axes), shape(axes)

                def fraction(t, zero):
                    n, d = n_run(t, zero), d_run(t, zero)
                    return _divide(np.ones(full) * _line_up(n, n_view), _line_up(d, d_view),
                                   zero, full)
                return axes, fraction
            if isinstance(node, Sum):
                b_axes, b_run = build(node.body)
                summed = tuple(i for i, (n, _) in enumerate(b_axes) if n in node.bound)
                axes = tuple(ax for ax in b_axes if ax[0] not in node.bound)
                # a bound name absent from the body counts its joint states
                present = {n for n, _ in b_axes}
                count = math.prod(shape(axes_of([n for n in node.bound if n not in present])))

                def total(t, zero):
                    values = b_run(t, zero)
                    if summed:
                        values = values.sum(axis=summed)
                    return values if count == 1 else values * count
                return axes, total
            raise TypeError(f"not a ProbExpr: {node!r}")

        axes, self._run = build(e)
        self.out = tuple(m for _, m in axes)

    def run(self, t: JointTable, zero_division: str = "raise", nan_ok: bool = False):
        """``(variables, array)`` on ``t`` as :func:`tabulate` gives it; with
        ``nan_ok``, "raise" mode leaves NaN where a value needs a zero-mass
        conditioning event instead of raising."""
        if zero_division not in ("raise", "zero"):
            raise FormulaError(f"bad zero_division mode {zero_division!r}")
        if t.variables != self.variables or t.cards != self.cards:
            raise FormulaError(f"the plan is for variables {self.variables} with cards "
                               f"{self.cards}, not {t.variables} with {t.cards}")
        arr = self._run(t, zero_division == "zero")
        if not nan_ok and np.isnan(arr).any():
            raise ZeroConditioningMass("conditioning event with zero probability")
        return self.out, arr


def tabulate(e: ProbExpr, t: JointTable,
             clusters: Optional[Dict[str, Sequence[str]]] = None,
             zero_division: str = "raise"):
    """Evaluate ``e`` at every free-variable assignment in one pass.

    Returns ``(variables, array)`` where ``variables`` are the table
    variables behind the free expression names (a cluster name stands for
    its members) and the array carries one value per joint assignment,
    axes in that order.  Cluster names resolve through ``clusters``;
    bound cluster variables range over the members' joint state space.

    ``zero_division`` controls conditionals with zero conditioning mass:
    ``"raise"`` raises :class:`ZeroConditioningMass` if any value needs
    one (full-support tables never do), ``"zero"`` uses the plug-in
    convention 0/0 = 0 for empirical tables.  Each call builds a plan and
    runs it once; a caller with many tables of one layout keeps the plan.
    """
    return _Plan(e, t.variables, t.cards, clusters).run(t, zero_division)


def evaluate(e: ProbExpr, t: JointTable, assignment: Dict[str, int],
             clusters: Optional[Dict[str, Sequence[str]]] = None,
             zero_division: str = "raise") -> float:
    """The value of ``e`` at one assignment: a cell of :func:`tabulate`.

    ``assignment`` maps table variables to state indices and must cover
    the member variables of every free expression variable.  In
    ``"raise"`` mode it raises :class:`ZeroConditioningMass` exactly when
    this value depends on a conditioning event of zero mass.
    """
    variables, arr = _Plan(e, t.variables, t.cards, clusters).run(t, zero_division, nan_ok=True)
    index = []
    for v in variables:
        if v not in assignment:
            raise FormulaError(f"assignment is missing variable {v!r}")
        state = assignment[v]
        if not 0 <= state < t.card(v):
            raise FormulaError(f"state {state} of {v!r} is outside 0..{t.card(v) - 1}")
        index.append(state)
    value = float(arr[tuple(index)])
    if np.isnan(value):
        raise ZeroConditioningMass("conditioning event with zero probability")
    return value


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

# A rendering style: variable separator, conditioning bar, parentheses,
# the head of a sum given its bound names, and the fraction form.
_TEXT = (",", "|", "(", ")", lambda b: f"Σ_{b}" if len(b) == 1 else f"Σ_{{{b}}}",
         "[{} / {}]")
_LATEX = (", ", " \\mid ", "\\left(", "\\right)", "\\sum_{{{}}}".format,
          "\\frac{{{}}}{{{}}}")


def _render(node, style, prec=0):
    # prec 0: bare; 1: trailing position in a product (a sum may extend
    # rightward without parentheses); 2: must be atomic.
    sep, bar, left, right, sum_head, fraction = style
    kind = type(node)
    if kind is CondProb:
        # one lower() per list: no Final_Sigma context crosses a separator,
        # which is neither cased nor case-ignorable, so each name lowers alone
        head = sep.join(node.target).lower()
        if node.given:
            head += bar + sep.join(node.given).lower()
        return f"P({head})"
    if kind is Product:
        parts = [_render(f, style, 2) for f in node.factors[:-1]]
        parts.append(_render(node.factors[-1], style, min(prec, 1)))
        out = " ".join(parts)
    elif kind is Sum:
        head = sum_head(sep.join(node.bound).lower())
        out = f"{head} {_render(node.body, style, 1)}"
    elif kind is Fraction:
        return fraction.format(_render(node.numerator, style),
                               _render(node.denominator, style))
    elif kind is _One:
        return "1"
    else:
        raise TypeError(f"not a ProbExpr: {node!r}")
    return left + out + right if prec >= 2 else out


def _to_json_obj(node):
    if isinstance(node, _One):
        return {"kind": "one"}
    if isinstance(node, CondProb):
        return {"kind": "condprob",
                "vars": {"target": list(node.target), "given": list(node.given)}}
    if isinstance(node, Product):
        return {"kind": "product", "children": [_to_json_obj(f) for f in node.factors]}
    if isinstance(node, Sum):
        return {"kind": "sum", "vars": {"bound": list(node.bound)},
                "children": [_to_json_obj(node.body)]}
    if isinstance(node, Fraction):
        return {"kind": "fraction",
                "children": [_to_json_obj(node.numerator), _to_json_obj(node.denominator)]}
    raise TypeError(f"not a ProbExpr: {node!r}")


def render(e: ProbExpr, format: str = "text") -> str:
    """Deterministic rendering of an expression.

    ``text`` and ``latex`` lowercase variable names for the usual
    P(y|x,z) look; ``json`` is the faithful machine format and round
    trips through :func:`parse_formula_json`.
    """
    if format == "text":
        return _render(e, _TEXT)
    if format == "latex":
        return _render(e, _LATEX)
    if format == "json":
        return json.dumps(_to_json_obj(e), indent=None, separators=(",", ":"))
    raise FormulaError(f"unknown render format {format!r}")


def _json_list(owner, key, item=object):
    value = owner.get(key, []) if isinstance(owner, dict) else None
    if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
        of = " of strings" if item is str else ""
        raise FormulaError(f"formula JSON {key!r} must be a list{of}, got {value!r}")
    return value


def _from_json_obj(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormulaError(f"bad formula JSON node: {obj!r}")
    kind = obj["kind"]
    if kind == "one":
        return ONE
    if kind == "condprob":
        v = obj.get("vars", {})
        return CondProb(_json_list(v, "target", str), _json_list(v, "given", str))
    children = [_from_json_obj(ch) for ch in _json_list(obj, "children")]
    if kind == "product":
        return Product(children)
    if kind == "sum":
        if len(children) != 1:
            raise FormulaError("sum node needs exactly one child")
        return Sum(_json_list(obj.get("vars", {}), "bound", str), children[0])
    if kind == "fraction":
        if len(children) != 2:
            raise FormulaError("fraction node needs exactly two children")
        return Fraction(*children)
    raise FormulaError(f"unknown formula node kind {kind!r}")


def parse_formula_json(text: str) -> ProbExpr:
    try:
        return _from_json_obj(json.loads(text))
    except json.JSONDecodeError as err:
        raise FormulaError(f"invalid JSON: {err}") from None
    except RecursionError:
        raise FormulaError("formula JSON is nested too deeply") from None

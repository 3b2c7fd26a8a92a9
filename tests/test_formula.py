import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import itertools
import math
import os

from cdag import (ClusterDag, CondProb, CrossPolicy, ExpansionSpec, Fraction, Identified,
                  InternalPolicy, JointTable, ONE, Product, Sum, ZeroConditioningMass, evaluate,
                  identify, joint_distribution, parse_formula_json, random_cbn, render,
                  sample_batch, sample_dataset, simplify)
from cdag.cli import parse_graph
from cdag.oracle import empirical_table
from cdag.formula import (FormulaError, UnknownVariableError, _Plan, _alpha_normalize,
                          _broadcast, _free_vars, _simplify, _sum_rules, product_of, sum_over,
                          tabulate)
from cdag.identify import _HedgeFound, _run

import oracles
from oracles import equivalent_on
from randutil import random_cdag, random_disjoint_sets, random_table, rng_for, sweep_query


def frontdoor_expr():
    return Sum(["S"], Product([
        CondProb(["S"], ["X"]),
        Sum(["X'"], Product([CondProb(["Y"], ["X'", "S"]), CondProb(["X'"])])),
    ]))


def backdoor_expr():
    return Sum(["Z"], Product([CondProb(["Y"], ["X", "Z"]), CondProb(["Z"])]))


def test_evaluate_simple_ratio():
    # P(x=0) = 0.5 with P(y=0|x=0) = 0.7, P(y=0|x=1) = 0.4
    probs = np.array([[0.35, 0.15], [0.20, 0.30]])
    t = JointTable(("X", "Y"), probs)
    e = CondProb(["Y"], ["X"])
    assert evaluate(e, t, {"X": 0, "Y": 0}) == pytest.approx(0.7)
    assert evaluate(e, t, {"X": 1, "Y": 0}) == pytest.approx(0.4)


def test_evaluate_backdoor_normalizes():
    rng = rng_for(3)
    t = random_table(rng, ("X", "Y", "Z"), (2, 3, 2))
    e = backdoor_expr()
    total = 0.0
    for y in range(3):
        value = evaluate(e, t, {"X": 1, "Y": y})
        assert 0.0 <= value <= 1.0
        total += value
    assert total == pytest.approx(1.0, abs=1e-12)


def test_evaluate_cluster_expansion():
    # A cluster variable expands to the joint assignment of its members.
    rng = rng_for(4)
    t = random_table(rng, ("X", "Z1", "Z2"), (2, 2, 2))
    clusters = {"Z": ("Z1", "Z2"), "X": ("X",)}
    marg = Sum(["Z"], Product([CondProb(["X"], ["Z"]), CondProb(["Z"])]))
    for x in range(2):
        want = t.prob_of({"X": x})
        got = evaluate(marg, t, {"X": x}, clusters)
        assert got == pytest.approx(want, abs=1e-12)


def test_evaluate_missing_assignment():
    t = JointTable(("X",), np.array([0.5, 0.5]))
    with pytest.raises(FormulaError):
        evaluate(CondProb(["X"]), t, {})


def test_evaluate_rejects_out_of_range_state():
    t = JointTable(("X",), np.array([0.5, 0.5]))
    for state in (2, -1):
        with pytest.raises(FormulaError, match="outside 0..1"):
            evaluate(CondProb(["X"]), t, {"X": state})


def test_free_names_sharing_a_table_variable():
    # X and X' both stand for table variable X, and cluster Z overlaps
    # its member Z1: the views read the cells where the names agree.
    rng = rng_for(27)
    t = random_table(rng, ("X", "Z1", "Z2"), (2, 3, 2))
    clusters = {"Z": ("Z1", "Z2")}
    e = Product([CondProb(["X"]), CondProb(["X'"], ["Z"]), CondProb(["Z1"])])
    for state in itertools.product(range(2), range(3), range(2)):
        assignment = dict(zip(("X", "Z1", "Z2"), state))
        assert evaluate(e, t, assignment, clusters) == pytest.approx(
            oracles.evaluate(e, t, assignment, clusters), abs=1e-12)
    same = Product([CondProb(["X"]), CondProb(["X"], ["Z"]), CondProb(["Z1"])])
    assert equivalent_on(e, same, t, clusters)
    assert not equivalent_on(e, Product([CondProb(["X"]), CondProb(["Z1"])]), t, clusters)


def test_zero_conditioning_mass():
    probs = np.array([[0.5, 0.5], [0.0, 0.0]])
    t = JointTable(("X", "Y"), probs)
    e = CondProb(["Y"], ["X"])
    with pytest.raises(ZeroConditioningMass):
        evaluate(e, t, {"X": 1, "Y": 0})
    assert evaluate(e, t, {"X": 1, "Y": 0}, zero_division="zero") == 0.0


def test_oracle_messages_render_the_node_once():
    t = JointTable(("X", "Y"), np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.raises(ZeroConditioningMass,
                       match=r"^conditioning event has zero probability in P\(y\|x\)$"):
        oracles.evaluate(CondProb(["Y"], ["X"]), t, {"X": 1, "Y": 0})
    with pytest.raises(FormulaError, match=r"^variable 'X' indexed twice in P\(x\|x'\)$"):
        oracles.evaluate(CondProb(["X"], ["X'"]), t, {"X": 0, "Y": 0})


def test_simplify_unit_product():
    e = Product([ONE, CondProb(["Y"], ["X"])])
    assert simplify(e) == CondProb(["Y"], ["X"])


def test_simplify_normalization_rule():
    assert simplify(Sum(["Z"], CondProb(["Z"]))) is ONE
    e = Sum(["Z"], Product([CondProb(["Z"], ["X"]), CondProb(["Y"], ["X"])]))
    assert simplify(e) == CondProb(["Y"], ["X"])


def test_simplify_keeps_used_sums():
    e = backdoor_expr()
    assert simplify(e) == e


def test_simplify_fraction_to_conditional():
    e = Fraction(CondProb(["A", "B"]), CondProb(["B"]))
    assert simplify(e) == CondProb(["A"], ["B"])
    rng = rng_for(9)
    for seed in range(5):
        t = random_table(rng, ("A", "B"), (2, 2))
        assert equivalent_on(e, simplify(e), t)


def test_simplify_cancels_identical_factors():
    f = CondProb(["A"], ["B"])
    e = Fraction(Product([f, CondProb(["B"])]), f)
    assert simplify(e) == CondProb(["B"])


def test_simplify_merges_nested_sums():
    e = Sum(["A"], Sum(["B"], Product([CondProb(["X"], ["A", "B"]),
                                       CondProb(["A"]), CondProb(["B"])])))
    s = simplify(e)
    assert isinstance(s, Sum)
    assert set(s.bound) == {"A", "B"}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_simplify_preserves_evaluation(seed):
    rng = rng_for(seed)
    t = random_table(rng, ("S", "X", "Y"), (2, 2, 2))
    exprs = [
        frontdoor_expr(),
        Fraction(CondProb(["S", "X"]), CondProb(["X"])),
        Sum(["S"], Product([CondProb(["S"], ["X"]), ONE])),
        Product([ONE, Fraction(CondProb(["Y"], ["S", "X"]), ONE)]),
    ]
    for e in exprs:
        s = simplify(e)
        names = sorted({v for n in _free_vars(e, {}) for v in (n.rstrip("'"),)})
        assignment = {v: int(rng.integers(0, 2)) for v in names}
        assert evaluate(s, t, assignment) == pytest.approx(
            evaluate(e, t, assignment), abs=1e-12)


def test_simplify_idempotent():
    for e in (frontdoor_expr(), backdoor_expr(),
              Fraction(CondProb(["A", "B"]), CondProb(["B"]))):
        once = simplify(e)
        assert simplify(once) == once


def assert_matches_tree_reference(e, reserved):
    assert _free_vars(e, {}) == oracles.free_vars(e)
    assert _alpha_normalize(e, reserved, {}) == oracles.alpha_normalize(e, reserved)
    got, want = simplify(e, reserved), oracles.simplify(e, reserved)
    assert got == want
    for fmt in ("text", "json"):
        assert render(got, fmt) == render(want, fmt)
    assert _free_vars(got, {}) == oracles.free_vars(got)


@pytest.mark.parametrize("kind, n", [("sparse", n) for n in (10, 20, 40, 60)]
                         + [("dense", n) for n in (20, 40, 60)])
def test_simplify_matches_tree_reference_on_identification(kind, n):
    # Before simplification, every prefix sum of a refined c-factor is
    # shared by the two ratios that use it, so these are DAGs.
    rng = rng_for(n + (1000 if kind == "dense" else 0))
    checked = 0
    for _ in range(10):
        c, x, y = sweep_query(rng, kind, n)
        try:
            e, _ = _run(c, frozenset([x]), frozenset([y]))
        except _HedgeFound:
            continue
        assert_matches_tree_reference(e, {x, y})
        checked += 1
    assert checked >= 3


def shared_subexpressions():
    a = Sum(["A"], Product([CondProb(["A"], ["B"]), CondProb(["C"], ["A"])]))
    prefixes = [CondProb(["D"], ["A", "B", "C"])]
    for v in ("C", "B", "A"):
        prefixes.append(Sum([v], prefixes[-1]))
    ratios = Product([Fraction(prefixes[i], prefixes[i + 1]) for i in range(3)])
    rebound = Sum(["A"], Product([CondProb(["A"]), Sum(["A"], CondProb(["B"], ["A"])), a]))
    deep = CondProb(["B"], ["A"])
    for _ in range(5):
        deep = Product([Fraction(Sum(["A"], deep), deep), Sum(["B"], deep)])
    return [Product([a, a]), Fraction(a, Sum(["C"], a)), ratios, Sum(["D"], ratios),
            rebound, Product([rebound, ratios, rebound]), deep, Sum(["C"], Product([a, deep]))]


@pytest.mark.parametrize("reserved", [(), ("A",), ("B", "D")])
def test_simplify_matches_tree_reference_on_shared_subexpressions(reserved):
    for e in shared_subexpressions():
        assert_matches_tree_reference(e, set(reserved))


def test_collapse_that_creates_a_cancellable_factor():
    # P(a,b|g) / P(b|g) collapses to P(a|b,g), which then cancels the
    # denominator's other factor within the same rewrite.
    e = Fraction(CondProb(["A", "B"], ["G"]),
                 Product([CondProb(["B"], ["G"]), CondProb(["A"], ["B", "G"])]))
    assert _simplify(e, {}, {}) is ONE
    assert render(simplify(e)) == render(oracles.simplify(e)) == "1"


def test_drop_that_exposes_a_mergeable_sum():
    # Dropping P(a) leaves Σ_b Σ_c P(b,c|d); the nested sums then merge and
    # normalize within the same rewrite.
    e = Sum(["A", "B"], Product([CondProb(["A"]), Sum(["C"], CondProb(["B", "C"], ["D"]))]))
    assert _simplify(e, {}, {}) is ONE
    assert render(simplify(e)) == render(oracles.simplify(e)) == "1"


NAMES = ("A", "B", "C", "D", "A'", "B'")


def bound_inside(e):
    if isinstance(e, Sum):
        return set(e.bound) | bound_inside(e.body)
    children = (e.factors if isinstance(e, Product)
                else (e.numerator, e.denominator) if isinstance(e, Fraction) else ())
    return set().union(*map(bound_inside, children))


def random_expression(rng, size=8, shadowing=True):
    """A random expression DAG over ``NAMES``.  Each node takes children
    from the nodes built before it, so sub-expressions are shared; the
    node kinds favour the shapes the rewrite rules act on: ratios that
    collapse, normalized factors under their sums and nested sums.  With
    ``shadowing`` off, no sum binds a name that a sum inside it binds."""
    pool = []

    def names(lo, hi, avoid=()):
        free = [v for v in NAMES if v not in avoid]
        k = int(rng.integers(min(lo, len(free)), min(hi, len(free)) + 1))
        return [free[i] for i in rng.choice(len(free), size=k, replace=False)]

    def sum_of(body, lo=1, hi=2, first=(), avoid=()):
        # a sum over the names in ``first`` and ``lo`` to ``hi`` others
        avoid = set(avoid) | (set() if shadowing else bound_inside(body))
        bound = [v for v in first if v not in avoid]
        bound += names(lo, hi, avoid | set(bound))
        return Sum(bound, body) if bound else body

    def condprob():
        target = names(1, 3)
        return CondProb(target, names(0, 2, target))

    def pick():
        if pool and rng.random() < 0.7:
            return pool[int(rng.integers(len(pool)))]
        return condprob()

    for _ in range(size):
        kind = int(rng.integers(7))
        if kind == 0:
            node = condprob()
        elif kind == 1:
            node = Product([pick() for _ in range(int(rng.integers(1, 4)))])
        elif kind == 2:
            node = sum_of(pick(), 1, 3)
        elif kind == 3:
            node = Fraction(pick(), ONE if rng.random() < 0.1 else pick())
        elif kind == 4:
            # P(t|g) / (P(s|g) P(t-s|s,g) ...) with s a proper subset of t
            target = names(2, 3)
            given = names(0, 2, target)
            cut = int(rng.integers(1, len(target)))
            den = [CondProb(target[:cut], given)]
            if rng.random() < 0.5:
                den.append(CondProb(target[cut:], given + target[:cut]))
            num = [CondProb(target, given)] + [pick() for _ in range(int(rng.integers(2)))]
            node = Fraction(Product(num), Product(den + [pick()] * int(rng.integers(2))))
        elif kind == 5:
            # a normalized factor beside another sum under a common sum
            target = names(1, 2)
            inner = sum_of(pick(), avoid=target)
            node = sum_of(Product([CondProb(target), inner]), 0, 2, first=target)
        else:
            node = sum_of(sum_of(pick()))
        pool.append(node)
    return pool[-1]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_one_pass_matches_fixpoint_reference(seed):
    rng = rng_for(seed)
    e = random_expression(rng, shadowing=False)
    reserved = set(NAMES[:int(rng.integers(3))])
    got, want = simplify(e, reserved), oracles.simplify(e, reserved)
    assert got == want
    for fmt in ("text", "json"):
        assert render(got, fmt) == render(want, fmt)


def random_sum_of_products(rng):
    """Σ over a product of conditionals on ``NAMES`` that share names: a
    chain P(v | earlier names) with the odd later name given, its factors
    in random order, so that one drop can make a factor before it
    droppable; now and then a second factor on a target; some targets
    left unbound."""
    order = [str(v) for v in rng.permutation(NAMES)]
    factors, i = [], 0
    while i < len(order):
        k = 1 if rng.random() < 0.7 else 2
        given = [v for v in order[:i] if rng.random() < 0.5]
        given += [v for v in order[i + k:] if rng.random() < 0.1]
        factors.append(CondProb(order[i:i + k], given))
        i += k
    if rng.random() < 0.2:
        factors.append(CondProb([order[int(rng.integers(len(order)))]]))
    factors = [factors[j] for j in rng.permutation(len(factors))]
    bound = [v for v in order if rng.random() < 0.7] or order[:1]
    return Sum([bound[j] for j in rng.permutation(len(bound))], product_of(factors))


def test_sweeps_drop_what_one_drop_exposes():
    # P(b) holds a name of P(a|b), so it drops only after P(a|b) does
    e = Sum(["A", "B"], Product([CondProb(["A"], ["B"]), CondProb(["B"]), CondProb(["C"], ["B"])]))
    assert render(_sum_rules(e.bound, e.body, {})) == "Σ_b P(b) P(c|b)"
    e = Sum(["A", "B", "C"], e.body)
    assert _sum_rules(e.bound, e.body, {}) is ONE


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_sum_rules_match_the_restarting_reference(seed):
    rng = rng_for(seed)
    e = random_sum_of_products(rng)
    reserved = {v for v in NAMES if rng.random() < 0.3}
    assert _sum_rules(e.bound, e.body, {}) == oracles.sum_rules(e.bound, e.body)
    assert _alpha_normalize(e, reserved, {}) == oracles.alpha_normalize(e, reserved)
    got, want = simplify(e, reserved), oracles.simplify(e, reserved)
    assert got == want
    for fmt in ("text", "json"):
        assert render(got, fmt) == render(want, fmt)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_one_pass_is_a_fixpoint(seed):
    once = _simplify(random_expression(rng_for(seed)), {}, {})
    twice = _simplify(once, {}, {})
    assert twice == once
    assert render(twice) == render(once)
    # a fixpoint of the reference's rules too
    assert oracles._simplify(once) == once


def test_one_pass_is_a_fixpoint_on_identification():
    rng = rng_for(5)
    checked = 0
    for kind, n in [("sparse", 20), ("sparse", 40), ("dense", 20), ("dense", 40)]:
        for _ in range(5):
            c, x, y = sweep_query(rng, kind, n)
            try:
                e, _ = _run(c, frozenset([x]), frozenset([y]))
            except _HedgeFound:
                continue
            once = _simplify(e, {}, {})
            twice = _simplify(once, {}, {})
            assert twice == once
            assert render(twice) == render(once)
            checked += 1
    assert checked >= 8


def test_shadowing_sums_can_settle_on_another_fixpoint():
    # The rules are not confluent when a sum binds a name that a sum
    # inside it binds too.  Here the one pass sees Σ_c over a normal
    # Σ_{a,b} P(c|a), merges and drops P(c|a), and then Σ_a cannot merge.
    # The repeated passes of the reference first see Σ_c over a fraction
    # not yet cancelled, merge Σ_a with Σ_c, and then cannot merge
    # Σ_{a,b}.  Both results are fixpoints of the rules, and both equal
    # the input in value when a sum counts every state of its bound names.
    ratio = Fraction(CondProb(["D", "E"], ["G"]),
                     Product([CondProb(["E"], ["G"]), CondProb(["D"], ["E", "G"])]))
    e = Sum(["A"], Sum(["C"], Fraction(Sum(["A", "B"], CondProb(["C"], ["A"])), ratio)))
    got, want = simplify(e), oracles.simplify(e)
    assert render(got) == "Σ_a Σ_{a',b} 1"
    assert render(want) == "Σ_{a,c} Σ_{a',b} P(c|a')"
    once = _simplify(e, {}, {})
    assert oracles._simplify(once) == once
    t = random_table(rng_for(8), ("A", "B", "C", "D", "E", "G"), (2, 3, 2, 2, 2, 2))
    value = oracles.evaluate(e, t, {"D": 1, "E": 0, "G": 1})
    assert oracles.evaluate(got, t, {}) == pytest.approx(value, abs=1e-12)
    assert oracles.evaluate(want, t, {}) == pytest.approx(value, abs=1e-12)


def test_render_text_golden():
    assert render(frontdoor_expr()) == "Σ_s P(s|x) Σ_{x'} P(y|s,x') P(x')"
    assert render(backdoor_expr()) == "Σ_z P(y|x,z) P(z)"
    assert render(ONE) == "1"


def test_render_latex():
    out = render(backdoor_expr(), "latex")
    assert out == "\\sum_{z} P(y \\mid x, z) P(z)"
    assert render(frontdoor_expr(), "latex") == \
        "\\sum_{s} P(s \\mid x) \\sum_{x'} P(y \\mid s, x') P(x')"


def test_render_fraction_golden():
    e = Product([Fraction(Sum(["AB"], CondProb(["AB", "C"])), CondProb(["C"])),
                 Sum(["D"], CondProb(["D"])), CondProb(["E"])])
    assert render(e) == "[Σ_{ab} P(ab,c) / P(c)] (Σ_d P(d)) P(e)"
    assert render(e, "latex") == ("\\frac{\\sum_{ab} P(ab, c)}{P(c)} "
                                  "\\left(\\sum_{d} P(d)\\right) P(e)")


# Names that stress lowercasing: Σ lowers to ς at the end of a word, and
# apostrophes, combining marks, ':' and '.' are case-ignorable, so they
# extend a word; the rest of Unicode comes in through st.characters().
UNICODE_NAMES = st.text(st.one_of(st.sampled_from("ΣσςAbİẞ'\u0301\u0308:. "),
                                  st.characters()), max_size=4)


def unicode_expressions():
    name_lists = st.lists(UNICODE_NAMES, min_size=1, max_size=4, unique=True)
    leaves = st.one_of(st.just(ONE), st.builds(
        lambda t, g: CondProb(t, [v for v in g if v not in t]),
        name_lists, st.lists(UNICODE_NAMES, max_size=4, unique=True)))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Product, st.lists(kids, min_size=1, max_size=3)),
        st.builds(Sum, name_lists, kids),
        st.builds(Fraction, kids, kids)), max_leaves=8)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(e=unicode_expressions())
def test_render_lowercases_like_each_name_alone(e):
    for fmt in ("text", "latex"):
        assert render(e, fmt) == oracles.render_per_name(e, fmt)


def test_render_final_sigma_stays_within_a_name():
    e = Sum(["AΣ", "Σ"], CondProb(["BΣ'", "Σ"], ["CΣ\u0308", "ΣD"]))
    want = "Σ_{aς,σ} P(bς',σ|cς\u0308,σd)"
    assert render(e) == oracles.render_per_name(e) == want


def test_render_unknown_format():
    with pytest.raises(FormulaError):
        render(ONE, "html")


def test_json_round_trip():
    for e in (frontdoor_expr(), backdoor_expr(), ONE,
              Fraction(Sum(["A"], CondProb(["A"])), CondProb(["B"]))):
        assert parse_formula_json(render(e, "json")) == e


def test_json_rejects_garbage():
    with pytest.raises(FormulaError):
        parse_formula_json("{not json")
    with pytest.raises(FormulaError):
        parse_formula_json('{"kind": "mystery"}')


@pytest.mark.parametrize("text", [
    '{"kind": "condprob", "vars": {"target": 5}}',
    '{"kind": "condprob", "vars": {"target": "XY"}}',
    '{"kind": "condprob", "vars": {"target": ["X"], "given": [1]}}',
    '{"kind": "product", "children": 5}',
    '{"kind": "sum", "vars": {"bound": "X"}, "children": [{"kind": "one"}]}',
], ids=["target_number", "target_string", "given_number", "children_number",
        "bound_string"])
def test_json_rejects_bad_shapes(text):
    with pytest.raises(FormulaError, match="must be a list"):
        parse_formula_json(text)


def test_equivalent_on_agrees_with_itself():
    rng = rng_for(17)
    e = frontdoor_expr()
    for _ in range(3):
        t = random_table(rng, ("S", "X", "Y"), (2, 2, 2))
        assert equivalent_on(e, e, t)
        assert equivalent_on(e, simplify(e), t)


def test_equivalent_on_detects_difference():
    rng = rng_for(19)
    t = random_table(rng, ("X", "Y", "Z"), (2, 2, 2))
    assert not equivalent_on(CondProb(["Y"], ["X"]), backdoor_expr(), t)


def test_joint_table_validates():
    with pytest.raises(FormulaError):
        JointTable(("X",), np.array([0.5, 0.6]))
    with pytest.raises(FormulaError):
        JointTable(("X",), np.array([1.5, -0.5]))
    with pytest.raises(FormulaError, match="sum to nan"):
        JointTable(("X",), np.array([np.nan, 1.0]))
    with pytest.raises(FormulaError, match=r"^table variable \"Y'\" must not end in a prime$"):
        JointTable(("X", "Y'"), np.full((2, 2), 0.25))


def test_marginal_rejects_unknown_names():
    t = random_table(rng_for(22), ("A", "B", "C"), (2, 3, 2))
    assert t.marginal(["A"]).shape == (2,)
    # a cached marginal over A does not let a name beside it through
    for names in (["Q"], ["A", "Q"], ["Q", "R", "B"]):
        with pytest.raises(UnknownVariableError, match="'Q'"):
            t.marginal(names)
    with pytest.raises(UnknownVariableError, match=r"\['Q'\]"):
        t.prob_of({"A": 0, "Q": 1})


def test_csv_round_trip():
    rng = rng_for(21)
    t = random_table(rng, ("A", "B"), (2, 3))
    back = JointTable.from_csv(oracles.to_csv(t))
    assert back.variables == t.variables
    assert np.allclose(back.probs, t.probs)


def test_csv_rejects_incomplete():
    text = "A,p\n0,0.5\n"
    with pytest.raises(FormulaError):
        JointTable.from_csv(text)


def test_tabulate_matches_pointwise_evaluate():
    rng = rng_for(25)
    from cdag.formula import tabulate
    from oracles import evaluate
    import itertools
    exprs = [frontdoor_expr(), backdoor_expr(),
             Fraction(CondProb(["S", "X"]), CondProb(["X"])),
             Sum(["Z"], Product([CondProb(["Y"], ["X", "Z"]), CondProb(["Z"])]))]
    for e in exprs:
        t = random_table(rng, ("S", "X", "Y", "Z"), (2, 2, 3, 2))
        variables, arr = tabulate(e, t)
        for state in itertools.product(*(range(t.card(v)) for v in variables)):
            assignment = dict(zip(variables, state))
            assert float(arr[state]) == pytest.approx(
                evaluate(e, t, assignment), abs=1e-12)


def test_tabulate_cluster_expansion_and_zero_mode():
    from cdag.formula import tabulate
    from oracles import evaluate
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = 0.5
    probs[1, 1, 1] = 0.5
    t = JointTable(("X", "Z1", "Z2"), probs)
    clusters = {"Z": ("Z1", "Z2"), "X": ("X",)}
    e = Sum(["Z"], Product([CondProb(["X"], ["Z"]), CondProb(["Z"])]))
    with pytest.raises(ZeroConditioningMass):
        tabulate(e, t, clusters)
    variables, arr = tabulate(e, t, clusters, zero_division="zero")
    assert variables == ("X",)
    for x in range(2):
        assert float(arr[x]) == pytest.approx(
            evaluate(e, t, {"X": x}, clusters, zero_division="zero"), abs=1e-12)


def test_tabulate_sum_over_absent_name_counts_its_states():
    rng = rng_for(26)
    t = random_table(rng, ("a", "b", "c"), (2, 3, 2))
    clusters = {"K": ("a", "b")}
    # |a| = 2 and |K| = |a| |b| = 6, as the pointwise reference counts
    for e, count in ((Sum(["a"], ONE), 2), (Sum(["K"], ONE), 6),
                     (Sum(["K", "c"], CondProb(["c"])), 6)):
        assert float(tabulate(e, t, clusters)[1]) == pytest.approx(count, abs=1e-12)
        assert oracles.evaluate(e, t, {}, clusters) == pytest.approx(count, abs=1e-12)


def test_simplify_dropped_target_keeps_the_sum_value():
    # simplify drops the summed-out target and keeps Σ_a over the rest
    t = random_table(rng_for(27), ("a", "c"), (2, 2))
    e = Sum(["a", "c"], CondProb(["c"], ["a"]))
    assert render(simplify(e)) == "Σ_a 1"
    assert float(tabulate(simplify(e), t)[1]) == pytest.approx(
        float(tabulate(e, t)[1]), abs=1e-12)


def test_sum_over_empty_is_identity():
    e = CondProb(["Y"])
    assert sum_over([], e) is e


def test_condprob_rejects_overlap():
    with pytest.raises(FormulaError):
        CondProb(["X"], ["X"])


def test_nodes_are_immutable_values():
    # simplify cancels factors by equality, so a node is its kind and its
    # fields: equal when built apart, and never changed once built
    a, b = frontdoor_expr(), frontdoor_expr()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert Fraction(a, ONE) == Fraction(b, ONE) and Sum(["X"], a) != Sum(["Z"], a)
    leaf = CondProb(["Y"], ["X"])
    fields = {ONE: (), leaf: ("target", "given"), Product([leaf]): ("factors",),
              Sum(["Y"], leaf): ("bound", "body"),
              Fraction(leaf, leaf): ("numerator", "denominator")}
    assert len(fields) == 5
    for x, y in itertools.combinations(fields, 2):
        assert x != y and y != x
    trusted = CondProb._trusted(("A", "B"), ("C", "D"))
    assert trusted == CondProb(["B", "A", "B"], ["D", "C"])
    assert hash(trusted) == hash(CondProb(["A", "B"], ["C", "D"]))
    for node, names in [*fields.items(), (a, ("bound", "body")), (trusted, ("target", "given"))]:
        assert repr(node) == render(node, "text")
        assert not hasattr(node, "__dict__")
        before = [getattr(node, name) for name in names]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(node, name, ONE)
        assert [getattr(node, name) for name in names] == before


def table_with_zeros(rng, variables):
    """A binary joint table with about half of its cells set to zero."""
    probs = rng.dirichlet(np.ones(2 ** len(variables)))
    probs[rng.random(probs.size) < 0.5] = 0.0
    probs[rng.integers(probs.size)] += 0.5
    return JointTable(tuple(variables), (probs / probs.sum()).reshape((2,) * len(variables)))


def test_evaluate_matches_pointwise_oracle():
    # Identified expressions from random cluster graphs, evaluated on the
    # cluster names themselves and, through a cluster map, on one or two
    # member variables per cluster.
    rng = rng_for(43)
    oracle_raised = {"names": 0, "members": 0}
    expressions = 0
    while expressions < 30:
        c = random_cdag(rng, int(rng.integers(3, 6)))
        x, y = random_disjoint_sets(rng, c.graph.nodes, 2, min_sizes=[1, 1])
        result = identify(c, sorted(x), sorted(y))
        if not isinstance(result, Identified):
            continue
        expressions += 1
        e = result.expr
        cluster_map = {n: tuple(f"{n}_{i}" for i in range(int(rng.integers(1, 3))))
                       for n in c.graph.nodes}
        for kind, clusters in (("names", None), ("members", cluster_map)):
            def members(n):
                return clusters[n] if clusters else (n,)

            table_vars = [v for n in c.graph.nodes for v in members(n)]
            free = sorted(v for n in x | y for v in members(n))
            full = random_table(rng, table_vars, (2,) * len(table_vars))
            for t in (full, table_with_zeros(rng, table_vars)):
                for state in itertools.product(range(2), repeat=len(free)):
                    a = dict(zip(free, state))
                    assert evaluate(e, t, a, clusters, "zero") == pytest.approx(
                        oracles.evaluate(e, t, a, clusters, "zero"), abs=1e-12)
                    try:
                        want = oracles.evaluate(e, t, a, clusters)
                    except ZeroConditioningMass:
                        assert t is not full
                        oracle_raised[kind] += 1
                        with pytest.raises(ZeroConditioningMass):
                            evaluate(e, t, a, clusters)
                        continue
                    try:
                        got = evaluate(e, t, a, clusters)
                    except ZeroConditioningMass:
                        # The oracle stops a product at its first zero
                        # factor, so it can skip a later zero-mass factor.
                        assert t is not full
                        continue
                    assert got == pytest.approx(want, abs=1e-12)
    assert min(oracle_raised.values()) > 0, oracle_raised


# -- plans: tabulate's evaluator against the walk it replaced ---------------

# Expression names and the table variables behind them.  As clusters, A
# and C have two members, and the table lists members out of name order.
PLAN_CLUSTERS = {"A": ("a2", "a1"), "B": ("b",), "C": ("c1", "c2"), "D": ("d",)}
PLAN_MEMBERS = ("c2", "a1", "d", "b", "a2", "c1")


def plan_tables(rng, variables, count=3):
    """Tables over ``variables`` with cards of 2 or 3, shared by all of
    them: full support first, then tables with half and then nine tenths
    of their cells zero, and so zero-mass conditioning events."""
    cards = tuple(int(c) for c in rng.integers(2, 4, len(variables)))
    tables = [random_table(rng, variables, cards)]
    while len(tables) < count:
        probs = rng.dirichlet(np.ones(math.prod(cards)))
        probs[rng.random(probs.size) < (0.5 if len(tables) % 2 else 0.9)] = 0.0
        probs[rng.integers(probs.size)] += 0.5
        tables.append(JointTable(variables, (probs / probs.sum()).reshape(cards)))
    return tables


def outcome(fn):
    """``fn()``, or the type and message of the FormulaError it raised."""
    try:
        return fn()
    except FormulaError as err:
        return type(err), str(err)


def assert_same_outcome(got, want):
    if isinstance(want[0], type):
        assert got == want
        return
    # the array may be a numpy scalar, as a sum over every axis returns
    (got_vars, got_arr), (want_vars, want_arr) = got, want
    assert got_vars == want_vars and type(got_arr) is type(want_arr)
    assert got_arr.shape == want_arr.shape and got_arr.strides == want_arr.strides
    assert got_arr.tobytes() == want_arr.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), clustered=st.booleans())
def test_plan_matches_the_walk_in_bytes_and_strides(seed, clustered):
    # Random expression DAGs hold fractions, primed bound names and sums
    # over names absent from their bodies; one plan runs on every table,
    # in both modes, and must issue what the walk issues.
    rng = rng_for(seed)
    e = random_expression(rng, size=int(rng.integers(1, 10)))
    clusters = PLAN_CLUSTERS if clustered else None
    tables = plan_tables(rng, PLAN_MEMBERS if clustered else ("C", "A", "D", "B"))
    plan = outcome(lambda: _Plan(e, tables[0].variables, tables[0].cards, clusters))
    for t in tables:
        for mode in ("raise", "zero"):
            want = outcome(lambda: oracles.tabulate_walk(e, t, clusters, mode))
            got = plan if isinstance(plan, tuple) else \
                outcome(lambda: plan.run(t, mode, nan_ok=True))
            assert_same_outcome(got, want)


AXES = ("A", "B", "C", "D", "E", "F")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=st.lists(st.sampled_from(AXES), unique=True, max_size=5),
       b=st.lists(st.sampled_from(AXES), unique=True, max_size=5),
       lead=st.lists(st.sampled_from(AXES), unique=True, max_size=3),
       dims=st.lists(st.integers(1, 4), min_size=10, max_size=10))
def test_broadcast_views_match_the_reference(a, b, lead, dims):
    # shared names may have other lengths in b: a's length wins in both
    a_shape, b_shape = tuple(dims[:len(a)]), tuple(dims[5:5 + len(b)])
    got = _broadcast(tuple(a), a_shape, tuple(b), b_shape, tuple(lead))
    assert got == oracles.broadcast(tuple(a), a_shape, tuple(b), b_shape, tuple(lead))
    assert [type(part) for view in got[1:] for part in view] == [list] * 4


def test_one_plan_gives_each_table_its_own_values():
    rng = rng_for(61)
    e = frontdoor_expr()
    tables = plan_tables(rng, ("S", "X", "Y", "Z"), count=4)
    plan = _Plan(e, tables[0].variables, tables[0].cards)
    results = [plan.run(t, "zero") for t in tables]
    for t, got in zip(tables, results):
        assert_same_outcome(got, oracles.tabulate_walk(e, t, None, "zero"))
    assert len({arr.tobytes() for _, arr in results}) == len(tables)
    # in "raise" mode NaN marks a zero-mass conditioning event
    for t in tables:
        raw = plan.run(t, nan_ok=True)
        assert_same_outcome(raw, oracles.tabulate_walk(e, t))
        if np.isnan(raw[1]).any():
            with pytest.raises(ZeroConditioningMass):
                plan.run(t)
        else:
            assert_same_outcome(plan.run(t), raw)


@pytest.mark.parametrize("seed", range(3))
def test_criterion_10_plans_match_the_walk_on_sparse_empirical_tables(seed):
    # The plans simulate runs: the backdoor formula over a Z cluster of 10
    # and the variable-level formula of its expansion, each on the exact
    # table and on empirical tables of 20 rows, where most of the 4,096
    # cells are empty and so most conditioning events have no mass.
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "graphs", "backdoor.cdag")
    with open(path, encoding="utf-8") as fh:
        c = parse_graph(fh.read()).cdag
    spec = ExpansionSpec(sizes={"Z": 10}, internal=InternalPolicy("random", 0.5, 0.3),
                         cross=CrossPolicy("random", 0.15), seed=seed)
    (graph, partition), = sample_batch(c, spec, 1)
    clusters = partition.to_cluster_map()
    var_x, var_y = partition.variables_of(["X"]), partition.variables_of(["Y"])
    model = random_cbn(graph, {v: 2 for v in graph.nodes}, seed=seed)
    exact = joint_distribution(model)
    tables = [exact] + [empirical_table(graph.nodes, exact.cards,
                                        sample_dataset(model, 20, seed=seed + k))
                        for k in range(4)]
    assert all((t.probs == 0).mean() > 0.99 for t in tables[1:])
    for e, groups in ((identify(c, ["X"], ["Y"]).expr, clusters),
                      (identify(ClusterDag(graph), var_x, var_y).expr, None)):
        plan = _Plan(e, exact.variables, exact.cards, groups)
        for t in tables:
            for mode in ("raise", "zero"):
                want = oracles.tabulate_walk(e, t, groups, mode)
                assert_same_outcome(plan.run(t, mode, nan_ok=True), want)
        assert np.isnan(plan.run(tables[1], nan_ok=True)[1]).any()


def test_plan_rejects_a_table_of_other_variables_or_cards():
    rng = rng_for(62)
    t = random_table(rng, ("X", "Y", "Z"), (2, 3, 2))
    plan = _Plan(backdoor_expr(), t.variables, t.cards)
    others = [random_table(rng, ("X", "Y", "Z"), (2, 2, 2)),
              random_table(rng, ("Z", "Y", "X"), (2, 3, 2)),
              random_table(rng, ("X", "Y", "Z", "W"), (2, 3, 2, 2))]
    for other in others:
        for mode in ("raise", "zero"):
            with pytest.raises(FormulaError, match="the plan is for variables"):
                plan.run(other, mode)
    with pytest.raises(FormulaError, match="bad zero_division mode"):
        plan.run(t, "nan")

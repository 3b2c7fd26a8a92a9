"""Command-line surface: graph files, queries, and the simulation harness.

Graph file grammar (one declaration per line, ``#`` starts a comment)::

    node NAME
    cluster NAME = { NAME+ }
    edge A -> B
    edge A <-> B

Names are bare words (letters, digits, ``_ . -``) or double-quoted
strings, and each is declared once: one ``cluster`` line per cluster
and one ``node`` line per node.  A file is variable-level when some edge
touches a cluster member; otherwise it is a cluster DAG directly, whose
bare nodes are clusters and so no members.  It parses to a ``ParsedGraph``: the cluster
DAG, the partition (the declared clusters plus a singleton per bare node
that is no member) and, for a variable-level file, the mixed graph.

Exit codes: 0 success, 1 negative verdict (not identifiable, not
separated, rule does not apply, inadmissible), 2 usage error, 3 input
error.
"""

import argparse
import functools
import re
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .graphs import Admg
from .cluster import (ClusterDag, InadmissibleError, Partition, build_cdag,
                      cdag_d_separated, is_compatible, singleton_cdag)
from .docalc import DoQuery, rule1, rule2, rule3
from .formula import FormulaError, JointTable, _Plan, evaluate, parse_formula_json, render
from .identify import Identified, identify
from .oracle import (StateSpaceCapError, _check_state_space, draw_ahead, empirical_table,
                     joint_distribution, random_cbn, sample_dataset)
from .sampler import (CrossPolicy, ExpansionSpec, InternalPolicy, _derive_seed, expand,
                      sample_batch)


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


_BARE_NAME = re.compile(r"[A-Za-z0-9_.\-]+")


def _quote(name: str) -> str:
    if _BARE_NAME.fullmatch(name):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


# One token per match: a run of whitespace and commas, a comment to the
# end of the line, a quoted name (backslash escapes the next character), a
# quote left open, an arrow, a brace or ``=``, a bare name, which ends
# before a ``->`` (so ``A->B`` is an edge), or any other character.
_TOKEN = re.compile(r'(?P<skip>[\s,]+)|(?P<comment>#)|"(?P<quoted>(?:\\.|[^"\\])*)"|'
                    r'(?P<open>")|(?P<token><?->|[{}=]|(?:[A-Za-z0-9_.]|-(?!>))+)|(?P<other>.)',
                    re.S)


def _tokenize(line: str, line_no: int) -> List[str]:
    tokens = []
    for m in _TOKEN.finditer(line):
        kind = m.lastgroup
        if kind == "comment":
            break
        if kind == "open":
            raise ParseError(line_no, "unterminated quoted name")
        if kind == "other":
            raise ParseError(line_no, f"unexpected character {m[0]!r}")
        if kind == "quoted":
            tokens.append('"' + re.sub(r"\\(.)", r"\1", m["quoted"], flags=re.S))
        elif kind == "token":
            tokens.append(m[0])
    return tokens


def _name_of(token: str, line_no: int) -> str:
    if token.startswith('"'):
        if token.endswith("'"):    # the formulas keep a trailing prime for renamed names
            raise ParseError(line_no, f"name {token[1:]!r} must not end in a prime")
        return token[1:]
    if not _BARE_NAME.fullmatch(token):
        raise ParseError(line_no, f"invalid name {token!r}")
    return token


@dataclass
class ParsedGraph:
    """A parsed graph file; ``admg`` is None for a cluster-level file."""

    cdag: ClusterDag
    partition: Partition
    admg: Optional[Admg] = None


def parse_graph(text: str) -> ParsedGraph:
    node_lines: Dict[str, int] = {}          # bare node -> the line declaring it
    clusters: Dict[str, Tuple[str, ...]] = {}
    member_map: Dict[str, str] = {}          # member variable -> its cluster
    edges: List[Tuple[str, str, str, int]] = []

    def unambiguous(names, line_no):
        # cluster names and variable names must not meet
        if names:
            raise ParseError(line_no, "name(s) used as both cluster and variable: "
                                      f"{sorted(names)}")

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, line_no)
        if not tokens:
            continue
        head = tokens[0]
        if head == "node":
            if len(tokens) != 2:
                raise ParseError(line_no, "expected: node NAME")
            name = _name_of(tokens[1], line_no)
            unambiguous({name} & clusters.keys(), line_no)
            if name in node_lines:
                raise ParseError(line_no, f"node {name!r} is declared twice")
            node_lines[name] = line_no
        elif head == "cluster":
            if len(tokens) < 6 or tokens[2] != "=" or tokens[3] != "{" or tokens[-1] != "}":
                raise ParseError(line_no, "expected: cluster NAME = { NAME+ }")
            name = _name_of(tokens[1], line_no)
            if name in clusters:
                raise ParseError(line_no, f"cluster {name!r} is declared twice")
            clusters[name] = tuple(_name_of(t, line_no) for t in tokens[4:-1])
            for v in clusters[name]:
                if v in member_map:
                    where = (f"twice in cluster {name!r}" if member_map[v] == name
                             else "in two clusters")
                    raise ParseError(line_no, f"variable {v!r} appears {where}")
                member_map[v] = name
            unambiguous({name} & (node_lines.keys() | member_map.keys())
                        | clusters.keys() & set(clusters[name]), line_no)
        elif head == "edge":
            if len(tokens) != 4 or tokens[2] not in ("->", "<->"):
                raise ParseError(line_no, "expected: edge A -> B or edge A <-> B")
            a = _name_of(tokens[1], line_no)
            b = _name_of(tokens[3], line_no)
            edges.append((a, tokens[2], b, line_no))
        else:
            raise ParseError(line_no, f"unknown declaration {head!r}")

    def collect_edges(allowed, level):
        directed, bidirected, seen = [], [], set()
        for a, kind, b, line_no in edges:
            for end in (a, b):
                if end not in allowed:
                    raise ParseError(line_no, f"undeclared {level} {end!r}")
            if a == b:
                raise ParseError(line_no, f"self loop at {a!r}")
            key = (kind,) + (tuple(sorted((a, b))) if kind == "<->" else (a, b))
            if key in seen:
                raise ParseError(line_no, f"duplicate edge {a} {kind} {b}")
            seen.add(key)
            (bidirected if kind == "<->" else directed).append((a, b))
        return directed, bidirected

    # A file is variable-level exactly when some edge touches a cluster
    # member.  Otherwise it is a cluster DAG directly, whose bare nodes are
    # clusters, so none may be a member.  Either way the partition is the
    # declared clusters plus a singleton per bare node that is no member.
    endpoints = {end for a, _, b, _ in edges for end in (a, b)}
    cluster_level = endpoints.isdisjoint(member_map)
    if cluster_level:
        clash = node_lines.keys() & member_map.keys()
        if clash:
            unambiguous(clash, min(node_lines[n] for n in clash))
    bare = sorted(node_lines.keys() - member_map.keys())
    partition = Partition(list(clusters.items()) + [(v, (v,)) for v in bare])

    if cluster_level:
        names = partition.cluster_names
        directed, bidirected = collect_edges(set(names), "cluster")
        return ParsedGraph(ClusterDag(Admg(names, directed, bidirected)), partition)

    variables = node_lines.keys() | member_map.keys()
    directed, bidirected = collect_edges(variables, "variable")
    admg = Admg(sorted(variables), directed, bidirected)
    return ParsedGraph(build_cdag(admg, partition), partition, admg)


def render_graph_file(parsed: ParsedGraph) -> str:
    """Canonical text for a parsed graph; parsing it back is the identity."""
    graph = parsed.admg or parsed.cdag.graph
    blocks = parsed.partition.blocks
    lines = [f"cluster {_quote(name)} = {{ " + " ".join(_quote(v) for v in members) + " }"
             for name, members in blocks if members != (name,)]
    # a node line declares a variable (or a bare cluster) that is its own
    # singleton cluster; every other variable is declared by its cluster
    singletons = {name for name, members in blocks if members == (name,)}
    lines += [f"node {_quote(v)}" for v in graph.nodes if v in singletons]
    for t, h in sorted(graph.directed):
        lines.append(f"edge {_quote(t)} -> {_quote(h)}")
    for a, b in sorted(graph.bidirected):
        lines.append(f"edge {_quote(a)} <-> {_quote(b)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load(path: str) -> ParsedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _name_ints(flag: str, text: str, unit: str, known=None) -> Dict[str, int]:
    # the NAME=INT entries of --sizes (names in ``known``) and --at, each
    # checked for its ``=``, its name, a repeat and then its integer
    out: Dict[str, int] = {}
    for piece in text.split(","):
        name, eq, value = piece.partition("=")
        name = name.strip()
        if not eq:
            raise FormulaError(f"bad {flag} entry {piece!r}; expected NAME={unit}")
        if known is not None and name not in known:
            raise FormulaError(f"{flag} names {name!r}, which is not a cluster of the file")
        if name in out:
            raise FormulaError(f"{flag} names {name!r} twice")
        try:
            out[name] = int(value)
        except ValueError:
            raise FormulaError(f"{flag} {unit.lower()} for {name!r} must be an integer, "
                               f"got {value!r}") from None
    return out


def _parse_sizes(text: Optional[str], parsed: ParsedGraph) -> Dict[str, int]:
    sizes = {name: len(members) for name, members in parsed.partition.blocks}
    return sizes | (_name_ints("--sizes", text, "COUNT", sizes) if text else {})


def _expansion_spec(args, parsed: ParsedGraph) -> ExpansionSpec:
    # the sizes, policies and seed of sampler.expand, shared by expand and simulate
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    internal = (InternalPolicy("random", args.edge_density, args.bidirected_density)
                if args.policy == "random" else InternalPolicy(args.policy))
    cross = (CrossPolicy("random", args.cross_density) if args.cross == "random"
             else CrossPolicy(args.cross))
    return ExpansionSpec(sizes=_parse_sizes(args.sizes, parsed), internal=internal,
                         cross=cross, seed=args.seed)


def _cmd_check(args) -> int:
    try:
        parsed = _load(args.file)
    except InadmissibleError as err:
        print(f"inadmissible: cluster cycle "
              + " -> ".join(err.cycle + (err.cycle[0],)))
        return 1
    if args.cdag:
        against = _load(args.cdag)
        if parsed.admg is None:
            raise FormulaError("--cdag comparison needs a variable-level file")
        ok = is_compatible(parsed.admg, against.cdag, parsed.partition)
        print("compatible" if ok else "not compatible")
        return 0 if ok else 1
    graph = parsed.cdag.graph
    print(f"admissible: {len(graph.nodes)} clusters, "
          f"{len(graph.directed)} directed, {len(graph.bidirected)} bidirected edges")
    return 0


def _cmd_dsep(args) -> int:
    separated = cdag_d_separated(_load(args.file).cdag, args.x, args.y, args.z or ())
    print("separated" if separated else "connected")
    return 0 if separated else 1


def _cmd_docalc(args) -> int:
    parsed = _load(args.file)
    query = DoQuery(x=args.x or (), y=args.y, z=args.z, w=args.w or ())
    rule = {"1": rule1, "2": rule2, "3": rule3}[args.rule]
    verdict = rule(parsed.cdag, query)
    print(f"rule {args.rule} "
          + ("applies" if verdict.applies else "does not apply"))
    print(f"tested: {verdict.separation_tested}")
    if verdict.applies:
        print(f"grants: {verdict.equality_granted}")
    return 0 if verdict.applies else 1


def _cmd_identify(args) -> int:
    parsed = _load(args.file)
    result = identify(parsed.cdag, args.x, args.y)
    if isinstance(result, Identified):
        print(render(result.expr, args.format))
        return 0
    print("not identifiable")
    print(result.hedge.describe())
    return 1


def _cmd_expand(args) -> int:
    parsed = _load(args.file)
    graph, partition = expand(parsed.cdag, _expansion_spec(args, parsed))
    # expand guarantees the quotient of its result is the file's cluster DAG
    print(render_graph_file(ParsedGraph(parsed.cdag, partition, graph)), end="")
    return 0


def _cmd_eval(args) -> int:
    with open(args.formula, "r", encoding="utf-8") as fh:
        expr = parse_formula_json(fh.read())
    with open(args.table, "r", encoding="utf-8") as fh:
        table = JointTable.from_csv(fh.read())
    assignment = _name_ints("--at", args.at, "VALUE")
    print(repr(evaluate(expr, table, assignment)))
    return 0


def _effect(plan, table, x_vars, y_vars, lenient=False):
    # P(Y = 1...1 | do(X = 1...1)) - P(Y = 1...1 | do(X = 0...0))
    variables, arr = plan.run(table, zero_division="zero" if lenient else "raise")

    def at(x_value):
        assign = {v: x_value for v in x_vars} | {v: 1 for v in y_vars}
        return float(arr[tuple(assign[v] for v in variables)])

    return at(1) - at(0)


def _sample_sizes(text: str) -> List[int]:
    error = ValueError(f"--n needs comma-separated sample sizes of at least 1, "
                       f"got {text!r}")
    try:
        ns = [int(v) for v in text.split(",")] if text else []
    except ValueError:
        raise error from None
    if any(n < 1 for n in ns):
        raise error
    for i, n in enumerate(ns):
        if n in ns[:i]:
            raise ValueError(f"--n names {n} twice")
    return ns


def _cmd_simulate(args) -> int:
    ns = _sample_sizes(args.n)
    if args.diagrams < 1:
        raise ValueError(f"--diagrams must be at least 1, got {args.diagrams}")
    if args.datasets < 0:
        raise ValueError(f"--datasets must be at least 0, got {args.datasets}")
    parsed = _load(args.file)
    cdag = parsed.cdag
    spec = _expansion_spec(args, parsed)

    cluster_result = identify(cdag, args.x, args.y)
    cdag_expr = cluster_result.expr if isinstance(cluster_result, Identified) else None

    diagrams = sample_batch(cdag, spec, args.diagrams)
    id_flags = []
    diffs = {n: [] for n in ns}
    exact_diffs = []
    for index, (graph, partition) in enumerate(diagrams):
        try:
            var_x = sorted(partition.variables_of(args.x))
            var_y = sorted(partition.variables_of(args.y))
            result = identify(singleton_cdag(graph), var_x, var_y)
            id_flags.append(isinstance(result, Identified))
            if cdag_expr is None or not isinstance(result, Identified):
                continue
            cards = {v: 2 for v in graph.nodes}
            # random_cbn's tables grow with the diagram as well: check first
            _check_state_space(cards.values(), "joint_distribution")
            model = random_cbn(graph, cards, seed=_derive_seed(args.seed, index, 1))
            jobs = [(n, _derive_seed(args.seed, index, 2, n_index, rep))
                    for n_index, n in enumerate(ns) for rep in range(args.datasets)]
            # the datasets' uniforms are filled ahead while the exact work runs
            with draw_ahead(model, jobs):
                clusters = partition.to_cluster_map()
                exact = joint_distribution(model)
                # one plan per expression, run on the exact table and every dataset's
                plan_c = _Plan(cdag_expr, exact.variables, exact.cards, clusters)
                plan_g = _Plan(result.expr, exact.variables, exact.cards)
                effect_c = _effect(plan_c, exact, var_x, var_y)
                effect_g = _effect(plan_g, exact, var_x, var_y)
                exact_diffs.append(abs(effect_c - effect_g))
                for n, seed in jobs:
                    data = sample_dataset(model, n, seed=seed)
                    emp = empirical_table(graph.nodes, exact.cards, data)
                    eff_c = _effect(plan_c, emp, var_x, var_y, lenient=True)
                    eff_g = _effect(plan_g, emp, var_x, var_y, lenient=True)
                    diffs[n].append(abs(eff_c - eff_g))
        except StateSpaceCapError as err:    # one line still, naming the query
            query = f"diagram {index}, x={','.join(args.x)}, y={','.join(args.y)}"
            raise StateSpaceCapError(f"{err} ({query})") from None

    lines = ["metric,n,value,std_error"]
    for n in ns:
        values = np.array(diffs[n])
        if values.size:
            se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
            lines.append(f"effect_diff,{n},{float(values.mean())!r},{se!r}")
    if exact_diffs:
        lines.append(f"effect_diff_exact,,{float(max(exact_diffs))!r},")
    lines.append(f"identifiable_fraction,,{float(np.mean(id_flags))!r},")
    print("\n".join(lines))
    return 0


def _add_set_arg(parser, flag, help_text, required=False):
    parser.add_argument(flag, nargs="+", default=None, required=required,
                        metavar="NAME", help=help_text)


def _add_expansion_args(parser, cross_density):
    # the policies and seed of sampler.expand, shared by expand and simulate
    parser.add_argument("--policy", choices=["random", "chain", "full", "empty"],
                        default="random")
    parser.add_argument("--edge-density", type=float, default=0.5)
    parser.add_argument("--bidirected-density", type=float, default=0.3)
    parser.add_argument("--cross", choices=["minimal_witness", "random", "full"],
                        default="random")
    parser.add_argument("--cross-density", type=float, default=cross_density)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdag",
        description="causal effect identification over cluster DAGs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate admissibility or compatibility")
    p.add_argument("file")
    p.add_argument("--cdag", default=None,
                   help="cluster DAG file to test compatibility against")

    p = sub.add_parser("dsep", help="d-separation query")
    p.add_argument("file")
    _add_set_arg(p, "-x", "first set", required=True)
    _add_set_arg(p, "-y", "second set", required=True)
    _add_set_arg(p, "-z", "conditioning set")

    p = sub.add_parser("docalc", help="do-calculus rule applicability")
    p.add_argument("file")
    p.add_argument("--rule", choices=["1", "2", "3"], required=True)
    _add_set_arg(p, "-x", "intervened clusters")
    _add_set_arg(p, "-y", "target clusters", required=True)
    _add_set_arg(p, "-z", "candidate clusters", required=True)
    _add_set_arg(p, "-w", "context clusters")

    p = sub.add_parser("identify", help="identify P(y|do(x))")
    p.add_argument("file")
    _add_set_arg(p, "-x", "intervened clusters", required=True)
    _add_set_arg(p, "-y", "target clusters", required=True)
    p.add_argument("--format", choices=["text", "latex", "json"], default="text")

    p = sub.add_parser("expand", help="sample a compatible variable-level graph")
    p.add_argument("file")
    p.add_argument("--sizes", default=None, help="e.g. Z=10,X=1")
    _add_expansion_args(p, cross_density=0.5)

    p = sub.add_parser("eval", help="evaluate a formula on a joint table")
    p.add_argument("formula", help="formula JSON file")
    p.add_argument("table", help="joint table CSV file")
    p.add_argument("--at", required=True, help="e.g. x=0,y=1")

    p = sub.add_parser("simulate",
                       help="compare cluster-level and variable-level formulas "
                            "on sampled compatible models")
    p.add_argument("file")
    _add_set_arg(p, "-x", "intervened clusters", required=True)
    _add_set_arg(p, "-y", "target clusters", required=True)
    p.add_argument("--sizes", default=None)
    p.add_argument("--diagrams", type=int, default=20)
    p.add_argument("--datasets", type=int, default=20)
    p.add_argument("--n", default="5000,10000,50000")
    _add_expansion_args(p, cross_density=0.15)

    return parser


_main_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        # looked up per call, not bound into the cached parser, so a
        # rebound ``_cmd_*`` name takes effect
        return globals()[f"_cmd_{args.command}"](args)
    except (OSError, ValueError, MemoryError) as err:    # every cdag error is a ValueError
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

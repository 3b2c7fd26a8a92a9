"""Command-line surface: graph files, queries, and the simulation harness.

Graph file grammar (one declaration per line, ``#`` starts a comment)::

    node NAME
    cluster NAME = { NAME+ }
    edge A -> B
    edge A <-> B

Names are bare words (letters, digits, ``_ . -``) or double-quoted
strings.  A file whose edges connect member variables parses as a
variable-level graph plus a partition (undeclared variables become
singleton clusters); a file whose edges connect only cluster names and
bare nodes parses as a cluster DAG directly, with bare nodes as implicit
singleton clusters.

Exit codes: 0 success, 1 negative verdict (not identifiable, not
separated, rule does not apply, inadmissible), 2 usage error, 3 input
error.
"""

import argparse
import re
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .graphs import Admg, GraphError
from .cluster import (ClusterDag, InadmissibleError, Partition, PartitionError,
                      build_cdag, cdag_d_separated, is_compatible, singleton_cdag)
from .docalc import DoQuery, rule1, rule2, rule3
from .formula import (FormulaError, JointTable, evaluate, parse_formula_json,
                      render, tabulate)
from .identify import Identified, identify
from .oracle import (StateSpaceCapError, empirical_table, joint_distribution,
                     random_cbn, sample_dataset)
from .sampler import CrossPolicy, ExpansionSpec, InternalPolicy, expand, sample_batch


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


_BARE_NAME = re.compile(r"[A-Za-z0-9_.\-]+")


def _quote(name: str) -> str:
    if _BARE_NAME.fullmatch(name):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _tokenize(line: str, line_no: int) -> List[str]:
    tokens = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch.isspace() or ch == ",":
            i += 1
            continue
        if ch == "#":
            break
        if ch == '"':
            out = []
            i += 1
            while i < len(line) and line[i] != '"':
                if line[i] == "\\" and i + 1 < len(line):
                    i += 1
                out.append(line[i])
                i += 1
            if i >= len(line):
                raise ParseError(line_no, "unterminated quoted name")
            i += 1
            tokens.append('"' + "".join(out))
            continue
        if ch in "{}=":
            tokens.append(ch)
            i += 1
            continue
        m = re.match(r"->|<->|[A-Za-z0-9_.\-]+", line[i:])
        if not m:
            raise ParseError(line_no, f"unexpected character {ch!r}")
        tokens.append(m.group(0))
        i += len(m.group(0))
    return tokens


def _name_of(token: str, line_no: int) -> str:
    if token.startswith('"'):
        return token[1:]
    if not _BARE_NAME.fullmatch(token):
        raise ParseError(line_no, f"invalid name {token!r}")
    return token


@dataclass
class ParsedGraph:
    """Result of parsing a graph file: either a variable-level graph with
    its partition (and the induced cluster DAG), or a direct cluster DAG."""

    kind: str                      # "admg" or "cdag"
    cdag: ClusterDag
    admg: Optional[Admg] = None
    partition: Optional[Partition] = None
    member_hints: Optional[Dict[str, Tuple[str, ...]]] = None


def parse_graph(text: str) -> ParsedGraph:
    nodes: List[str] = []
    clusters: List[Tuple[str, Tuple[str, ...]]] = []
    edges: List[Tuple[str, str, str, int]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, line_no)
        if not tokens:
            continue
        head = tokens[0]
        if head == "node":
            if len(tokens) != 2:
                raise ParseError(line_no, "expected: node NAME")
            nodes.append(_name_of(tokens[1], line_no))
        elif head == "cluster":
            if len(tokens) < 6 or tokens[2] != "=" or tokens[3] != "{" or tokens[-1] != "}":
                raise ParseError(line_no, "expected: cluster NAME = { NAME+ }")
            name = _name_of(tokens[1], line_no)
            members = tuple(_name_of(t, line_no) for t in tokens[4:-1])
            if not members:
                raise ParseError(line_no, f"cluster {name!r} has no members")
            clusters.append((name, members))
        elif head == "edge":
            if len(tokens) != 4 or tokens[2] not in ("->", "<->"):
                raise ParseError(line_no, "expected: edge A -> B or edge A <-> B")
            a = _name_of(tokens[1], line_no)
            b = _name_of(tokens[3], line_no)
            edges.append((a, tokens[2], b, line_no))
        else:
            raise ParseError(line_no, f"unknown declaration {head!r}")

    node_set = set(nodes)
    cluster_set = {name for name, _ in clusters}
    member_map: Dict[str, str] = {}
    for name, members in clusters:
        for v in members:
            if v in member_map:
                raise ParseError(1, f"variable {v!r} appears in two clusters")
            member_map[v] = name
    ambiguous = cluster_set & (node_set | set(member_map))
    if ambiguous:
        raise ParseError(1, f"name(s) used as both cluster and variable: {sorted(ambiguous)}")

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
    # member; its partition is the declared clusters plus singletons.
    # Otherwise edges reference cluster names and bare nodes (implicit
    # singleton clusters) and the file is a cluster DAG directly.
    endpoints = {end for a, _, b, _ in edges for end in (a, b)}
    cluster_level = not (endpoints & set(member_map))

    if cluster_level:
        names = sorted(cluster_set | node_set)
        directed, bidirected = collect_edges(set(names), "cluster")
        graph = Admg(names, directed, bidirected)
        hints = {name: members for name, members in clusters}
        for n in sorted(node_set):
            hints.setdefault(n, (n,))
        return ParsedGraph(kind="cdag", cdag=ClusterDag(graph), member_hints=hints)

    variables = node_set | set(member_map)
    directed, bidirected = collect_edges(variables, "variable")
    admg = Admg(sorted(variables), directed, bidirected)
    blocks = list(clusters) + [(v, (v,)) for v in sorted(variables - set(member_map))]
    partition = Partition(blocks)
    cdag = build_cdag(admg, partition)
    return ParsedGraph(kind="admg", cdag=cdag, admg=admg, partition=partition,
                       member_hints=partition.to_cluster_map())


def render_graph_file(parsed: ParsedGraph) -> str:
    """Canonical text for a parsed graph; parsing it back is the identity."""
    lines = []
    if parsed.kind == "admg":
        graph = parsed.admg
        singles = {name for name, mem in parsed.partition.blocks
                   if mem == (name,)}
        for name, members in parsed.partition.blocks:
            if name not in singles:
                lines.append(f"cluster {_quote(name)} = {{ "
                             + " ".join(_quote(v) for v in members) + " }")
    else:
        graph = parsed.cdag.graph
        hints = parsed.member_hints or {}
        for name in graph.nodes:
            members = hints.get(name, (name,))
            if members != (name,):
                lines.append(f"cluster {_quote(name)} = {{ "
                             + " ".join(_quote(v) for v in members) + " }")
    for v in graph.nodes:
        if parsed.kind == "cdag" and (parsed.member_hints or {}).get(v, (v,)) != (v,):
            continue
        if parsed.kind == "admg" and parsed.partition.cluster_of(v) != v:
            continue
        lines.append(f"node {_quote(v)}")
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


def _parse_sizes(text: Optional[str], parsed: ParsedGraph) -> Dict[str, int]:
    sizes = {}
    hints = parsed.member_hints or {}
    for name in parsed.cdag.graph.nodes:
        sizes[name] = len(hints.get(name, (name,)))
    if text:
        for piece in text.split(","):
            if "=" not in piece:
                raise FormulaError(f"bad --sizes entry {piece!r}; expected NAME=COUNT")
            name, count = piece.split("=", 1)
            sizes[name.strip()] = int(count)
    return sizes


def _internal_policy(args) -> InternalPolicy:
    if args.policy == "random":
        return InternalPolicy("random", args.edge_density, args.bidirected_density)
    return InternalPolicy(args.policy)


def _cross_policy(args) -> CrossPolicy:
    if args.cross == "random":
        return CrossPolicy("random", args.cross_density)
    return CrossPolicy(args.cross)


def _cmd_check(args) -> int:
    try:
        parsed = _load(args.file)
    except InadmissibleError as err:
        print(f"inadmissible: cluster cycle "
              + " -> ".join(err.cycle + (err.cycle[0],)))
        return 1
    if args.cdag:
        against = _load(args.cdag)
        if parsed.kind != "admg":
            raise FormulaError("--cdag comparison needs a variable-level file")
        ok = is_compatible(parsed.admg, against.cdag, parsed.partition)
        print("compatible" if ok else "not compatible")
        return 0 if ok else 1
    graph = parsed.cdag.graph
    print(f"admissible: {len(graph.nodes)} clusters, "
          f"{len(graph.directed)} directed, {len(graph.bidirected)} bidirected edges")
    return 0


def _cmd_dsep(args) -> int:
    parsed = _load(args.file)
    if parsed.kind == "admg":
        separated = parsed.admg.m_separated(args.x, args.y, args.z or ())
    else:
        separated = cdag_d_separated(parsed.cdag, args.x, args.y, args.z or ())
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
    sizes = _parse_sizes(args.sizes, parsed)
    spec = ExpansionSpec(sizes=sizes, internal=_internal_policy(args),
                         cross=_cross_policy(args), seed=args.seed)
    graph, partition = expand(parsed.cdag, spec)
    print(render_graph_file(ParsedGraph(kind="admg", cdag=build_cdag(graph, partition),
                                        admg=graph, partition=partition)), end="")
    return 0


def _cmd_eval(args) -> int:
    with open(args.formula, "r", encoding="utf-8") as fh:
        expr = parse_formula_json(fh.read())
    with open(args.table, "r", encoding="utf-8") as fh:
        table = JointTable.from_csv(fh.read())
    assignment = {}
    for piece in args.at.split(","):
        if "=" not in piece:
            raise FormulaError(f"bad --at entry {piece!r}; expected NAME=VALUE")
        name, value = piece.split("=", 1)
        assignment[name.strip()] = int(value)
    print(repr(evaluate(expr, table, assignment)))
    return 0


def _effect(expr, table, x_vars, y_vars, clusters, lenient=False):
    # P(Y = 1...1 | do(X = 1...1)) - P(Y = 1...1 | do(X = 0...0))
    mode = "zero" if lenient else "raise"
    variables, arr = tabulate(expr, table, clusters, zero_division=mode)

    def at(x_value):
        assign = {v: x_value for v in x_vars} | {v: 1 for v in y_vars}
        if not variables:
            return float(arr)
        return float(arr[tuple(assign[v] for v in variables)])

    return at(1) - at(0)


def _derive(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key)
               .generate_state(1, np.uint64)[0])


def _sample_sizes(text: str) -> List[int]:
    error = ValueError(f"--n needs comma-separated sample sizes of at least 1, "
                       f"got {text!r}")
    try:
        ns = [int(v) for v in text.split(",")] if text else []
    except ValueError:
        raise error from None
    if any(n < 1 for n in ns):
        raise error
    return ns


def _cmd_simulate(args) -> int:
    ns = _sample_sizes(args.n)
    if args.diagrams < 1:
        raise ValueError(f"--diagrams must be at least 1, got {args.diagrams}")
    if args.datasets < 0:
        raise ValueError(f"--datasets must be at least 0, got {args.datasets}")
    parsed = _load(args.file)
    cdag = parsed.cdag
    sizes = _parse_sizes(args.sizes, parsed)
    spec = ExpansionSpec(sizes=sizes, internal=_internal_policy(args),
                         cross=_cross_policy(args), seed=args.seed)

    cluster_result = identify(cdag, args.x, args.y)
    cdag_expr = cluster_result.expr if isinstance(cluster_result, Identified) else None

    diagrams = sample_batch(cdag, spec, args.diagrams)
    id_flags = []
    diffs = {n: [] for n in ns}
    exact_diffs = []
    for index, (graph, partition) in enumerate(diagrams):
        var_x = sorted(partition.variables_of(args.x))
        var_y = sorted(partition.variables_of(args.y))
        result = identify(singleton_cdag(graph), var_x, var_y)
        id_flags.append(isinstance(result, Identified))
        if cdag_expr is None or not isinstance(result, Identified):
            continue
        cards = {v: 2 for v in graph.nodes}
        model = random_cbn(graph, cards, seed=_derive(args.seed, index, 1))
        clusters = partition.to_cluster_map()
        exact = joint_distribution(model)
        effect_c = _effect(cdag_expr, exact, var_x, var_y, clusters)
        effect_g = _effect(result.expr, exact, var_x, var_y, None)
        exact_diffs.append(abs(effect_c - effect_g))
        for n_index, n in enumerate(ns):
            for rep in range(args.datasets):
                data = sample_dataset(model, n,
                                      seed=_derive(args.seed, index, 2, n_index, rep))
                emp = empirical_table(graph.nodes, [2] * len(graph.nodes), data)
                eff_c = _effect(cdag_expr, emp, var_x, var_y, clusters, lenient=True)
                eff_g = _effect(result.expr, emp, var_x, var_y, None, lenient=True)
                diffs[n].append(abs(eff_c - eff_g))

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdag",
        description="causal effect identification over cluster DAGs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate admissibility or compatibility")
    p.add_argument("file")
    p.add_argument("--cdag", default=None,
                   help="cluster DAG file to test compatibility against")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dsep", help="d-separation query")
    p.add_argument("file")
    _add_set_arg(p, "-x", "first set", required=True)
    _add_set_arg(p, "-y", "second set", required=True)
    _add_set_arg(p, "-z", "conditioning set")
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("docalc", help="do-calculus rule applicability")
    p.add_argument("file")
    p.add_argument("--rule", choices=["1", "2", "3"], required=True)
    _add_set_arg(p, "-x", "intervened clusters")
    _add_set_arg(p, "-y", "target clusters", required=True)
    _add_set_arg(p, "-z", "candidate clusters", required=True)
    _add_set_arg(p, "-w", "context clusters")
    p.set_defaults(func=_cmd_docalc)

    p = sub.add_parser("identify", help="identify P(y|do(x))")
    p.add_argument("file")
    _add_set_arg(p, "-x", "intervened clusters", required=True)
    _add_set_arg(p, "-y", "target clusters", required=True)
    p.add_argument("--format", choices=["text", "latex", "json"], default="text")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("expand", help="sample a compatible variable-level graph")
    p.add_argument("file")
    p.add_argument("--sizes", default=None, help="e.g. Z=10,X=1")
    p.add_argument("--policy", choices=["random", "chain", "full", "empty"],
                   default="random")
    p.add_argument("--edge-density", type=float, default=0.5)
    p.add_argument("--bidirected-density", type=float, default=0.3)
    p.add_argument("--cross", choices=["minimal_witness", "random", "full"],
                   default="random")
    p.add_argument("--cross-density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("eval", help="evaluate a formula on a joint table")
    p.add_argument("formula", help="formula JSON file")
    p.add_argument("table", help="joint table CSV file")
    p.add_argument("--at", required=True, help="e.g. x=0,y=1")
    p.set_defaults(func=_cmd_eval)

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
    p.add_argument("--policy", choices=["random", "chain", "full", "empty"],
                   default="random")
    p.add_argument("--edge-density", type=float, default=0.5)
    p.add_argument("--bidirected-density", type=float, default=0.3)
    p.add_argument("--cross", choices=["minimal_witness", "random", "full"],
                   default="random")
    p.add_argument("--cross-density", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, GraphError, PartitionError, FormulaError,
            StateSpaceCapError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

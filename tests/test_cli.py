import itertools
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from cdag import CondProb, JointTable, random_cbn, joint_distribution, render
from cdag import Partition, cli, oracle
from cdag.oracle import StateSpaceCapError
from cdag.cli import ParseError, main, parse_graph, render_graph_file

from oracles import to_csv
from randutil import rng_for

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRAPHS = os.path.join(ROOT, "graphs")


def path(name):
    return os.path.join(GRAPHS, name)


# -- parsing -------------------------------------------------------------

def test_parse_cluster_level_file():
    parsed = parse_graph(open(path("frontdoor.cdag")).read())
    assert parsed.admg is None
    g = parsed.cdag.graph
    assert g.nodes == ("S", "X", "Y", "Z")
    assert ("Z", "X") in g.directed
    assert ("X", "Z") in g.bidirected
    assert parsed.partition.members("Z") == ("A", "B", "C", "D")


def test_parse_variable_level_file():
    parsed = parse_graph(open(path("med.admg")).read())
    assert len(parsed.admg.nodes) == 7
    assert parsed.partition.members("Z") == ("A", "B", "C", "D")
    assert parsed.cdag.graph.directed == {("Z", "X"), ("Z", "Y"), ("X", "S"),
                                          ("S", "Y")}


def test_parse_self_loop():
    with pytest.raises(ParseError, match="self loop"):
        parse_graph("node X\nnode Y\nedge X -> X\n")


def test_parse_duplicate_edge():
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph("node X\nnode Y\nedge X -> Y\nedge X -> Y\n")


def test_parse_undeclared_name():
    with pytest.raises(ParseError, match="undeclared"):
        parse_graph("node X\nedge X -> Q\n")


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("node X\nnode Y\nedge X -> -> Y\n")


# Tokens, or the error, of lines that test the tokenizer's edges: escapes,
# comments, unspaced arrows and braces, commas and Unicode whitespace.
TOKENIZED = [
    ('edge A -> B', ['edge', 'A', '->', 'B']),
    ('edge A->B', ['edge', 'A', '->', 'B']),    # a name ends before '->'
    ('edge A<->B', ['edge', 'A', '<->', 'B']),
    ('edge "A"->"B"', ['edge', '"A', '->', '"B']),
    ('edge A <- B', "line 7: unexpected character '<'"),
    ('edge ->->', ['edge', '->', '->']),
    ('cluster Z = {A, B,C}', ['cluster', 'Z', '=', '{', 'A', 'B', 'C', '}']),
    ('cluster Z={A B}', ['cluster', 'Z', '=', '{', 'A', 'B', '}']),
    ('node A# comment', ['node', 'A']),
    ('node "A#B" # comment', ['node', '"A#B']),
    ('node "say \\"hi\\""', ['node', '"say "hi"']),
    ('node "back\\\\slash"', ['node', '"back\\slash']),
    ('node "a\\b"', ['node', '"ab']),
    ('node ""', ['node', '"']),
    ('node "x"y"z"', ['node', '"x', 'y', '"z']),
    ('node "open', "line 7: unterminated quoted name"),
    ('node "ends in escape\\"', "line 7: unterminated quoted name"),
    ('node "trailing backslash\\', "line 7: unterminated quoted name"),
    ('node A\xa0B', ['node', 'A', 'B']),
    ('node A', ['node', 'A']),
    ('node\tA\x0b,B\x1c', ['node', 'A', 'B']),
    ('node $A', "line 7: unexpected character '$'"),
    ('node é', "line 7: unexpected character 'é'"),
    ('node A-B.c_9', ['node', 'A-B.c_9']),
    ('   # only a comment', []),
    ('', []),
    ('edge A-->B', ['edge', 'A-', '->', 'B']),
]


@pytest.mark.parametrize("line, want", TOKENIZED)
def test_tokenizer_pins(line, want):
    try:
        got = cli._tokenize(line, 7)
    except ParseError as err:
        got = str(err)
    assert got == want


def test_parse_quoted_names_round_trip():
    text = 'node "weird name"\nnode Y\nedge "weird name" -> Y\n'
    parsed = parse_graph(text)
    assert "weird name" in parsed.cdag.graph.nodes
    assert parse_graph(render_graph_file(parsed)) == parsed


def test_round_trip_all_sample_files():
    for name in sorted(os.listdir(GRAPHS)):
        parsed = parse_graph(open(path(name)).read())
        assert parse_graph(render_graph_file(parsed)) == parsed, name


def random_graph_file(rng):
    """Text of a random graph file, its partition's blocks and its level.

    Clusters of 1-3 members and bare nodes take a random order; directed
    edges follow it (inside a cluster, the order members are listed in),
    so the quotient is acyclic.  Names are bare or need quoting;
    declarations are shuffled, and a variable-level file may repeat a
    member in a ``node`` line.
    """
    fresh = iter(range(10 ** 6))

    def name():
        k = next(fresh)
        return [f"v{k}", f"v {k}", f'q"{k}\\', f"é{k}"][int(rng.integers(4))]

    clusters = [(name(), [name() for _ in range(int(rng.integers(1, 4)))])
                for _ in range(int(rng.integers(0, 4)))]
    bare = [name() for _ in range(int(rng.integers(1, 4)))]
    units = clusters + [(v, [v]) for v in bare]
    rng.shuffle(units)
    variable_level = bool(clusters) and rng.random() < 0.5
    ends = ([v for _, members in units for v in members] if variable_level
            else [c for c, _ in units])
    quoted = cli._quote
    lines = [f"cluster {quoted(c)} = {{ {' '.join(map(quoted, m))} }}" for c, m in clusters]
    lines += [f"node {quoted(v)}" for v in bare]
    if variable_level and rng.random() < 0.3:
        lines.append(f"node {quoted(clusters[0][1][0])}")
    pairs = list(itertools.combinations(ends, 2))
    picked = set(rng.permutation(len(pairs))[:int(rng.integers(0, 6))].tolist())
    if variable_level:    # some edge touches a member
        picked.add(next(i for i, pair in enumerate(pairs) if clusters[0][1][0] in pair))
    for i in sorted(picked):
        a, b = pairs[i]
        lines.append(f"edge {quoted(a)} {'<->' if rng.random() < 0.3 else '->'} {quoted(b)}")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n", [(c, tuple(m)) for c, m in units], variable_level


def test_round_trip_random_graph_files():
    rng = rng_for(271)
    levels = {True: 0, False: 0}
    for _ in range(500):
        text, blocks, variable_level = random_graph_file(rng)
        parsed = parse_graph(text)
        assert parse_graph(render_graph_file(parsed)) == parsed, text
        assert parsed.partition == Partition(blocks), text
        assert parsed.partition.cluster_names == parsed.cdag.graph.nodes, text
        assert cli._parse_sizes(None, parsed) == {c: len(m) for c, m in blocks}, text
        assert (parsed.admg is not None) == variable_level, text
        levels[variable_level] += 1
    assert min(levels.values()) >= 100, levels


def test_parse_inadmissible_partition_forwarded():
    text = ("node X\nnode Y\ncluster W = { B S }\ncluster Z = { A C D }\n"
            "edge D -> X\nedge X -> S\nedge S -> Y\nedge B -> C\nedge C -> Y\n"
            "edge A -> Y\nedge A -> C\nedge X <-> B\nedge C <-> Y\nedge D <-> C\n")
    from cdag import InadmissibleError
    with pytest.raises(InadmissibleError):
        parse_graph(text)


# -- subcommands ----------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(capsys):
    code, out, _ = run_cli(capsys, "check", path("med.admg"))
    assert code == 0
    assert "admissible" in out


def test_check_compatible(capsys):
    code, out, _ = run_cli(capsys, "check", path("med.admg"),
                           "--cdag", path("frontdoor.cdag"))
    assert code == 0
    assert out.strip() == "compatible"


def test_check_incompatible(capsys, tmp_path):
    wrong = tmp_path / "wrong.cdag"
    wrong.write_text("cluster Z = { A B C D }\nnode S\nnode X\nnode Y\n"
                     "edge Z -> X\nedge Z -> Y\nedge X -> S\nedge S -> Y\n")
    code, out, _ = run_cli(capsys, "check", path("med.admg"),
                           "--cdag", str(wrong))
    assert code == 1
    assert out.strip() == "not compatible"


def test_check_mismatched_clusters_is_input_error(capsys):
    code, _, err = run_cli(capsys, "check", path("med.admg"),
                           "--cdag", path("backdoor.cdag"))
    assert code == 3
    assert "error" in err


def test_dsep_collider_exit_codes(capsys, tmp_path):
    f = tmp_path / "collider.cdag"
    f.write_text("node X\nnode Y\nnode Z\nedge X -> Z\nedge Y -> Z\n")
    code, out, _ = run_cli(capsys, "dsep", str(f), "-x", "X", "-y", "Y")
    assert code == 0 and out.strip() == "separated"
    code, out, _ = run_cli(capsys, "dsep", str(f), "-x", "X", "-y", "Y", "-z", "Z")
    assert code == 1 and out.strip() == "connected"


def test_docalc_rule2(capsys):
    code, out, _ = run_cli(capsys, "docalc", path("backdoor.cdag"), "--rule", "2",
                           "-z", "X", "-y", "Y", "-w", "Z")
    assert code == 0
    assert "rule 2 applies" in out
    assert "P(y | do(x), z) = P(y | x, z)" in out


def test_docalc_rule_fails(capsys):
    code, out, _ = run_cli(capsys, "docalc", path("confounded.cdag"), "--rule", "2",
                           "-z", "X", "-y", "Y", "-w", "Z")
    assert code == 1
    assert "does not apply" in out


def test_identify_frontdoor(capsys):
    code, out, _ = run_cli(capsys, "identify", path("frontdoor.cdag"),
                           "-x", "X", "-y", "Y")
    assert code == 0
    assert out.strip() == "Σ_{s,z} P(s|x,z) Σ_{x'} P(z) P(x'|z) P(y|s,x',z)"


def test_identify_json_format(capsys):
    code, out, _ = run_cli(capsys, "identify", path("backdoor.cdag"),
                           "-x", "X", "-y", "Y", "--format", "json")
    assert code == 0
    assert json.loads(out)["kind"] == "sum"


def test_identify_hedge(capsys):
    code, out, _ = run_cli(capsys, "identify", path("confounded.cdag"),
                           "-x", "X", "-y", "Y")
    assert code == 1
    assert "not identifiable" in out
    assert "root set" in out


def test_identify_unknown_cluster(capsys):
    code, _, err = run_cli(capsys, "identify", path("backdoor.cdag"),
                           "-x", "Q", "-y", "Y")
    assert code == 3
    assert "error" in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "identify", "no-such-file", "-x", "X", "-y", "Y")
    assert code == 3


def test_expand_output_reparses(capsys):
    code, out, _ = run_cli(capsys, "expand", path("backdoor.cdag"),
                           "--sizes", "Z=3", "--seed", "4")
    assert code == 0
    parsed = parse_graph(out)
    assert parsed.admg is not None
    assert parsed.partition.members("Z") == ("Z_1", "Z_2", "Z_3")


# Captured before the graph writer's admg and cdag branches were merged.
GOLDEN_EXPAND_MED = """\
cluster Z = { Z_1 Z_2 Z_3 Z_4 }
node S
node X
node Y
edge S -> Y
edge X -> S
edge Z_1 -> X
edge Z_1 -> Y
edge Z_1 -> Z_4
edge Z_2 -> X
edge Z_2 -> Y
edge Z_2 -> Z_3
edge Z_3 -> X
edge Z_3 -> Y
edge Z_4 -> Y
edge X <-> Z_1
edge X <-> Z_2
edge X <-> Z_3
edge Y <-> Z_1
edge Y <-> Z_2
edge Y <-> Z_4
edge Z_3 <-> Z_4
"""


def test_expand_golden_bytes(capsys):
    assert run_cli(capsys, "expand", path("med.admg"), "--sizes", "Z=4",
                   "--seed", "3") == (0, GOLDEN_EXPAND_MED, "")


def test_renamed_singleton_cluster_golden_bytes(capsys, tmp_path):
    # A cluster-level file whose singleton cluster C is not named after
    # its member X: the file keeps the cluster line, an expansion does not.
    text = ("cluster C = { X }\ncluster W = { A B }\nnode Y\n"
            "edge C -> Y\nedge W -> C\nedge W <-> Y\n")
    assert render_graph_file(parse_graph(text)) == text
    f = tmp_path / "renamed.cdag"
    f.write_text(text)
    assert run_cli(capsys, "expand", str(f), "--seed", "1") == (0, (
        "cluster W = { W_1 W_2 }\nnode C\nnode Y\nedge C -> Y\nedge W_1 -> C\n"
        "edge W_2 -> C\nedge W_1 <-> W_2\nedge W_1 <-> Y\nedge W_2 <-> Y\n"), "")


def test_dsep_answers_at_cluster_level_on_a_variable_level_file(capsys):
    # as every command does: clusters name the sets, and member names are unknown
    code, out, _ = run_cli(capsys, "dsep", path("med.admg"), "-x", "Z", "-y", "S", "-z", "X")
    assert (code, out) == (0, "separated\n")
    code, out, _ = run_cli(capsys, "dsep", path("med.admg"), "-x", "Z", "-y", "Y")
    assert (code, out) == (1, "connected\n")
    code, out, err = run_cli(capsys, "dsep", path("med.admg"), "-x", "A", "-y", "Y")
    assert (code, out, err) == (3, "", "error: unknown node(s): ['A']\n")


PRIMED = """node X
node "Y'"
node Y
edge X -> Y
edge X -> "Y'"
edge "Y'" -> Y
"""


@pytest.mark.parametrize("text, argv, message", [
    (PRIMED, ["simulate", "-x", "X", "-y", "Y'", "--diagrams", "2", "--datasets", "1",
              "--n", "100"], "line 2: name \"Y'\" must not end in a prime"),
    ("cluster Z = { A B }\ncluster Z = { C D E }\nnode X\nedge Z -> X\n", ["check"],
     "line 2: cluster 'Z' is declared twice"),
    ("cluster Z = { A B }\ncluster Z = { C D E }\nnode X\nedge A -> X\n", ["check"],
     "line 2: cluster 'Z' is declared twice"),
], ids=["primed_name", "cluster_twice", "cluster_twice_variable_level"])
def test_graph_file_that_formulas_misread_is_input_error(capsys, tmp_path, text, argv,
                                                          message):
    f = tmp_path / "g.admg"
    f.write_text(text)
    code, out, err = run_cli(capsys, argv[0], str(f), *argv[1:])
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_eval_rejects_a_primed_column(capsys, tmp_path):
    # P(Y=1 | X=1) is .8 and P(Y'=1 | X=1) is .36: a primed column would
    # be read through its base name
    formula_file = tmp_path / "f.json"
    formula_file.write_text(render(CondProb(["Y'"], ["X"]), "json"))
    table_file = tmp_path / "t.csv"
    table_file.write_text("X,Y,Y',p\n0,0,0,.05\n0,0,1,.1\n0,1,0,.15\n0,1,1,.2\n"
                          "1,0,0,.02\n1,0,1,.08\n1,1,0,.3\n1,1,1,.1\n")
    code, out, err = run_cli(capsys, "eval", str(formula_file), str(table_file),
                             "--at", "X=1,Y=1")
    assert (code, out, err) == (3, "", "error: CSV column \"Y'\" must not end in a prime\n")


INADMISSIBLE = "cluster A = { a1 a2 }\nnode b1\nedge a1 -> b1\nedge b1 -> a2\n"


@pytest.mark.parametrize("text, argv, code, line", [
    ("node A B\n", ["check"], 3, "line 1: expected: node NAME"),
    ("cluster Z = A\n", ["check"], 3, "line 1: expected: cluster NAME = { NAME+ }"),
    ("foo X\n", ["check"], 3, "line 1: unknown declaration 'foo'"),
    ("node =\n", ["check"], 3, "line 1: invalid name '='"),
    ("cluster A = { a }\ncluster B = { a b }\n", ["check"], 3,
     "line 2: variable 'a' appears in two clusters"),
    ("node b\ncluster A = { a a }\n", ["check"], 3,
     "line 2: variable 'a' appears twice in cluster 'A'"),
    ("cluster A = { a b }\nnode A\n", ["check"], 3,
     "line 2: name(s) used as both cluster and variable: ['A']"),
    ("node A\nnode C\ncluster Z = { A B }\nedge Z -> C\n", ["check"], 3,
     "line 1: name(s) used as both cluster and variable: ['A']"),
    ("node A\nnode C\ncluster Z = { A B }\nedge A -> C\n", ["check"], 0,
     "admissible: 2 clusters, 1 directed, 0 bidirected edges"),
    (INADMISSIBLE, ["check"], 1, "inadmissible: cluster cycle A -> b1 -> A"),
    (None, ["check", "--cdag", path("frontdoor.cdag")], 3,
     "--cdag comparison needs a variable-level file"),
    (None, ["expand", "--sizes", "Z"], 3, "bad --sizes entry 'Z'; expected NAME=COUNT"),
    (None, ["expand", "--sizes", "Z=0"], 3, "size for cluster 'Z' must be >= 1"),
    (None, ["expand", "--cross-density", "2"], 3, "density 2.0 outside [0, 1]"),
    (None, ["eval", "--at", "X"], 3, "bad --at entry 'X'; expected NAME=VALUE"),
    (None, ["eval", "--at", "X=x"], 3, "--at value for 'X' must be an integer, got 'x'"),
    ("node X\nnode X\nnode Y\nedge X -> Y\n", ["check"], 3,
     "line 2: node 'X' is declared twice"),
    ("node A\nnode C\nnode A\ncluster Z = { A B }\nedge A -> C\n", ["check"], 3,
     "line 3: node 'A' is declared twice"),
    (None, ["expand", "--sizes", "Q=1,Z"], 3,
     "--sizes names 'Q', which is not a cluster of the file"),
    (None, ["eval", "--at", "X=1,X=0"], 3, "--at names 'X' twice"),
    (None, ["eval", "--at", ""], 3, "bad --at entry ''; expected NAME=VALUE"),
    ("X,Y,q\n0,0,1\n", ["eval", "--at", "X=0,Y=0"], 3,
     "last CSV column must be the probability column 'p'"),
    ("X,Y,p\n0,0\n", ["eval", "--at", "X=0,Y=0"], 3, "bad CSV row: '0,0'"),
    ("X,Y,p\n0,0,.25\n0,0,.25\n1,0,.25\n1,1,.25\n", ["eval", "--at", "X=0,Y=0"], 3,
     "CSV must enumerate every joint state exactly once"),
], ids=["node_arity", "cluster_braces", "unknown_declaration", "invalid_name",
        "two_clusters", "twice_in_one_cluster", "cluster_and_variable",
        "bare_node_and_member", "member_node_variable_level", "inadmissible",
        "cdag_on_cluster_level", "sizes_without_count", "sizes_zero", "cross_density",
        "at_without_value", "at_not_a_number", "node_twice", "node_twice_variable_level",
        "sizes_first_error", "at_twice", "at_empty", "csv_without_p", "csv_short_row",
        "csv_repeated_state"])
def test_input_branches_end_with_one_line(capsys, tmp_path, text, argv, code, line):
    # eval reads a formula and a table, ``text`` if given; the rest read
    # ``text``, or frontdoor.cdag
    if argv[0] == "eval":
        files = [tmp_path / "f.json", tmp_path / "t.csv"]
        files[0].write_text(render(CondProb(["Y"], ["X"]), "json"))
        files[1].write_text(text or to_csv(JointTable(("X", "Y"), np.full((2, 2), 0.25))))
    elif text is None:
        files = [path("frontdoor.cdag")]
    else:
        files = [tmp_path / "g.admg"]
        files[0].write_text(text)
    got, out, err = run_cli(capsys, argv[0], *map(str, files), *argv[1:])
    if code == 3:
        assert (got, out, err) == (3, "", f"error: {line}\n")
    else:
        assert (got, out, err) == (code, f"{line}\n", "")


def test_every_error_class_is_a_value_error():
    # main answers each public one with exit 3 through its ValueError clause;
    # identify's private _HedgeFound never leaves it
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cdag"]
    errors = [obj for module in modules for name, obj in vars(module).items()
              if isinstance(obj, type) and issubclass(obj, Exception) and name[0] != "_"]
    assert {e.__name__ for e in errors} >= {
        "CycleError", "FormulaError", "GraphError", "InadmissibleError", "ParseError",
        "PartitionError", "StateSpaceCapError", "UnknownNodeError", "UnknownVariableError",
        "ZeroConditioningMass"}
    assert all(issubclass(e, ValueError) for e in errors)


@pytest.mark.parametrize("command", ["expand", "simulate"])
@pytest.mark.parametrize("sizes, message", [
    ("Nope=3", "--sizes names 'Nope', which is not a cluster of the file"),
    ("Z=abc", "--sizes count for 'Z' must be an integer, got 'abc'"),
    ("Z=2.5", "--sizes count for 'Z' must be an integer, got '2.5'"),
    ("Z=3,Z=4", "--sizes names 'Z' twice"),
], ids=["unknown_name", "not_a_number", "fraction", "repeated"])
def test_bad_sizes_is_input_error(capsys, command, sizes, message):
    query = ["-x", "X", "-y", "Y", "--diagrams", "1", "--datasets", "0"] \
        if command == "simulate" else []
    code, out, err = run_cli(capsys, command, path("backdoor.cdag"), *query,
                             "--sizes", sizes)
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["expand", "simulate"])
def test_negative_seed_is_input_error(capsys, command):
    query = ["-x", "X", "-y", "Y"] if command == "simulate" else []
    code, out, err = run_cli(capsys, command, path("backdoor.cdag"), *query, "--seed", "-1")
    assert (code, out) == (3, "")
    assert err == "error: --seed must be a non-negative integer, got -1\n"


def test_expand_deterministic(capsys):
    a = run_cli(capsys, "expand", path("confounded.cdag"), "--sizes", "Z=4",
                "--seed", "9")
    b = run_cli(capsys, "expand", path("confounded.cdag"), "--sizes", "Z=4",
                "--seed", "9")
    assert a == b


def test_eval_command(capsys, tmp_path):
    from cdag import Admg, identify, singleton_cdag, render
    g = Admg(["X", "Y", "Z"], [("Z", "X"), ("Z", "Y"), ("X", "Y")])
    expr = identify(singleton_cdag(g), ["X"], ["Y"]).expr
    m = random_cbn(g, {v: 2 for v in g.nodes}, seed=61)
    table = joint_distribution(m)
    formula_file = tmp_path / "f.json"
    formula_file.write_text(render(expr, "json"))
    table_file = tmp_path / "t.csv"
    table_file.write_text(to_csv(table))
    code, out, _ = run_cli(capsys, "eval", str(formula_file), str(table_file),
                           "--at", "X=1,Y=1")
    assert code == 0
    from cdag import evaluate, interventional_distribution
    want = interventional_distribution(m, {"X": 1}).prob_of({"Y": 1})
    assert float(out.strip()) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("at", ["X=5,Y=1", "X=-1,Y=1", "X=1,X=0,Y=1"])
def test_eval_rejects_bad_assignment(capsys, tmp_path, at):
    formula_file = tmp_path / "f.json"
    formula_file.write_text(render(CondProb(["Y"], ["X"]), "json"))
    table_file = tmp_path / "t.csv"
    table_file.write_text(to_csv(JointTable(("X", "Y"), np.full((2, 2), 0.25))))
    code, out, err = run_cli(capsys, "eval", str(formula_file), str(table_file),
                             "--at", at)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("table, message", [
    ("X,p\n1,0.0\n-1,1.0\n", "negative state in CSV row: '-1,1.0'"),
    ("", "CSV is empty; expected a header ending in 'p'"),
    ("X,p\n", "CSV has a header but no rows"),
    ("X,p\n0,nan\n1,1.0\n", "probabilities sum to nan, not 1"),
], ids=["negative_state", "empty", "header_only", "nan"])
def test_eval_rejects_bad_table(capsys, tmp_path, table, message):
    formula_file = tmp_path / "f.json"
    formula_file.write_text(render(CondProb(["X"]), "json"))
    table_file = tmp_path / "t.csv"
    table_file.write_text(table)
    code, out, err = run_cli(capsys, "eval", str(formula_file), str(table_file),
                             "--at", "X=1")
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("formula, message", [
    ('{"kind": "condprob", "vars": {"target": 5}}',
     "formula JSON 'target' must be a list of strings, got 5"),
    ('{"kind": "condprob", "vars": {"target": "XY"}}',
     "formula JSON 'target' must be a list of strings, got 'XY'"),
    ('{"kind": "product", "children": 5}',
     "formula JSON 'children' must be a list, got 5"),
], ids=["target_number", "target_string", "children_number"])
def test_eval_rejects_bad_formula(capsys, tmp_path, formula, message):
    formula_file = tmp_path / "f.json"
    formula_file.write_text(formula)
    table_file = tmp_path / "t.csv"
    table_file.write_text(to_csv(JointTable(("X", "Y"), np.full((2, 2), 0.25))))
    code, out, err = run_cli(capsys, "eval", str(formula_file), str(table_file),
                             "--at", "X=1,Y=1")
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


def test_eval_rejects_deeply_nested_formula(capsys, tmp_path):
    # nested deeper than the interpreter's recursion limit
    leaf = '{"kind": "condprob", "vars": {"target": ["X"], "given": []}}'
    formula_file = tmp_path / "f.json"
    formula_file.write_text('{"kind": "product", "children": [' * 2000 + leaf + "]}" * 2000)
    table_file = tmp_path / "t.csv"
    table_file.write_text(to_csv(JointTable(("X",), np.array([0.4, 0.6]))))
    code, out, err = run_cli(capsys, "eval", str(formula_file), str(table_file), "--at", "X=1")
    assert (code, out) == (3, "")
    assert err == "error: formula JSON is nested too deeply\n"


def test_main_reuses_one_parser(capsys):
    calls = [("identify", path("frontdoor.cdag"), "-x", "X", "-y", "Y"),
             ("simulate", path("backdoor.cdag"), "-x", "X", "-y", "Y", "--n", "0"),
             ("expand", path("med.admg"), "--sizes", "Z=4", "--seed", "3")]
    fresh = []
    for argv in calls:
        cli._main_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 3, 0]
    parser = cli._main_parser()
    for _ in range(2):
        assert [run_cli(capsys, *argv) for argv in calls] == fresh
    assert cli._main_parser() is parser


def test_simulate_smoke(capsys):
    code, out, _ = run_cli(capsys, "simulate", path("backdoor.cdag"),
                           "-x", "X", "-y", "Y", "--sizes", "Z=3",
                           "--diagrams", "3", "--datasets", "2",
                           "--n", "500,1000", "--seed", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "metric,n,value,std_error"
    metrics = {line.split(",")[0] for line in lines[1:]}
    assert metrics == {"effect_diff", "effect_diff_exact", "identifiable_fraction"}
    frac = [line for line in lines if line.startswith("identifiable_fraction")][0]
    assert float(frac.split(",")[2]) == 1.0
    exact = [line for line in lines if line.startswith("effect_diff_exact")][0]
    assert float(exact.split(",")[2]) < 1e-9


def test_simulate_byte_identical(capsys):
    args = ("simulate", path("confounded_sim.cdag"), "-x", "X", "-y", "Y",
            "--sizes", "Z=2", "--diagrams", "4", "--datasets", "1",
            "--n", "200", "--seed", "8")
    a = run_cli(capsys, *args)
    b = run_cli(capsys, *args)
    assert a == b


# Captured before the dataset and CPT draws were vectorized: the same seed
# must keep giving the same bytes across versions.
GOLDEN_SIMULATE = """\
metric,n,value,std_error
effect_diff,500,0.0058714307777494494,0.002836822541398726
effect_diff,1000,0.0016640164541673237,0.0009389051925805998
effect_diff_exact,,1.1102230246251565e-16,
identifiable_fraction,,1.0,
"""


def test_simulate_golden_bytes(capsys):
    assert run_cli(capsys, "simulate", path("backdoor.cdag"), "-x", "X", "-y", "Y",
                   "--sizes", "Z=3", "--diagrams", "3", "--datasets", "2",
                   "--n", "500,1000", "--seed", "5") == (0, GOLDEN_SIMULATE, "")


def run_simulate_counts(capsys, *counts):
    return run_cli(capsys, "simulate", path("backdoor.cdag"), "-x", "X", "-y", "Y",
                   "--sizes", "Z=2", "--seed", "5", *counts)


@pytest.mark.parametrize("value", ["0", "-5", "100,0", "abc"])
def test_simulate_bad_sample_size_is_input_error(capsys, value):
    code, out, err = run_simulate_counts(capsys, "--n", value)
    assert (code, out) == (3, "")
    assert err == ("error: --n needs comma-separated sample sizes of at least 1, "
                   f"got '{value}'\n")


@pytest.mark.parametrize("value, repeated", [("500,500", 500), ("500,1000,0500", 500),
                                             ("7,8,8,7", 8)])
def test_simulate_repeated_sample_size_is_input_error(capsys, value, repeated):
    # each size's row pools the datasets drawn at it, so a repeat would
    # print one row twice over both sizes' datasets; the first repeat is named
    code, out, err = run_simulate_counts(capsys, "--n", value)
    assert (code, out) == (3, "")
    assert err == f"error: --n names {repeated} twice\n"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_simulate_bad_diagram_count_is_input_error(capsys, value):
    code, out, err = run_simulate_counts(capsys, "--diagrams", value)
    assert (code, out) == (3, "")
    assert err == f"error: --diagrams must be at least 1, got {value}\n"


def test_simulate_bad_dataset_count_is_input_error(capsys):
    code, out, err = run_simulate_counts(capsys, "--datasets", "-1")
    assert (code, out) == (3, "")
    assert err == "error: --datasets must be at least 0, got -1\n"


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 8.19 TiB for an array with shape (9, 1000000000000) "
                 "and data type uint8"),
     "error: Unable to allocate 8.19 TiB for an array with shape (9, 1000000000000) "
     "and data type uint8\n"),
    (MemoryError(), "error: MemoryError\n"),
])
def test_simulate_refused_allocation_is_input_error(capsys, monkeypatch, error, line):
    # numpy raises MemoryError when the host refuses a dataset's block; the
    # draw is replaced here, so no memory is asked of the host
    def refuse(m, n, seed):
        raise error

    monkeypatch.setattr(cli, "sample_dataset", refuse)
    code, out, err = run_simulate_counts(capsys, "--diagrams", "1", "--datasets", "1",
                                         "--n", "1000000000000")
    assert (code, out, err) == (3, "", line)


@pytest.fixture
def draw_ahead_threads(monkeypatch):
    # every worker thread that simulate's draw_ahead scopes start
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(oracle.threading, "Thread", Recorded)
    return started


def _raise(error):
    def fail(*args, **kwargs):
        raise error
    return fail


@pytest.mark.parametrize("site, error, line", [
    (None, None, None),
    ("joint_distribution", StateSpaceCapError("joint_distribution: over the cap"),
     "error: joint_distribution: over the cap (diagram 0, x=X, y=Y)\n"),
    ("sample_dataset", MemoryError(), "error: MemoryError\n"),
])
def test_simulate_leaves_no_thread_running(capsys, monkeypatch, draw_ahead_threads,
                                           site, error, line):
    threads = threading.active_count()
    if site:
        monkeypatch.setattr(cli, site, _raise(error))
    code, out, err = run_simulate_counts(capsys, "--diagrams", "2", "--datasets", "2",
                                         "--n", "100,5000")
    assert draw_ahead_threads and not any(t.is_alive() for t in draw_ahead_threads)
    assert threading.active_count() == threads
    if site:
        assert (code, out, err) == (3, "", line)
    else:
        assert code == 0 and out.startswith("metric,n,value,std_error\n")


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_simulate_bad_state_cap_is_input_error(capsys, monkeypatch, value):
    monkeypatch.setenv("CDAG_STATE_CAP", value)
    code, out, err = run_cli(capsys, "simulate", path("backdoor.cdag"),
                             "-x", "X", "-y", "Y", "--sizes", "Z=2",
                             "--diagrams", "1", "--datasets", "1",
                             "--n", "100", "--seed", "5")
    assert code == 3
    assert out == ""
    assert err == f"error: CDAG_STATE_CAP must be a positive integer, got '{value}'\n"


def test_simulate_state_cap_error_names_the_phase(capsys, monkeypatch):
    monkeypatch.setenv("CDAG_STATE_CAP", "8")
    code, out, err = run_cli(capsys, "simulate", path("backdoor.cdag"),
                             "-x", "X", "-y", "Y", "--sizes", "Z=2",
                             "--diagrams", "1", "--datasets", "1",
                             "--n", "100", "--seed", "5")
    assert (code, out) == (3, "")
    assert err == ("error: joint_distribution: joint state space of 16 entries "
                   "exceeds the cap (8); raise CDAG_STATE_CAP (diagram 0, x=X, y=Y)\n")


def test_simulate_checks_the_cap_before_building_the_model(capsys, monkeypatch):
    # A Z cluster of 30 gives a joint of 2^32 states; the model's own
    # tables would need gigabytes before the joint is ever tabulated.
    monkeypatch.delenv("CDAG_STATE_CAP", raising=False)
    code, out, err = run_cli(capsys, "simulate", path("backdoor.cdag"),
                             "-x", "X", "-y", "Y", "--sizes", "Z=30",
                             "--diagrams", "1", "--datasets", "1", "--n", "10")
    assert (code, out) == (3, "")
    assert err == ("error: joint_distribution: joint state space of 4294967296 entries "
                   "exceeds the cap (4194304); raise CDAG_STATE_CAP (diagram 0, x=X, y=Y)\n")


def test_simulate_checks_each_cpt_against_the_cap(capsys, monkeypatch):
    # Under the full policy a Z cluster of 18 has a joint of 2^20 states,
    # within the cap, but a member with every other one as a parent and a
    # shared noise term with each needs a table of up to 2^36 entries.
    monkeypatch.delenv("CDAG_STATE_CAP", raising=False)
    code, out, err = run_cli(capsys, "simulate", path("backdoor.cdag"),
                             "-x", "X", "-y", "Y", "--sizes", "Z=18", "--policy", "full",
                             "--diagrams", "1", "--datasets", "1", "--n", "10")
    assert (code, out) == (3, "")
    assert err.startswith("error: random_cbn: ") and err.count("\n") == 1
    assert err.endswith("exceeds the cap (4194304); raise CDAG_STATE_CAP "
                        "(diagram 0, x=X, y=Y)\n")


@pytest.mark.parametrize("command", ["expand", "simulate"])
def test_unbounded_sizes_are_refused_before_expanding(capsys, monkeypatch, command):
    # 10^11 members would take every byte of memory to name
    monkeypatch.delenv("CDAG_STATE_CAP", raising=False)
    query = ["-x", "X", "-y", "Y"] if command == "simulate" else []
    code, out, err = run_cli(capsys, command, path("backdoor.cdag"), *query,
                             "--sizes", "Z=99999999999")
    assert (code, out) == (3, "")
    assert err == ("error: expand: 5000000000050000000000 member pairs exceed the cap "
                   "(4194304); raise CDAG_STATE_CAP\n")


def test_console_entry_point():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cdag.cli", "identify", path("bow.cdag"),
         "-x", "X", "-y", "Y"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "not identifiable" in proc.stdout

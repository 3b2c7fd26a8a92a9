import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cdag import JointTable, random_cbn, joint_distribution
from cdag.cli import ParseError, main, parse_graph, render_graph_file

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRAPHS = os.path.join(ROOT, "graphs")


def path(name):
    return os.path.join(GRAPHS, name)


# -- parsing -------------------------------------------------------------

def test_parse_cluster_level_file():
    parsed = parse_graph(open(path("frontdoor.cdag")).read())
    assert parsed.kind == "cdag"
    g = parsed.cdag.graph
    assert g.nodes == ("S", "X", "Y", "Z")
    assert ("Z", "X") in g.directed
    assert ("X", "Z") in g.bidirected
    assert parsed.member_hints["Z"] == ("A", "B", "C", "D")


def test_parse_variable_level_file():
    parsed = parse_graph(open(path("med.admg")).read())
    assert parsed.kind == "admg"
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


def test_parse_quoted_names_round_trip():
    text = 'node "weird name"\nnode Y\nedge "weird name" -> Y\n'
    parsed = parse_graph(text)
    assert "weird name" in parsed.cdag.graph.nodes
    assert parse_graph(render_graph_file(parsed)) == parsed


def test_round_trip_all_sample_files():
    for name in sorted(os.listdir(GRAPHS)):
        parsed = parse_graph(open(path(name)).read())
        assert parse_graph(render_graph_file(parsed)) == parsed, name


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
    assert parsed.kind == "admg"
    assert parsed.partition.members("Z") == ("Z_1", "Z_2", "Z_3")


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
    table_file.write_text(table.to_csv())
    code, out, _ = run_cli(capsys, "eval", str(formula_file), str(table_file),
                           "--at", "X=1,Y=1")
    assert code == 0
    from cdag import evaluate, interventional_distribution
    want = interventional_distribution(m, {"X": 1}).prob_of({"Y": 1})
    assert float(out.strip()) == pytest.approx(want, abs=1e-9)


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


@pytest.mark.parametrize("value", ["0", "-1"])
def test_simulate_bad_diagram_count_is_input_error(capsys, value):
    code, out, err = run_simulate_counts(capsys, "--diagrams", value)
    assert (code, out) == (3, "")
    assert err == f"error: --diagrams must be at least 1, got {value}\n"


def test_simulate_bad_dataset_count_is_input_error(capsys):
    code, out, err = run_simulate_counts(capsys, "--datasets", "-1")
    assert (code, out) == (3, "")
    assert err == "error: --datasets must be at least 0, got -1\n"


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


def test_console_entry_point():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cdag.cli", "identify", path("bow.cdag"),
         "-x", "X", "-y", "Y"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "not identifiable" in proc.stdout

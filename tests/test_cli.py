"""End-to-end tests of the command-line interface (in-process, via main)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spanex
from spanex.cli import main
from spanex.vsa import load_vsa

from helpers import relation_of


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err: str) -> None:
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


SUBSTRINGS = "SELECT x FROM /a* x{a*} a*/"


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_tsv_streams_all_tuples(capsys):
    code, out, err = run_cli(capsys, "eval", "--query-text", SUBSTRINGS,
                             "--input-text", "aaa")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# x"
    assert lines[1] == "4..4"  # canonical order starts at the right edge
    assert lines[-1] == "1..1"
    assert len(lines) == 11


def test_eval_count_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "--query-text", SUBSTRINGS,
                           "--input-text", "aaa", "--format", "count")
    assert code == 0
    assert out == "10\n"


def test_eval_json_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "--query-text", SUBSTRINGS,
                           "--input-text", "aaa", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 10
    assert rows[0] == {"x": [4, 4]}
    assert {tuple(row["x"]) for row in rows} == {
        (i, j) for i in range(1, 5) for j in range(i, 5)
    }


def test_eval_limit_stops_early(capsys):
    code, out, _ = run_cli(capsys, "eval", "--query-text", SUBSTRINGS,
                           "--input-text", "aaa", "--limit", "1")
    assert code == 0
    assert out == "# x\n4..4\n"


def test_eval_limit_zero_emits_nothing(capsys):
    code, out, _ = run_cli(capsys, "eval", "--query-text", SUBSTRINGS,
                           "--input-text", "aaa", "--limit", "0")
    assert code == 0
    assert out == "# x\n"
    code, out, _ = run_cli(capsys, "eval", "--query-text", SUBSTRINGS,
                           "--input-text", "aaa", "--limit", "0",
                           "--format", "count")
    assert code == 0
    assert out == "0\n"
    # nothing was evaluated, so a Boolean query gives no negative verdict
    code, out, _ = run_cli(capsys, "eval", "--query-text",
                           "SELECT () FROM /.* x{a} .*/",
                           "--input-text", "bb", "--limit", "0")
    assert code == 0
    assert out == "# ()\n"


def test_eval_negative_limit_is_rejected(capsys):
    code, out, err = run_cli(capsys, "eval", "--query-text", SUBSTRINGS,
                             "--input-text", "aaa", "--limit", "-1")
    assert code == 2
    assert out == ""
    assert "--limit" in err


def test_eval_boolean_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "eval", "--query-text",
                           "SELECT () FROM /.* x{a} .*/",
                           "--input-text", "ba")
    assert code == 0
    assert out == "# ()\n()\n"
    code, out, _ = run_cli(capsys, "eval", "--query-text",
                           "SELECT () FROM /.* x{a} .*/",
                           "--input-text", "bb")
    assert code == 1


def test_eval_reads_files_and_strips_one_newline(capsys, tmp_path):
    query_path = tmp_path / "q.spq"
    doc_path = tmp_path / "d.doc"
    query_path.write_text(SUBSTRINGS + "\n")
    doc_path.write_text("aaa\n")
    code, out, _ = run_cli(capsys, "eval", "--query", str(query_path),
                           "--input", str(doc_path), "--format", "count")
    assert code == 0 and out == "10\n"
    # keeping the newline makes the trailing a* fail on the last symbol
    code, out, _ = run_cli(capsys, "eval", "--query", str(query_path),
                           "--input", str(doc_path), "--format", "count",
                           "--keep-trailing-newline")
    assert code == 0 and out == "0\n"


def test_eval_strategies_agree(capsys):
    outputs = set()
    for strategy in ("auto", "canonical", "compiled"):
        code, out, _ = run_cli(capsys, "eval", "--query-text",
                               "SELECT x, y FROM /x{a}.*/, /.*y{a}/",
                               "--input-text", "aa", "--strategy", strategy)
        assert code == 0
        outputs.add(out)
    assert outputs == {"# x\ty\n1..2\t2..3\n"}


def test_eval_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--query-text", "garbage",
                           "--input-text", "a")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "eval", "--query-text", SUBSTRINGS)
    assert code == 2 and "input" in err
    code, _, err = run_cli(capsys, "eval", "--query-text", SUBSTRINGS,
                           "--input", "/no/such/file")
    assert code == 2 and err.startswith("error:")


def test_eval_document_not_utf8_exits_2(capsys, tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_bytes(b"a\xffb")
    code, out, err = run_cli(capsys, "eval", "--query-text", SUBSTRINGS,
                             "--input", str(doc))
    assert code == 2 and out == ""
    assert_one_error_line(err)


def test_eval_directory_argument_exits_2(capsys, tmp_path):
    for argv in (["--query-text", SUBSTRINGS, "--input", str(tmp_path)],
                 ["--query", str(tmp_path), "--input-text", "aaa"]):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert code == 2 and out == "", argv
        assert_one_error_line(err)


def test_eval_into_a_closed_pipe_exits_0_quietly():
    src = str(Path(spanex.__file__).resolve().parent.parent)
    # buffered stdout, as in a terminal pipeline: the unwritten rows are
    # flushed once more at interpreter shutdown
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    # about 180 kB of rows, more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "spanex.cli", "eval", "--query-text",
         "SELECT x FROM /.* x{.*} .*/", "--input-text", "ab" * 100],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"# x\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_compiled_route_over_the_state_budget_exits_2(capsys, tmp_path):
    # 132 a's is the shortest unary text on which the equality search
    # passes the default budget of 200,000 states (it would create 200,729;
    # 131 a's take 196,239)
    source = ["--query-text", "SELECT x, y FROM /.* x{.*} .* y{.*} .*/ WHERE x == y",
              "--input-text", "a" * 132]
    for command in (["eval", "--strategy", "compiled"],
                    ["bench", "--report", str(tmp_path / "out.csv")]):
        code, out, err = run_cli(capsys, *command, *source)
        assert code == 2, command
        assert out == "", command  # no TSV header before the error
        assert_one_error_line(err)


# ---------------------------------------------------------------------------
# check / compile / analyze
# ---------------------------------------------------------------------------


def test_check_functional_formula(capsys):
    code, out, _ = run_cli(capsys, "check", "--formula", "a* x{a*} a*")
    assert code == 0 and out == "functional\n"


def test_check_non_functional_formula(capsys):
    code, out, _ = run_cli(capsys, "check", "--formula", "x{a}x{a}")
    assert code == 2
    assert out.startswith("not functional:")
    assert "x" in out


@pytest.mark.parametrize("formula, reason, variable", [
    ("y{a.}y{x{b}}|(z{.}|y{a})", "variable opened twice", "y"),
    ("(x{b*}(z{a}|a*))*", "conflicting configurations", "z"),
    ("a(z{b}ε|(x{a}|.))", "conflicting configurations", "x"),
    ("y{z{ε}}*|x{∅*}*", "conflicting configurations", "y"),
    ("x{a*}y{x{b}}", "variable opened twice", "x"),
    ("x{a y{b}} y{c}", "variable opened twice", "y"),
    ("(x{a})*", "conflicting configurations", "x"),
    ("x{a} | y{∅}", "variable not closed at the final state", "y"),
    ("(y{a}*∅|a) x{b}x{b}", "variable opened twice", "x"),
])
def test_check_names_the_reason_and_variable(capsys, formula, reason, variable):
    """The check's verdict on a non-functional formula is pinned: it names
    the first fault of the syntax tree in left-to-right post-order, children
    before their parent and the root's unbound variables last, and of that
    fault's variables the first in name order.  A fault inside a part that
    matches nothing, as ``y{a}*∅``, does not count."""
    code, out, err = run_cli(capsys, "check", "--formula", formula)
    assert (code, out, err) == (2, f"not functional: {reason} (variable {variable})\n", "")


def test_eval_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
        yield

    monkeypatch.setattr("spanex.cli.eval_query", exhausted)
    code, out, err = run_cli(capsys, "eval", "--query-text", SUBSTRINGS,
                             "--input-text", "aa")
    assert code == 2
    assert out == ""
    assert_one_error_line(err)


def test_check_deeply_nested_formula_is_functional(capsys):
    """The parser keeps its open groups on a list, not on the call stack, so
    2,000 nested parentheses parse."""
    code, out, err = run_cli(capsys, "check", "--formula", "(" * 2000 + "a" + ")" * 2000)
    assert (code, out, err) == (0, "functional\n", "")


def test_check_long_literal_is_functional(capsys):
    code, out, err = run_cli(capsys, "check", "--formula", "a" * 3000)
    assert (code, out, err) == (0, "functional\n", "")


@pytest.mark.parametrize("formula, reason", [
    ("(" * 2000 + "x{a}*" + ")" * 2000, "conflicting configurations"),
    ("x{" + "a" * 3000 + "} x{b}", "variable opened twice"),
], ids=["nested", "long"])
def test_check_deep_or_long_non_functional_formula(capsys, formula, reason):
    """The tree names the fault without recursion, however deep or long."""
    code, out, err = run_cli(capsys, "check", "--formula", formula)
    assert (code, out, err) == (2, f"not functional: {reason} (variable x)\n", "")


def test_eval_atom_with_a_long_literal(capsys):
    text = "ab" * 1500
    code, out, err = run_cli(capsys, "eval", "--query-text", f"SELECT x FROM /x{{{text}}}/",
                             "--input-text", text)
    assert (code, out, err) == (0, "# x\n1..3001\n", "")


def test_check_empty_language_formula_is_functional(capsys):
    code, out, _ = run_cli(capsys, "check", "--formula", "(x{a})* ∅")
    assert (code, out) == (0, "functional\n")


def test_eval_empty_language_atom_has_no_rows(capsys):
    code, out, err = run_cli(capsys, "eval", "--query-text", "SELECT x FROM /(x{a})* ∅/",
                             "--input-text", "a")
    assert (code, out, err) == (0, "# x\n", "")


def test_check_parse_error(capsys):
    code, _, err = run_cli(capsys, "check", "--formula", "x{")
    assert code == 2 and err.startswith("error:")


def test_compile_dump_round_trips(capsys, tmp_path):
    dump_path = tmp_path / "a.vsa"
    code, out, _ = run_cli(capsys, "compile", "--formula", "a* x{a*} a*",
                           "--dump", str(dump_path))
    assert code == 0 and str(dump_path) in out
    reloaded = load_vsa(dump_path.read_text())
    assert {str(t["x"]) for t in relation_of(reloaded, "aaa")} == {
        f"{i}..{j}" for i in range(1, 5) for j in range(i, 5)
    }


def test_compile_dump_into_missing_directory_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "compile", "--formula", "x{a}",
                           "--dump", str(tmp_path / "missing" / "a.vsa"))
    assert code == 2
    assert_one_error_line(err)


def test_compile_dump_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "compile", "--formula", "x{a}",
                           "--dump", "-")
    assert code == 0
    assert out.startswith("vsa v=x n=")


def test_compile_dump_is_pinned(capsys):
    """The exact dump of a formula whose marker moves perform several
    operations at once: opens before closes, each sorted by name."""
    code, out, _ = run_cli(capsys, "compile", "--formula", "x{y{a}} z{ε} .*",
                           "--dump", "-")
    assert code == 0
    assert out == ("vsa v=x,y,z n=6\ninit 0\nfinal 1\n"
                   "0 ops:[⊢x,⊢y] 2\n2 sym:a 4\n3 any 5\n"
                   "4 ops:[⊢z,⊣x,⊣y,⊣z] 1\n4 ops:[⊢z,⊣x,⊣y,⊣z] 3\n"
                   "5 eps 1\n5 eps 3\n")


def test_analyze_key_variable(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--formula", "x{.*}",
                           "--key", "x")
    assert code == 0 and out == "x is a key attribute\n"


def test_analyze_non_key_variable_prints_witness(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--formula", "x{ε} .* y{ε} .*",
                           "--key", "x")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "x is not a key attribute"
    assert lines[1].startswith("witness document:")
    assert lines[2].startswith("  tuple 1:") and lines[3].startswith("  tuple 2:")


def test_analyze_unknown_variable(capsys):
    code, _, err = run_cli(capsys, "analyze", "--formula", "x{a}",
                           "--key", "z")
    assert code == 2 and "z" in err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def parse_report(text):
    lines = text.splitlines()
    assert lines[0] == "metric,index,nanoseconds"
    rows = []
    for line in lines[1:]:
        metric, index, value = line.split(",")
        rows.append((metric, index, int(value)))
    return rows


def test_bench_report_shape(capsys, tmp_path):
    report = tmp_path / "delays.csv"
    code, out, _ = run_cli(capsys, "bench", "--query-text", SUBSTRINGS,
                           "--input-text", "aaa", "--report", str(report))
    assert code == 0
    assert "10 tuples" in out
    rows = parse_report(report.read_text())
    metrics = [row[0] for row in rows]
    assert metrics[0] == "preprocess"
    assert metrics[1] == "first_result"
    assert metrics.count("tuple") == 9  # gaps between 10 tuples
    assert [r[1] for r in rows if r[0] == "tuple"] == [str(i) for i in range(2, 11)]
    by_name = {r[0]: r[2] for r in rows}
    assert by_name["tuple_count"] == 10
    assert by_name["max_delay"] >= by_name["median_delay"] >= 0
    assert by_name["preprocess"] > 0


def test_bench_report_into_missing_directory_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "bench", "--query-text", SUBSTRINGS,
                           "--input-text", "aaa",
                           "--report", str(tmp_path / "missing" / "out.csv"))
    assert code == 2
    assert_one_error_line(err)


@pytest.mark.parametrize("query", [
    "SELECT x, y FROM /.* x{.*} .* y{.*} .*/ WHERE x == y",
    # the equality disjunct's stream merges with the other one's
    "SELECT x, y FROM /.* x{a} .* y{b} .*/ UNION "
    "SELECT x, y FROM /.* x{.+} .* y{.+} .*/ WHERE x == y",
])
def test_bench_counts_the_tuples_eval_counts(capsys, tmp_path, query):
    report = tmp_path / "delays.csv"
    code, _, _ = run_cli(capsys, "bench", "--query-text", query,
                         "--input-text", "abaabbab", "--report", str(report))
    assert code == 0
    by_name = {row[0]: row[2] for row in parse_report(report.read_text())}
    code, out, _ = run_cli(capsys, "eval", "--format", "count", "--query-text", query,
                           "--input-text", "abaabbab")
    assert code == 0
    assert by_name["tuple_count"] == int(out) > 0


def test_bench_empty_result_reports_preprocess_only(capsys, tmp_path):
    report = tmp_path / "empty.csv"
    code, _, _ = run_cli(capsys, "bench", "--query-text",
                         "SELECT x FROM /x{b}/",
                         "--input-text", "aaa", "--report", str(report))
    assert code == 0
    rows = parse_report(report.read_text())
    assert [row[0] for row in rows] == ["preprocess"]


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_3cnf_instance_evaluates(capsys, tmp_path):
    prefix = tmp_path / "sat"
    code, out, _ = run_cli(capsys, "gen", "3cnf", "--clauses", "1 2 3; -1 2 -3",
                           "--out", str(prefix))
    assert code == 0 and "wrote" in out
    code, out, _ = run_cli(capsys, "eval", "--query", str(prefix) + ".spq",
                           "--input", str(prefix) + ".doc")
    assert code == 0  # satisfiable
    code, _, _ = run_cli(capsys, "gen", "3cnf", "--clauses", "1 1 1; -1 -1 -1",
                         "--out", str(prefix))
    assert code == 0
    code, _, _ = run_cli(capsys, "eval", "--query", str(prefix) + ".spq",
                         "--input", str(prefix) + ".doc")
    assert code == 1  # unsatisfiable


@pytest.mark.parametrize("kind", ["clique", "streq-clique"])
def test_gen_clique_instances_evaluate(capsys, tmp_path, kind):
    prefix = tmp_path / kind
    code, _, _ = run_cli(capsys, "gen", kind, "--nodes", "3",
                         "--edges", "1-2,1-3,2-3", "--k", "3",
                         "--out", str(prefix))
    assert code == 0
    code, _, _ = run_cli(capsys, "eval", "--query", str(prefix) + ".spq",
                         "--input", str(prefix) + ".doc")
    assert code == 0  # the triangle has a 3-clique
    code, _, _ = run_cli(capsys, "gen", kind, "--nodes", "4",
                         "--edges", "1-2,2-3,3-4", "--k", "3",
                         "--out", str(prefix))
    assert code == 0
    code, _, _ = run_cli(capsys, "eval", "--query", str(prefix) + ".spq",
                         "--input", str(prefix) + ".doc")
    assert code == 1  # the path has none


def test_gen_out_into_missing_directory_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gen", "3cnf", "--clauses", "1 2 3",
                           "--out", str(tmp_path / "missing" / "sat"))
    assert code == 2
    assert_one_error_line(err)


@pytest.mark.parametrize("kind", ["clique", "streq-clique"])
@pytest.mark.parametrize("nodes", ["0", "-2"])
def test_gen_clique_without_nodes_exits_2(capsys, tmp_path, kind, nodes):
    prefix = tmp_path / "graph"
    code, out, err = run_cli(capsys, "gen", kind, "--nodes", nodes,
                             "--out", str(prefix))
    assert (code, out) == (2, "")
    assert_one_error_line(err)
    assert not (tmp_path / "graph.spq").exists()


@pytest.mark.parametrize("clauses", ["1_0 2 3", "1 ٢ 3", "1 2 3; 4 5 ６", "1 2 0x3"])
def test_gen_clause_literals_are_ascii_decimal(capsys, tmp_path, clauses):
    """``int`` would read 1_0 as 10 and take other scripts' digits."""
    code, out, err = run_cli(capsys, "gen", "3cnf", "--clauses", clauses,
                             "--out", str(tmp_path / "sat"))
    assert (code, out) == (2, "")
    assert_one_error_line(err)
    assert not (tmp_path / "sat.spq").exists()


@pytest.mark.parametrize("edges", ["1_0-2", "1-٢", "1-2,+2-3", "1-2,2-3 4"])
def test_gen_edge_ends_are_ascii_decimal(capsys, tmp_path, edges):
    code, out, err = run_cli(capsys, "gen", "clique", "--nodes", "12", "--edges", edges,
                             "--out", str(tmp_path / "graph"))
    assert (code, out) == (2, "")
    assert_one_error_line(err)
    assert not (tmp_path / "graph.spq").exists()


def test_gen_accepts_signed_literals_and_spaced_edges(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "gen", "3cnf", "--clauses", "+1 -2 3",
                         "--out", str(tmp_path / "sat"))
    assert code == 0
    code, _, _ = run_cli(capsys, "gen", "clique", "--nodes", "3",
                         "--edges", "1 - 2, 2-3", "--out", str(tmp_path / "graph"))
    assert code == 0


def test_gen_argument_validation(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gen", "3cnf", "--out", str(tmp_path / "x"))
    assert code == 2 and "clauses" in err
    code, _, err = run_cli(capsys, "gen", "clique", "--out", str(tmp_path / "x"))
    assert code == 2 and "nodes" in err
    code, _, err = run_cli(capsys, "gen", "clique", "--nodes", "3",
                           "--edges", "1:2", "--out", str(tmp_path / "x"))
    assert code == 2 and "edge" in err
    code, _, err = run_cli(capsys, "gen", "clique", "--nodes", "3",
                           "--edges", "1-2", "--k", "1",
                           "--out", str(tmp_path / "x"))
    assert code == 2

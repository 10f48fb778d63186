"""Tests for query parsing, the relational skeleton, planning, and the two
evaluation strategies."""

import math
import random

import pytest

import spanex.query
from spanex import compiler, vsa
from spanex.compiler import compile_regex
from spanex.enumerator import (
    EnumerationStats, build_match_graph, enumerate_graph,
)
from spanex.formula import Any, Bind, Cat, Sym, formula_nodes
from spanex.harness import gen_3cnf_query, gen_clique_query, gen_streq_clique_query
from spanex.model import EMPTY_TUPLE, Span, SpanTuple, all_spans, span_text
from spanex.query import (
    CANONICAL, COMPILED, ConjunctiveQuery, PlanOptions,
    QuerySyntaxError,
    UnionQuery, compile_cq, compile_query, eval_canonical, eval_query,
    parse_query, plan_query, query_to_source,
)

from helpers import (
    assert_canonical_order, map_to_relational, random_doc, random_functional_formula,
    relation_of,
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_single_atom_query():
    q = parse_query("SELECT x FROM /a* x{a*} a*/")
    assert len(q.disjuncts) == 1
    cq = q.disjuncts[0]
    assert cq.projection == ("x",)
    assert len(cq.atoms) == 1
    assert cq.equalities == ()


def test_parse_many_atom_query_shape():
    """The classic extract-then-relate shape: several atoms, one projected
    variable shared through the join."""
    q = parse_query(
        "SELECT x FROM /x{a*} .*/, /.* x{a*} y{b*} .*/, /.* y{b*} .*/, "
        "/.* z{a} .*/, /.* z{a} w{b} .*/, /.* w{b}/")
    assert len(q.disjuncts[0].atoms) == 6
    assert q.projection == ("x",)


def test_parse_where_attaches_equalities():
    q = parse_query("SELECT x FROM /.* x{a*} .* y{a*} .*/ WHERE x == y")
    assert q.disjuncts[0].equalities == (("x", "y"),)
    q = parse_query(
        "SELECT x FROM /.* x{.} y{.} z{.} .*/ WHERE x == y AND y == z")
    assert q.disjuncts[0].equalities == (("x", "y"), ("y", "z"))


def test_parse_union_and_boolean_projection():
    q = parse_query("SELECT x FROM /x{a}/ UNION SELECT x FROM /x{b}/")
    assert len(q.disjuncts) == 2
    boolean = parse_query("SELECT () FROM /a*/")
    assert boolean.projection == ()


def test_parse_escaped_slash_in_formula():
    q = parse_query(r"SELECT x FROM /x{a\/b}/")
    from spanex.formula import formula_to_source
    assert formula_to_source(q.disjuncts[0].atoms[0]) == "x{a/b}"


def test_parse_is_whitespace_insensitive():
    a = parse_query("SELECT x,y FROM /x{a}/,/y{b}/ WHERE x==y")
    b = parse_query("SELECT  x , y\nFROM /x{a}/ , /y{b}/\nWHERE x == y")
    assert a == b


def test_parse_errors():
    for text in [
        "",                                            # nothing at all
        "SELECT x FROM",                               # atomless
        "SELECT x, x FROM /x{a}/",                     # duplicate projection
        "SELECT y FROM /x{a}/",                        # projecting a stranger
        "SELECT x FROM /x{a}/ WHERE x == y",           # equality on a stranger
        "SELECT x FROM /x{a}/ UNION SELECT y FROM /y{a}/",  # branch mismatch
        "SELECT x FROM /x{a}",                         # unterminated literal
        "SELECT x FROM /x{/",                          # broken formula inside
        "SELECT x FROM /x{a}/ garbage",                # trailing junk
        "FROM /x{a}/",                                 # missing SELECT
    ]:
        with pytest.raises(QuerySyntaxError):
            parse_query(text)


def test_validate_catches_empty_structures():
    with pytest.raises(QuerySyntaxError):
        ConjunctiveQuery((), ()).validate()
    with pytest.raises(QuerySyntaxError):
        UnionQuery(()).validate()


def test_query_to_source_round_trips():
    for text in [
        "SELECT x FROM /a* x{a*} a*/",
        "SELECT () FROM /a*/",
        "SELECT x, y FROM /x{a}.*/, /.*y{a}/",
        "SELECT x FROM /.* x{a*} .* y{a*} .*/ WHERE x == y",
        "SELECT x FROM /x{a}/ UNION SELECT x FROM /x{b}/",
        r"SELECT x FROM /x{a\/b}/",
    ]:
        q = parse_query(text)
        assert parse_query(query_to_source(q)) == q


def test_query_literals_round_trip_every_symbol():
    """A literal is one slice of the query text with its escaped slashes
    unescaped: slash, backslash, brace and space symbols survive the trip
    through query text, at the offsets they were written at."""
    awkward = Cat(Cat(Cat(Bind("x", Cat(Sym("/"), Sym("\\"))), Sym("{")), Sym(" ")),
                  Bind("y", Cat(Sym("\\"), Sym("/"))))
    q = UnionQuery((ConjunctiveQuery(("x", "y"), (awkward, Sym("/"))),))
    text = query_to_source(q)
    assert text == r"SELECT x, y FROM /x{\/\\}\{\ y{\\\/}/, /\//"
    assert parse_query(text) == q
    assert spanex.query._tokenize_query(text) == [
        ("kw", "SELECT", 0), ("ident", "x", 7), ("comma", ",", 8), ("ident", "y", 10),
        ("kw", "FROM", 12), ("regex", r"x{/\\}\{\ y{\\/}", 17), ("comma", ",", 37),
        ("regex", "/", 39)]


@pytest.mark.parametrize("text, message", [
    ("SELECT x FROM /x{a}", "unterminated formula literal (at offset 14)"),
    ("SELECT x FROM /x{a}\\/", "unterminated formula literal (at offset 14)"),
    ("SELECT x FROM /x{a}\\", "unterminated formula literal (at offset 14)"),
    ("SELECT x FROM /x{a}/ WHERE x = x", "unexpected character '=' (at offset 29)"),
    ("SELECT x\u00a0FROM /x{a}/ WHERE 1x == x", "unexpected character '1' (at offset 27)"),
    ("SELECT x FROM /x{a}/ WHERE x == é", "unexpected character 'é' (at offset 32)"),
])
def test_query_scanner_errors_name_their_offset(text, message):
    with pytest.raises(QuerySyntaxError) as caught:
        parse_query(text)
    assert str(caught.value) == message


def test_query_with_a_long_literal_renders():
    text = "SELECT x FROM /x{" + "ab" * 1500 + "}/"
    assert query_to_source(parse_query(text)) == text


# ---------------------------------------------------------------------------
# Relational skeleton
# ---------------------------------------------------------------------------


def test_skeleton_of_two_atoms_sharing_a_variable():
    q = parse_query("SELECT x FROM /x{a} .*/, /.* x{a} y{b}/")
    skel = map_to_relational(q.disjuncts[0])
    assert [atom.name for atom in skel.atoms] == ["R1", "R2"]
    assert skel.atoms[0].attributes == ("x",)
    assert skel.atoms[1].attributes == ("x", "y")
    assert "x" in set(skel.atoms[0].attributes) & set(skel.atoms[1].attributes)
    assert skel.projection == ("x",)


def test_skeleton_of_clique_query_is_small():
    """The clique encoding stays linear in atoms and quadratic in variables."""
    triangle = (3, [(1, 2), (1, 3), (2, 3)])
    for k in (2, 3):
        query, _doc = gen_clique_query(triangle, k)
        skel = map_to_relational(query.disjuncts[0])
        assert len(skel.atoms) == k + 1
        assert len(skel.variables) == k * (k - 1)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def test_plan_uses_compiled_for_small_queries():
    q = parse_query("SELECT x FROM /x{a}/")
    assert plan_query(q) == [COMPILED]


ACYCLIC_CQ = ("SELECT x, y, z FROM /.* x{.*} .* y{.*} .* z{.*} .*/, "
              "/.* x{ab} .*/, /.* y{ba} .*/, /.* z{c} .*/")


def _join_bound(cq: ConjunctiveQuery) -> int:
    """The states the left fold of the join creates, at most: 2 + 2·L for
    the first atom of L letters, then 1 + (P+1)(L+1) + P·L for each next
    one, where P is the product of the earlier atoms' L."""
    letters = [sum(isinstance(node, (Sym, Any)) for node in formula_nodes(atom))
               for atom in cq.atoms]
    created = 2 + 2 * letters[0]
    for i, count in enumerate(letters[1:], 1):
        product = math.prod(letters[:i])
        created += 1 + (product + 1) * (count + 1) + product * count
    return created


def test_plan_falls_back_on_wide_joins():
    """Past three atoms, a join compiles only when its state bound fits the
    budget: 16 + 69 + 258 + 789 for the acyclic CQ, over 76 million for
    the 3-clique on 8 nodes."""
    budget = PlanOptions().eq_path_budget
    acyclic = parse_query(ACYCLIC_CQ)
    assert _join_bound(acyclic.disjuncts[0]) == 1_132
    assert plan_query(acyclic) == [COMPILED]
    assert plan_query(acyclic, PlanOptions(eq_path_budget=1_131)) == [CANONICAL]
    cycle = (8, [(i, i % 8 + 1) for i in range(1, 9)])
    clique, _ = gen_clique_query(cycle, 3)
    assert len(clique.disjuncts[0].atoms) == 4
    assert _join_bound(clique.disjuncts[0]) > 76_000_000 > budget
    assert plan_query(clique) == [CANONICAL]


def test_plan_compiles_every_join_of_three_atoms():
    """Three atoms compile whatever their bound, which can be far above the
    states the join builds."""
    word, pattern = "ab" * 60, "a(a|b)" * 60
    q = parse_query(f"SELECT x FROM /.* x{{{word}}} .*/, /.* x{{{pattern}}} .*/, "
                    f"/.* x{{.*}} a .*/")
    assert _join_bound(q.disjuncts[0]) > PlanOptions().eq_path_budget
    assert plan_query(q) == [COMPILED]
    doc = "ab" * 62
    rows = list(eval_query(q, doc))
    assert [str(row["x"]) for row in rows] == ["3..123", "1..121"]
    assert rows == list(eval_query(q, doc, strategy="canonical"))


def test_plan_compiles_four_atoms_whose_fold_fits():
    """A variable-free ``/.*/`` adds few states to the fold, so these four
    atoms compile (bound 60,093), though the product of their atoms' state
    counts is over 400,000."""
    word, pattern = "ab" * 20, "a(a|b)" * 20
    q = parse_query(f"SELECT x FROM /.* x{{{word}}} .*/, /.* x{{{pattern}}} .*/, "
                    f"/.* x{{.*}} a .*/, /.*/")
    assert _join_bound(q.disjuncts[0]) == 60_093
    assert plan_query(q) == [COMPILED]
    doc = "ab" * 22
    rows = list(eval_query(q, doc))
    assert [str(row["x"]) for row in rows] == ["3..43", "1..41"]
    assert rows == list(eval_query(q, doc, strategy="canonical"))


def test_plan_compiles_a_fourth_match_all_atom():
    q = parse_query("SELECT x FROM /x{a}/, /.*/, /.*/, /.*/")
    assert plan_query(q) == [COMPILED]
    q = parse_query(ACYCLIC_CQ.replace("/.* z{c} .*/", "/.* z{c} .*/, /.*/"))
    assert plan_query(q) == [COMPILED]


def test_acyclic_cq_agrees_across_strategies():
    q = parse_query(ACYCLIC_CQ)
    rows = list(eval_query(q, "abbacbac", strategy="canonical"))
    assert len(rows) == 3
    assert rows == list(eval_query(q, "abbacbac", strategy="compiled"))
    assert rows == list(eval_query(q, "abbacbac"))


def test_plan_falls_back_on_many_equalities():
    q = parse_query(
        "SELECT w FROM /.* w{.} x{.} y{.} z{.} .*/ "
        "WHERE w == x AND x == y AND y == z")
    assert plan_query(q) == [CANONICAL]
    q = parse_query(
        "SELECT w FROM /.* w{.} x{.} y{.} z{.} .*/ WHERE w == x AND x == y")
    assert plan_query(q) == [COMPILED]


# three equalities send a disjunct to canonical
THREE_EQUALITIES = ("SELECT x FROM /.* w{.} x{.} y{.} z{.} .*/ "
                    "WHERE w == x AND x == y AND y == z")


def test_plan_is_per_disjunct():
    q = parse_query(f"SELECT x FROM /x{{a}}/ UNION {THREE_EQUALITIES}")
    assert plan_query(q) == [COMPILED, CANONICAL]


# ---------------------------------------------------------------------------
# Evaluation pins
# ---------------------------------------------------------------------------


def test_two_atom_join_pins_both_strategies():
    q = parse_query("SELECT x, y FROM /x{a}.*/, /.*y{a}/")
    want = [SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})]
    assert eval_canonical(q.disjuncts[0], "aa") == want
    assert list(enumerate_graph(compile_cq(q.disjuncts[0], "aa"))) == want


def test_single_atom_query_equals_enumeration():
    q = parse_query("SELECT x FROM /a* x{a*} a*/")
    from spanex.formula import parse_formula
    want = relation_of(compile_regex(parse_formula("a* x{a*} a*")), "aaa")
    rows = eval_canonical(q.disjuncts[0], "aaa")
    assert set(rows) == want
    assert list(enumerate_graph(compile_cq(q.disjuncts[0], "aaa"))) == rows
    assert list(eval_query(q, "aaa")) == rows


def test_boolean_query_yields_one_empty_tuple():
    q = parse_query("SELECT () FROM /.* x{a} .*/")
    assert list(eval_query(q, "ba")) == [EMPTY_TUPLE]
    assert list(eval_query(q, "bb")) == []
    assert list(enumerate_graph(compile_cq(q.disjuncts[0], "ba"))) == [EMPTY_TUPLE]


def test_equality_query_filters_substrings():
    q = parse_query("SELECT x, y FROM /.* x{.*} .* y{.*} .*/ WHERE x == y")
    doc = "abab"
    got_canonical = eval_canonical(q.disjuncts[0], doc)
    got_compiled = list(enumerate_graph(compile_cq(q.disjuncts[0], doc)))
    assert got_canonical == got_compiled
    for row in got_canonical:
        x, y = row["x"], row["y"]
        assert doc[x.begin - 1:x.end - 1] == doc[y.begin - 1:y.end - 1]
    assert SpanTuple({"x": Span(1, 3), "y": Span(3, 5)}) in got_canonical


def test_satisfiable_3cnf_query_is_nonempty():
    query, doc = gen_3cnf_query([(1, 2, 3), (-1, 2, -3)])
    assert list(eval_query(query, doc)) == [EMPTY_TUPLE]
    query, doc = gen_3cnf_query([(1, 1, 1), (-1, -1, -1)])
    assert list(eval_query(query, doc)) == []


STATS_FIELDS = ("tuples", "scan_steps", "fill_steps", "cold_transitions", "max_node_set")


def _walk(graph):
    """The graph's size, its rows, and its counters after the first row and
    at the end."""
    stats = EnumerationStats()
    stream = enumerate_graph(graph, stats)
    rows = [next(stream, None)]
    after_first = tuple(getattr(stats, f) for f in STATS_FIELDS)
    rows += stream
    after_all = tuple(getattr(stats, f) for f in STATS_FIELDS)
    return (graph.node_count, graph.edge_count), rows, after_first, after_all


@pytest.mark.parametrize("text, graph_size, after_first, after_all", [
    ("SELECT x, y FROM /.* x{a .*} .*/, /.* x{.*} y{.*b} .*/",
     (14, 17), (1, 0, 2, 10, 2), (5, 10, 6, 10, 2)),
    # the equality search fixes x's length when x opens, so x{a} and x{ab}
    # at position 1 are two nodes
    ("SELECT x, y FROM /.* x{.+} .* y{.+} .*/ WHERE x == y",
     (14, 15), (1, 0, 3, 9, 2), (3, 9, 7, 9, 2)),
    # the two graphs above side by side under one start; x = 1..3, y = 3..5
    # is a row of both, and comes once
    ("SELECT x, y FROM /.* x{a .*} .*/, /.* x{.*} y{.*b} .*/ UNION "
     "SELECT x, y FROM /.* x{.+} .* y{.+} .*/ WHERE x == y",
     (27, 32), (1, 0, 2, 15, 3), (7, 15, 10, 15, 3)),
])
def test_compiled_query_graph_and_stats_are_pinned(text, graph_size, after_first,
                                                   after_all):
    """Exact match-graph size and work counters on "abab" for a joined query,
    an equality query, whose graph is the equality search's own, and their
    union: the join's product shape must not change them."""
    graph, canonical = compile_query(parse_query(text), "abab")
    assert canonical == []
    size, _, first, last = _walk(graph)
    assert size == graph_size
    assert first == after_first
    assert last == after_all


@pytest.mark.parametrize("text", [
    "SELECT x, y FROM /.* x{.*} .* y{.*} .*/ WHERE x == y",
    "SELECT x FROM /.* x{.*} .* y{.*} .*/ WHERE x == y",
    "SELECT x, z FROM /.* x{.+} .* y{.+} .*/, /.* z{.} .* w{.} .*/ "
    "WHERE x == y AND z == w",
    "SELECT x, y FROM /.* x{a} .* y{b} .*/ WHERE x == y",  # no answer
])
def test_equality_graph_matches_the_selected_automaton(text):
    """The equality search's own graph has the size, rows, order and
    counters of the match graph of its automaton, projected."""
    cq = parse_query(text).disjuncts[0]
    rng = random.Random(text)
    for length in (0, 1, 2, 3, 5, 8, 13, 20):
        doc = "".join(rng.choice("ab") for _ in range(length))
        joined = compiler.join_many(map(compile_regex, cq.atoms))
        selected = compiler.apply_selections(joined, cq.equalities, doc)
        want = _walk(build_match_graph(compiler.project(selected, cq.projected_set), doc))
        assert _walk(compile_cq(cq, doc)) == want, doc


def test_equality_query_normalizes_only_its_atom(monkeypatch):
    """The atom's normal form is read off its syntax tree, the join is built
    in normal form and the equality search builds the match graph from it,
    so no configurations are searched for."""
    calls = []
    search = vsa._search_configs

    def counting(automaton, *args):
        calls.append(automaton.n_states)
        return search(automaton, *args)

    q = parse_query("SELECT x, y FROM /.* x{.*} .* y{.*} .*/ WHERE x == y")
    monkeypatch.setattr(vsa, "_search_configs", counting)
    graph, canonical = compile_query(q, "abab")
    assert canonical == []
    rows = list(enumerate_graph(graph))
    assert calls == []
    assert rows == eval_canonical(q.disjuncts[0], "abab")


def test_union_query_normalizes_only_its_atoms(monkeypatch):
    """Each atom's normal form is read off its syntax tree and the
    disjuncts' graphs are laid side by side, so no configurations are
    searched for."""
    calls = []
    search = vsa._search_configs

    def counting(automaton, *args):
        calls.append(automaton.n_states)
        return search(automaton, *args)

    q = parse_query("SELECT x FROM /.* x{a .*} .*/ UNION "
                    "SELECT x FROM /.* x{.+} .*/, /.* x{.* b} .*/ UNION "
                    "SELECT x FROM /x{.} .*/")
    monkeypatch.setattr(vsa, "_search_configs", counting)
    graph, canonical = compile_query(q, "abaabba")
    assert canonical == []
    rows = list(enumerate_graph(graph))
    assert calls == []
    assert rows == list(eval_query(q, "abaabba", strategy="canonical"))


def test_functional_atoms_are_evaluated_without_a_configuration_search(monkeypatch):
    """Clause atoms, and the benchmark's all-spans, occurrence and equality
    queries, compile with no configuration search at all."""
    clauses, doc = gen_3cnf_query([(1, -2, 3), (-2, 3, -4), (-1, 3, 4)])
    names = tuple(f"x{v}" for v in range(1, 5))
    cases = [(UnionQuery((ConjunctiveQuery(names, clauses.disjuncts[0].atoms),)), doc)]
    for text, doc in [("SELECT x FROM /.* x{.*} .*/", "abbab"),
                      ("SELECT x FROM /.* x{ab} .*/", "abcabcab"),
                      ("SELECT x, y FROM /.* x{.*} .* y{.*} .*/ WHERE x == y", "abaab")]:
        cases.append((parse_query(text), doc))

    def refused(*args):
        raise AssertionError("a configuration search ran")

    monkeypatch.setattr(vsa, "_search_configs", refused)
    for q, doc in cases:
        want = eval_canonical(q.disjuncts[0], doc)
        assert want and list(eval_query(q, doc)) == want, query_to_source(q)


# ---------------------------------------------------------------------------
# Union evaluation
# ---------------------------------------------------------------------------


def test_union_of_overlapping_disjuncts_is_duplicate_free():
    q = parse_query("SELECT x FROM /x{a}.*/ UNION SELECT x FROM /.* x{.} .*/")
    rows = list(eval_query(q, "ab"))
    assert len(rows) == len(set(rows))
    assert {row["x"] for row in rows} == {Span(1, 2), Span(2, 3)}
    assert list(eval_query(q, "ab", strategy="canonical")) == rows
    assert list(eval_query(q, "ab", strategy="compiled")) == rows


@pytest.mark.parametrize("text, doc, count", [
    pytest.param("SELECT x FROM /.* x{a} .*/ UNION SELECT x FROM /x{b} .*/", "ccc", 0,
                 id="all-empty"),
    pytest.param("SELECT x, y FROM /.* x{c} .* y{c} .*/ WHERE x == y UNION "
                 "SELECT x, y FROM /x{a} y{b}/", "ba", 0, id="all-empty-equality"),
    pytest.param("SELECT x FROM /x{b} .*/ UNION SELECT x FROM /.* x{a} .*/", "aa", 2,
                 id="one-empty"),
    pytest.param("SELECT x FROM /x{ε}/ UNION SELECT x FROM /x{a*} .*/", "", 1,
                 id="empty-document"),
    pytest.param("SELECT x, y FROM /x{.*} y{.*}/ WHERE x == y UNION "
                 "SELECT x, y FROM /x{a*} y{ε}/", "", 1, id="empty-document-equality"),
])
def test_union_graph_of_empty_parts_and_the_empty_document(text, doc, count):
    """Parts without results are dropped from the union graph: none left is
    an empty graph, and the others share one start node.  On the empty
    document every part has the one accepting row, which comes once."""
    q = parse_query(text)
    graph, canonical = compile_query(q, doc)
    assert canonical == [] and graph.empty == (count == 0)
    parts = [part for part in (compile_cq(cq, doc) for cq in q.disjuncts) if not part.empty]
    assert graph.node_count == sum(part.node_count - 1 for part in parts) + bool(parts)
    assert graph.edge_count == sum(part.edge_count for part in parts)
    rows = list(enumerate_graph(graph))
    assert len(rows) == count
    assert rows == list(eval_query(q, doc, strategy="canonical"))


def test_single_disjunct_matches_its_own_evaluation():
    q = parse_query("SELECT x FROM /.* x{ab} .*/")
    assert list(eval_query(q, "abab")) == eval_canonical(q.disjuncts[0], "abab")


def test_mixed_plan_agrees_with_all_canonical():
    q = parse_query(f"SELECT x FROM /.* x{{a}} .*/ UNION {THREE_EQUALITIES}")
    assert plan_query(q) == [COMPILED, CANONICAL]
    mixed = list(eval_query(q, "aaaabbbb"))
    assert [str(row["x"]) for row in mixed] == ["6..7", "4..5", "3..4", "2..3", "1..2"]
    assert mixed == list(eval_query(q, "aaaabbbb", strategy="canonical"))
    assert mixed == list(eval_query(q, "aaaabbbb", strategy="compiled"))


def _count_equality_searches(monkeypatch):
    calls = []
    search = spanex.query.equality_graph

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(spanex.query, "equality_graph", counting)
    return calls


def test_budget_fallback_builds_the_equality_automaton_once(monkeypatch):
    q = parse_query("SELECT x, y FROM /.* x{.*} .* y{.*} .*/ WHERE x == y")
    calls = _count_equality_searches(monkeypatch)
    rows = list(eval_query(q, "abaab", PlanOptions(eq_path_budget=10)))
    assert len(calls) == 1
    assert rows == eval_canonical(q.disjuncts[0], "abaab")


def test_union_with_an_over_budget_disjunct_keeps_its_order(monkeypatch):
    """The compiled disjunct's graph and the over-budget one's canonical
    rows merge, repeats dropped, into the compiled union's order."""
    q = parse_query("SELECT x FROM /.* x{a .*} .*/ UNION "
                    "SELECT x FROM /.* x{.*} .* y{.*} .*/ WHERE x == y")
    calls = _count_equality_searches(monkeypatch)
    rows = list(eval_query(q, "abaab", PlanOptions(eq_path_budget=10)))
    assert len(calls) == 1
    assert [str(row["x"]) for row in rows] == [
        "6..6", "5..5", "4..6", "4..5", "4..4", "3..6", "3..5", "3..4", "3..3",
        "2..3", "2..2", "1..6", "1..5", "1..4", "1..3", "1..2", "1..1",
    ]
    assert rows == list(eval_query(q, "abaab", strategy="compiled"))
    graph, canonical = compile_query(q, "abaab", path_budget=10, fallback=True)
    assert not graph.empty and canonical == [q.disjuncts[1]]


def test_unary_fallback_returns_the_compiled_list():
    """200 a's pass an equality budget of 100 states, so ``auto`` falls
    back to canonical, and its rows come in the compiled order."""
    q = parse_query("SELECT x, y FROM /.* x{a} .* y{a} .*/ WHERE x == y")
    doc = "a" * 200
    graph, canonical = compile_query(q, doc, path_budget=100, fallback=True)
    assert graph.empty and canonical == list(q.disjuncts)
    rows = list(eval_query(q, doc, PlanOptions(eq_path_budget=100)))
    assert len(rows) == 200 * 199 // 2
    assert rows == list(eval_query(q, doc, strategy="compiled"))


def test_forced_compiled_route_stops_at_the_state_budget():
    q = parse_query("SELECT x, y FROM /.* x{.*} .* y{.*} .*/ WHERE x == y")
    options = PlanOptions(eq_path_budget=100)
    with pytest.raises(compiler.EqualityBudgetError) as err:
        next(eval_query(q, "abaab" * 4, options, strategy="compiled"))
    assert err.value.budget == 100 < err.value.estimate
    rows = list(eval_query(q, "abaab" * 4, options))  # auto falls back
    assert rows == eval_canonical(q.disjuncts[0], "abaab" * 4)


def test_a_move_that_opens_many_members_needs_no_recursion():
    """One marker move opens and closes 1,100 equated members at once; the
    equality search goes through them without recursion, and the compiled
    and canonical routes agree."""
    n = 1_100
    atom = " ".join(f"x{i}{{ε}}" for i in range(n)) + " a"
    where = " AND ".join(f"x{i} == x{i + 1}" for i in range(n - 1))
    q = parse_query(f"SELECT x0 FROM /{atom}/ WHERE {where}")
    rows = list(eval_query(q, "a", strategy="compiled"))
    assert [str(row["x0"]) for row in rows] == ["1..1"]
    assert rows == list(eval_query(q, "a", strategy="canonical"))


def test_forced_compiled_route_decides_the_streq_clique_instance():
    """3,092,990,993 assignments of the equated variables on a 28-char
    document, and under 2,000 states for the search."""
    for edges, want in (([(1, 2), (2, 3), (1, 3), (3, 4)], [EMPTY_TUPLE]),
                        ([(1, 2), (2, 3), (3, 4), (1, 4)], [])):
        query, doc = gen_streq_clique_query((4, edges), 3)
        rows = list(eval_query(query, doc, strategy="compiled"))
        assert rows == list(eval_query(query, doc, strategy="canonical")) == want


@pytest.mark.parametrize("text, doc", [
    # x = 1..3 and y = 2..4 ("aa") are both open at positions 2 and 3
    pytest.param("SELECT x, y FROM /.* x{.+} .*/, /.* y{.+} .*/ WHERE x == y",
                 "aaaba", id="overlapping"),
    pytest.param("SELECT x, y FROM /.* x{a*} .* y{b*} .*/ WHERE x == y",
                 "abba", id="empty-spans"),
    pytest.param("SELECT x, y, z FROM /.* x{.+} .* y{.+} .* z{.+} .*/ "
                 "WHERE x == y AND y == z", "abababa", id="three-members"),
    pytest.param("SELECT x, y, z, w FROM /.* x{.+} .* y{.+} .*/, /.* z{.} .* w{.} .*/ "
                 "WHERE x == y AND z == w", "abaab", id="two-classes"),
    pytest.param("SELECT x, y FROM /.* x{a .*} .*/, /.* y{.* b} .*/ WHERE y == x",
                 "abaabab", id="two-atoms"),
    pytest.param("SELECT x, y FROM /.* x{a} .* y{b} .*/ UNION "
                 "SELECT x, y FROM /.* x{.+} .* y{.+} .*/ WHERE x == y",
                 "abab", id="union"),
])
def test_equality_agrees_with_canonical(text, doc):
    q = parse_query(text)
    rows = list(eval_query(q, doc, strategy="compiled"))
    assert rows
    assert_canonical_order(rows, len(doc), q.projection)
    assert rows == list(eval_query(q, doc, strategy="canonical"))


def test_forced_compiled_route_fits_the_largest_streq_document():
    doc = "a" * 38  # the benchmark's unary document, far inside the budget
    q = parse_query("SELECT x, y FROM /x{.*} .* y{.*}/ WHERE x == y")
    rows = list(eval_query(q, doc, strategy="compiled"))
    spans = list(all_spans(len(doc)))
    want = {(x, y) for x in spans if x.begin == 1
            for y in spans if y.end == len(doc) + 1
            if x.end <= y.begin and span_text(doc, x) == span_text(doc, y)}
    assert len(want) == 20
    assert {(row["x"], row["y"]) for row in rows} == want


def test_unknown_strategy_is_rejected():
    q = parse_query("SELECT x FROM /x{a}/")
    with pytest.raises(ValueError):
        list(eval_query(q, "a", strategy="hope"))


# ---------------------------------------------------------------------------
# Random strategy-agreement battery
# ---------------------------------------------------------------------------


def _random_query(rng: random.Random) -> ConjunctiveQuery:
    pool = ("x", "y", "z")
    atoms = tuple(
        random_functional_formula(rng, depth=2, variables=pool)
        for _ in range(rng.randint(1, 3)))
    cq_vars = sorted(ConjunctiveQuery((), atoms).variables)
    projection = tuple(v for v in cq_vars if rng.random() < 0.7)
    equalities = ()
    if len(cq_vars) >= 2 and rng.random() < 0.4:
        equalities = (tuple(rng.sample(cq_vars, 2)),)
    return ConjunctiveQuery(projection, atoms, equalities)


def test_strategies_agree_on_random_queries():
    rng = random.Random(70707)
    for _ in range(30):
        cq = _random_query(rng)
        cq.validate()
        doc = random_doc(rng, 5)
        want = eval_canonical(cq, doc)
        got = list(enumerate_graph(compile_cq(cq, doc)))
        assert got == want, (query_to_source(UnionQuery((cq,))), doc)

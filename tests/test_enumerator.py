"""Tests for the match graph and the span enumeration, whose work per result
does not depend on the document's length."""

import random
from math import comb

import pytest

from spanex.compiler import compile_regex, union_vsa
from spanex.enumerator import (
    EnumerationStats, build_match_graph, enumerate_graph, enumerate_spans,
)
from spanex.formula import Any, Cat, Star, parse_formula
from spanex.model import EMPTY_TUPLE, Span, SpanTuple, open_op
from spanex.vsa import VSA, NotFunctionalAutomaton

from helpers import (
    assert_canonical_order, brute_force_graph_size, marker_automaton, diamond_automaton,
    loop_automaton, random_doc, random_functional_formula, relation_of, span_set,
)


def spans_of(automaton, doc, var="x"):
    return [str(t[var]) for t in enumerate_spans(automaton, doc)]


# ---------------------------------------------------------------------------
# Match graph construction
# ---------------------------------------------------------------------------


def test_graph_size_for_marker_automaton_on_aa():
    """The layered graph for the a*-marker automaton on "aa": one virtual
    start node plus the per-position survivors, and every surviving edge."""
    graph = build_match_graph(marker_automaton(), "aa")
    assert not graph.empty
    assert graph.doc_len == 2
    assert graph.variables == ("x",)
    assert graph.node_count == 8
    assert graph.edge_count == 12


def test_empty_document_graph_counts_the_start_edge():
    """On the empty document the virtual start node still has its edge into
    layer 0, which holds the accepting state alone."""
    graph = build_match_graph(compile_regex(parse_formula("x{a*} .*")), "")
    assert (graph.node_count, graph.edge_count) == (2, 1)


def test_graph_flags_empty_when_no_match():
    graph = build_match_graph(marker_automaton(), "ab")
    assert graph.empty
    assert list(enumerate_graph(graph)) == []


def test_graph_rejects_non_functional_automaton():
    with pytest.raises(NotFunctionalAutomaton):
        build_match_graph(loop_automaton(), "a")


def test_graph_names_the_variable_left_open():
    a = VSA({"x"}, 2, 0, 1, [(0, frozenset([open_op("x")]), 1)])
    with pytest.raises(NotFunctionalAutomaton) as info:
        build_match_graph(a, "")
    assert info.value.variable == "x"


def test_graph_prunes_branches_that_cannot_finish():
    # a run that opens x too late can never close it before the end
    a = compile_regex(parse_formula(".* x{aa} .*"))
    graph = build_match_graph(a, "ba")
    assert graph.empty


def test_graph_size_matches_a_plain_sweep():
    """node_count and edge_count come from sweeps memoized by layer; a
    per-state sweep without that memo counts the same graph.  The periodic
    documents reuse one memo entry at many positions."""
    rng = random.Random(4242)
    cases = [(compile_regex(parse_formula(text)), doc) for text, doc in [
        (".* x{ab} .*", "abcc" * 50), (".* x{a+} .* y{b+} .*", "aab" * 20),
        (".* x{.*} .* y{.*} .*", "ab" * 12), ("x{a*} .*", "")]]
    for i in range(120):
        formula = random_functional_formula(rng, depth=3 + i % 2)
        if i % 2:
            formula = Cat(Star(Any()), Cat(formula, Star(Any())))
        cases.append((compile_regex(formula), random_doc(rng, 8, alphabet="abc")))
    matched = 0
    for automaton, doc in cases:
        graph = build_match_graph(automaton, doc)
        assert (graph.node_count, graph.edge_count) == brute_force_graph_size(automaton, doc)
        matched += not graph.empty
    assert matched >= 40


# ---------------------------------------------------------------------------
# Enumeration order (pinned)
# ---------------------------------------------------------------------------


def test_marker_automaton_order_on_aa():
    assert spans_of(marker_automaton(), "aa") == [
        "3..3", "2..3", "2..2", "1..3", "1..2", "1..1",
    ]


def test_all_substrings_order_on_aaa():
    a = compile_regex(parse_formula("a* x{a*} a*"))
    assert spans_of(a, "aaa") == [
        "4..4", "3..4", "3..3",
        "2..4", "2..3", "2..2",
        "1..4", "1..3", "1..2", "1..1",
    ]


def test_enumeration_is_deterministic():
    """Two runs give the same duplicate-free stream in canonical order.  On
    the periodic documents one memoized split serves the frontier sets of
    many positions."""
    for formula, doc in [
        (".* x{.*} .* y{.*} .*", "abab"),
        (".* x{.*} .* y{.*} .*", "abab" * 3),
        (".* x{a+} .* y{b+} .*", "bbbabbbaaaaabbaababb"),
        (".* x{a .*} .* | .* x{.* b} .*", "abbab" * 4),
        (".* x{ab} .*", "abcc" * 250),
        (".* x{a+} .* y{b+} .*", "aab" * 40),
    ]:
        a = compile_regex(parse_formula(formula))
        first = list(enumerate_spans(a, doc))
        assert first
        assert list(enumerate_spans(a, doc)) == first
        assert_canonical_order(first, len(doc), sorted(a.variables))


# ---------------------------------------------------------------------------
# Exponentially ambiguous automata yield each tuple once
# ---------------------------------------------------------------------------


def test_diamond_automaton_single_tuple():
    """Two interleaving accepting paths per letter, one tuple out."""
    assert spans_of(diamond_automaton(), "aaa") == ["1..4"]
    assert spans_of(diamond_automaton(), "") == ["1..1"]


def test_diamond_automaton_on_longer_document():
    doc = "a" * 12  # 2**12 accepting paths
    assert spans_of(diamond_automaton(), doc) == ["1..13"]


def test_self_union_yields_no_duplicates():
    a = compile_regex(parse_formula(".* x{.*} .*"))
    rows = list(enumerate_spans(union_vsa(a, a), "aba"))
    assert len(rows) == len(set(rows))
    assert set(rows) == relation_of(a, "aba")


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------


def test_empty_document_with_empty_span():
    a = compile_regex(parse_formula("x{ε}"))
    assert list(enumerate_spans(a, "")) == [SpanTuple({"x": Span(1, 1)})]


def test_empty_document_without_match():
    a = compile_regex(parse_formula("a x{ε}"))
    assert list(enumerate_spans(a, "")) == []


def test_empty_document_keeps_the_largest_node_set():
    """``max_node_set`` is a maximum over every run with the same stats,
    the empty document's one-node run included."""
    a = compile_regex(parse_formula(".* x{.*} .* | x{a*} .*"))
    stats = EnumerationStats()
    list(enumerate_spans(a, "aaab", stats))
    assert stats.max_node_set == 2
    assert list(enumerate_spans(a, "", stats)) == [SpanTuple({"x": Span(1, 1)})]
    assert stats.max_node_set == 2
    fresh = EnumerationStats()
    list(enumerate_spans(a, "", fresh))
    assert fresh.max_node_set == 1


def test_variable_free_automaton_yields_empty_tuple():
    a = compile_regex(parse_formula("a*"))
    assert list(enumerate_spans(a, "aa")) == [EMPTY_TUPLE]
    assert list(enumerate_spans(a, "")) == [EMPTY_TUPLE]


def test_variable_free_automaton_without_match():
    a = compile_regex(parse_formula("b"))
    assert list(enumerate_spans(a, "aa")) == []


def test_empty_language_automaton():
    a = compile_regex(parse_formula("∅ x{a}"))
    assert list(enumerate_spans(a, "a")) == []


# ---------------------------------------------------------------------------
# Work counters
# ---------------------------------------------------------------------------


def test_stats_counts_tuples_and_accumulates():
    a = compile_regex(parse_formula("a* x{a*} a*"))
    stats = EnumerationStats()
    assert len(list(enumerate_spans(a, "aaa", stats))) == 10
    assert stats.tuples == 10
    assert stats.max_node_set >= 1
    assert stats.fill_steps > 0
    list(enumerate_spans(a, "aaa", stats))
    assert stats.tuples == 20


STATS_FIELDS = ("tuples", "scan_steps", "fill_steps", "cold_transitions",
                "max_node_set")


@pytest.mark.parametrize("formula, after_first, after_all", [
    (".* x{.*} .* y{.*} .*", (1, 0, 1, 11, 1), (70, 50, 35, 11, 1)),
    (".* x{a .*} .* | .* x{.* b} .*", (1, 0, 1, 14, 3), (9, 13, 7, 14, 3)),
])
def test_stats_are_pinned(formula, after_first, after_all):
    """Exact work counters on "abab", after the first tuple and at the end.
    ``cold_transitions`` counts the frontier-set steps computed, one per set
    and (symbol, alive layer), whichever slabs share it."""
    stats = EnumerationStats()
    gen = enumerate_spans(compile_regex(parse_formula(formula)), "abab", stats)
    next(gen)
    assert tuple(getattr(stats, f) for f in STATS_FIELDS) == after_first
    list(gen)
    assert tuple(getattr(stats, f) for f in STATS_FIELDS) == after_all


@pytest.mark.parametrize("formula", [".* x{.*} .*", ".* x{.*} .* y{.*} .*"])
def test_all_spans_counters_have_a_closed_form(formula):
    """On every tuple of spans over L symbols, k variables in a row, the
    stream has C(L + 2k, 2k) rows, enters C(L + 2k - 1, 2k) runs and takes
    C(L + 2k - 1, 2k) + C(L + 2k - 2, 2k) scan steps, the runs whose only
    change point is at the last slab included.  (At L = 1 no run is
    entered.)"""
    automaton = compile_regex(parse_formula(formula))
    bounds = 2 * len(automaton.variables)
    for length in range(2, 13):
        stats = EnumerationStats()
        rows = list(enumerate_spans(automaton, ("abc" * length)[:length], stats))
        assert len(rows) == comb(length + bounds, bounds)
        assert (stats.tuples, stats.fill_steps, stats.scan_steps) == (
            comb(length + bounds, bounds), comb(length + bounds - 1, bounds),
            comb(length + bounds - 1, bounds) + comb(length + bounds - 2, bounds)), length


def test_steps_per_tuple_do_not_grow_with_the_document():
    """The same density of matches at 2k and 8k chars costs the same walk
    per result: each result enters at most 2·|variables| + 1 runs."""
    a = compile_regex(parse_formula(".* x{ab} .*"))
    per_tuple = []
    for length in (2000, 8000):
        stats = EnumerationStats()
        rows = list(enumerate_spans(a, "abcc" * (length // 4), stats))
        assert len(rows) == stats.tuples == length // 4
        per_tuple.append((stats.scan_steps + stats.fill_steps) / stats.tuples)
    short, long = per_tuple
    assert long <= short < 6


def work_between_results(formula, doc):
    """The largest scan + fill steps between two consecutive results, and
    the number of results."""
    stats = EnumerationStats()
    largest = 0
    before = None
    for _ in enumerate_spans(compile_regex(parse_formula(formula)), doc, stats):
        now = stats.scan_steps + stats.fill_steps
        if before is not None:
            largest = max(largest, now - before)
        before = now
    return largest, stats.tuples


@pytest.mark.parametrize("formula, alphabet, lengths, most", [
    pytest.param(".* x{ab} .*", "abc", (2000, 20000), 5, id="sparse"),
    pytest.param(".* x{.*} .*", "ab", (100, 300), 3, id="dense"),
])
def test_work_between_results_does_not_grow_with_the_document(
        formula, alphabet, lengths, most):
    """The delay claim without timing: the most walk steps between two
    results is the same on a short and a ten times longer document, and
    within 3 per run of a result (at most 2·|variables| + 1 runs)."""
    rng = random.Random(11)
    seen = []
    for length in lengths:
        doc = "".join(rng.choice(alphabet) for _ in range(length))
        largest, tuples = work_between_results(formula, doc)
        assert tuples > 10
        seen.append(largest)
    assert seen == [most, most]
    n_vars = len(compile_regex(parse_formula(formula)).variables)
    assert most <= 3 * (2 * n_vars + 1)


def test_allowance_covers_a_long_sparse_document():
    """The run index of a 300k-char random text costs little: each distinct
    frontier set is stepped once per (symbol, alive layer), not once per
    position.  The rows are the occurrences of "ab", latest first."""
    rng = random.Random(2024)
    doc = "".join(rng.choice("abc") for _ in range(300_000))
    stats = EnumerationStats()
    rows = list(enumerate_spans(compile_regex(parse_formula(".* x{ab} .*")), doc, stats))
    assert stats.cold_transitions < 100
    found = []
    at = doc.find("ab")
    while at >= 0:
        found.append(SpanTuple({"x": Span(at + 1, at + 3)}))
        at = doc.find("ab", at + 1)
    assert rows == found[::-1]


def test_run_index_is_built_under_subset_growth():
    """``.* x{a} .* a (a|b)^12 .*`` reaches many distinct frontier sets on
    a random text (77,356 set steps on this one, though no set holds more
    than 15 nodes): every step is taken before the first result, and the
    rows are each "a" followed later by an "a" with at least 12 letters
    after it, latest first."""
    rng = random.Random(7)
    doc = "".join(rng.choice("ab") for _ in range(20_000))
    formula = ".* x{a} .* a " + "(a|b)" * 12 + " .*"
    stats = EnumerationStats()
    gen = enumerate_spans(compile_regex(parse_formula(formula)), doc, stats)
    rows = [next(gen)]
    cold_at_first = stats.cold_transitions
    rows += gen
    assert stats.cold_transitions == cold_at_first
    last_a = doc.rfind("a", 0, len(doc) - 12)
    assert rows == [SpanTuple({"x": Span(p + 1, p + 2)})
                    for p in range(last_a - 1, -1, -1) if doc[p] == "a"]


def test_prewarm_charges_nothing_for_repeated_frontiers():
    """A slab whose frontier recurs, no set with a choice there, costs a
    lookup and no frontier-set step: one match in a long run of c's costs
    the same at any length."""
    a = compile_regex(parse_formula(".* x{ab} .*"))
    charged = []
    for pad in (1000, 10000):
        stats = EnumerationStats()
        rows = list(enumerate_spans(a, "c" * pad + "ab" + "c" * pad, stats))
        assert rows == [SpanTuple({"x": Span(pad + 1, pad + 3)})]
        charged.append(stats.cold_transitions)
    assert charged[0] == charged[1]


def test_no_cold_transitions_after_first_result():
    """Every frontier transition is memoized before the first tuple is
    handed out."""
    a = compile_regex(parse_formula(".* x{.*} .* y{.*} .*"))
    stats = EnumerationStats()
    gen = enumerate_spans(a, "abab", stats)
    next(gen)
    cold_at_first = stats.cold_transitions
    rest = list(gen)
    assert rest  # the stream had more to say
    assert stats.cold_transitions == cold_at_first


def test_two_variable_stream_on_a_longer_document():
    """Runs whose change points merge into shared ones, past the oracle's
    reach: every (x, y) with x in a+ before y in b+, in canonical order."""
    doc = "bbbabbbaaaaabbaababb" * 2
    rows = list(enumerate_spans(compile_regex(parse_formula(".* x{a+} .* y{b+} .*")), doc))
    uniform = {letter: [Span(i, j) for i in range(1, len(doc) + 1)
                        for j in range(i + 1, len(doc) + 2)
                        if set(doc[i - 1:j - 1]) == {letter}]
               for letter in "ab"}
    assert {(row["x"], row["y"]) for row in rows} == {
        (x, y) for x in uniform["a"] for y in uniform["b"] if x.end <= y.begin}
    assert_canonical_order(rows, len(doc), "xy")


# ---------------------------------------------------------------------------
# Random battery against the ref-word oracle
# ---------------------------------------------------------------------------


def test_enumeration_matches_relation_semantics():
    rng = random.Random(90210)
    for _ in range(60):
        formula = random_functional_formula(rng, depth=3)
        a = compile_regex(formula)
        doc = random_doc(rng, 5)
        rows = list(enumerate_spans(a, doc))
        assert len(rows) == len(set(rows)), (formula, doc)
        for row in rows:
            assert set(row.variables) == a.variables


def test_every_reported_span_is_within_the_document():
    rng = random.Random(555)
    for _ in range(40):
        formula = random_functional_formula(rng, depth=3, require_vars=True)
        doc = random_doc(rng, 6)
        for row in enumerate_spans(compile_regex(formula), doc):
            for v in row.variables:
                s = row[v]
                assert 1 <= s.begin <= s.end <= len(doc) + 1, (formula, doc)

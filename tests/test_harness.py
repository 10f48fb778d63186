"""Tests for the brute-force oracle and the reduction-based generators."""

import random

import pytest

from spanex.compiler import compile_regex
from spanex.formula import parse_formula
from spanex.harness import (
    brute_force_sat, clique_document, gen_3cnf_query, gen_clique_query,
    gen_streq_clique_query,
)
from spanex.model import EMPTY_TUPLE, Span, SpanTuple
from spanex.query import eval_query

from helpers import (
    marker_automaton, random_doc, random_functional_formula, relation_of,
    span_set,
)
from oracle import brute_force_clique, oracle_enumerate


def is_satisfied(query, doc) -> bool:
    return list(eval_query(query, doc)) == [EMPTY_TUPLE]


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def test_oracle_all_substrings_on_aaa():
    rows = oracle_enumerate(parse_formula("a* x{a*} a*"), "aaa")
    assert span_set(rows) == {(i, j) for i in range(1, 5) for j in range(i, 5)}
    assert len(rows) == 10


def test_oracle_on_marker_automaton():
    rows = oracle_enumerate(marker_automaton(), "aa")
    assert span_set(rows) == {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)}


def test_oracle_on_empty_document():
    assert oracle_enumerate(parse_formula("x{ε}"), "") == [
        SpanTuple({"x": Span(1, 1)})
    ]
    assert oracle_enumerate(parse_formula("x{a}"), "") == []


def test_oracle_guard_rails():
    too_many = parse_formula("w{a} x{a} y{a} z{a}")
    with pytest.raises(ValueError):
        oracle_enumerate(too_many, "aaaa")
    with pytest.raises(ValueError):
        oracle_enumerate(parse_formula("x{a*}"), "a" * 9)
    with pytest.raises(TypeError):
        oracle_enumerate("x{a}", "a")


def test_oracle_agrees_between_formula_and_compiled_form():
    rng = random.Random(424242)
    for _ in range(25):
        formula = random_functional_formula(rng, depth=3)
        doc = random_doc(rng, 5)
        direct = oracle_enumerate(formula, doc)
        compiled = oracle_enumerate(compile_regex(formula), doc)
        assert direct == compiled, (formula, doc)


def test_oracle_agrees_with_engine_on_small_battery():
    rng = random.Random(31337)
    for _ in range(25):
        formula = random_functional_formula(rng, depth=3)
        doc = random_doc(rng, 5)
        assert set(oracle_enumerate(formula, doc)) == \
            relation_of(compile_regex(formula), doc), (formula, doc)


# ---------------------------------------------------------------------------
# Satisfiability reduction
# ---------------------------------------------------------------------------


def test_single_clause_is_satisfiable():
    query, doc = gen_3cnf_query([(1, 2, 3)])
    assert doc == "a"
    assert is_satisfied(query, doc)


def test_contradiction_is_unsatisfiable():
    query, doc = gen_3cnf_query([(1, 1, 1), (-1, -1, -1)])
    assert not is_satisfied(query, doc)


def test_malformed_clauses_are_rejected():
    with pytest.raises(ValueError):
        gen_3cnf_query([(1, 2)])
    with pytest.raises(ValueError):
        gen_3cnf_query([(1, 0, 2)])
    with pytest.raises(ValueError):
        gen_3cnf_query([(1, 2, "3")])


def test_brute_force_sat_pins():
    assert brute_force_sat([(1, 2, 3)])
    assert not brute_force_sat([(1, 1, 1), (-1, -1, -1)])
    assert brute_force_sat([(1, 2, 3), (-1, -2, -3), (1, -2, 3)])
    assert brute_force_sat([])  # no clauses, vacuously true


def random_3cnf(rng: random.Random, max_vars=5, max_clauses=6):
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        clauses.append(tuple(rng.choice([1, -1]) * rng.randint(1, n)
                             for _ in range(3)))
    return clauses


def test_sat_verdicts_match_brute_force():
    rng = random.Random(60601)
    for _ in range(15):
        clauses = random_3cnf(rng)
        query, doc = gen_3cnf_query(clauses)
        assert is_satisfied(query, doc) == brute_force_sat(clauses), clauses


# ---------------------------------------------------------------------------
# Clique document encoding
# ---------------------------------------------------------------------------


def test_clique_document_layout():
    triangle = (3, [(1, 2), (1, 3), (2, 3)])
    # two-symbol node codes: 1 -> aa, 2 -> ab, 3 -> ba; blocks in edge order
    assert clique_document(triangle) == "[aa#ab][aa#ba][ab#ba]"


def test_clique_document_normalizes_edges():
    assert clique_document((3, [(2, 1), (1, 2), (3, 1)])) == "[aa#ab][aa#ba]"
    assert clique_document((2, [(1, 2)])) == "[a#b]"
    assert clique_document((4, [])) == ""


def test_clique_document_rejects_bad_edges():
    with pytest.raises(ValueError):
        clique_document((2, [(1, 3)]))
    with pytest.raises(ValueError):
        clique_document((2, [(1, 1)]))


# ---------------------------------------------------------------------------
# Clique reductions, both flavours
# ---------------------------------------------------------------------------

TRIANGLE = (3, [(1, 2), (1, 3), (2, 3)])
PATH_4 = (4, [(1, 2), (2, 3), (3, 4)])
K_4 = (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
# has all three "first two slots" block patterns but no triangle
ALMOST = (4, [(1, 2), (1, 3), (2, 4)])


@pytest.mark.parametrize("generate", [gen_clique_query, gen_streq_clique_query])
def test_clique_reduction_verdicts(generate):
    for graph, k, want in [
        (TRIANGLE, 3, True),
        (PATH_4, 3, False),
        (K_4, 4, True),
        (K_4, 3, True),
        (ALMOST, 3, False),
        ((1, []), 2, False),
    ]:
        query, doc = generate(graph, k)
        assert is_satisfied(query, doc) == want, (graph, k)


@pytest.mark.parametrize("generate", [gen_clique_query, gen_streq_clique_query])
def test_clique_size_must_be_at_least_two(generate):
    with pytest.raises(ValueError):
        generate(TRIANGLE, 1)


def test_brute_force_clique_pins():
    assert brute_force_clique(TRIANGLE, 3)
    assert not brute_force_clique(PATH_4, 3)
    assert brute_force_clique(K_4, 4)
    assert not brute_force_clique(K_4, 5)
    assert not brute_force_clique(ALMOST, 3)


def random_graph(rng: random.Random, max_nodes=6):
    n = rng.randint(3, max_nodes)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < 0.5]
    return (n, edges)


def test_clique_reductions_match_brute_force():
    rng = random.Random(808)
    for _ in range(8):
        graph = random_graph(rng)
        want = brute_force_clique(graph, 3)
        for generate in (gen_clique_query, gen_streq_clique_query):
            query, doc = generate(graph, 3)
            assert is_satisfied(query, doc) == want, (graph, generate.__name__)

"""Acceptance suite: one test per release criterion.

Each test is self-contained and checks one end-to-end guarantee of the
engine, at the stated tolerance, so a ``pytest -v`` run of this file reads
as the release checklist.
"""

import random
import statistics
import time

from spanex.cli import main as cli_main
from spanex.compiler import (
    apply_selections, build_equality_automaton, compile_regex, is_key_attribute,
    join, project, union_vsa,
)
from spanex.enumerator import enumerate_graph, enumerate_spans
from spanex.formula import Any, Cat, Star, parse_formula
from spanex.harness import (
    brute_force_sat, gen_3cnf_query, gen_clique_query, gen_streq_clique_query,
)
from spanex.model import EMPTY_TUPLE, Span, SpanTuple
from spanex.query import (
    ConjunctiveQuery, UnionQuery, compile_cq, compile_query, eval_canonical, eval_query,
    query_to_source,
)

from helpers import (
    marker_automaton, all_docs, brute_force_key, diamond_automaton, filter_rows,
    is_functional, join_rows, project_rows, random_doc, random_functional_formula,
    relation_of, span_set,
)
from oracle import brute_force_clique, expand_strict, oracle_enumerate


def test_criterion_1_worked_example_exactness():
    """The two hand-worked examples come out exactly, in under a second."""
    t0 = time.perf_counter()
    substrings = compile_regex(parse_formula("a* x{a*} a*"))
    got = span_set(relation_of(substrings, "aaa"))
    assert got == {(i, j) for i in range(1, 5) for j in range(i, 5)}
    assert len(got) == 10

    marker = span_set(relation_of(marker_automaton(), "aa"))
    assert marker == {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)}
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_oracle_equivalence():
    """200 random functional formulas × small documents: the streaming
    enumeration set-equals the brute-force oracle.  Zero mismatches, < 60 s."""
    t0 = time.perf_counter()
    rng = random.Random(200_200)
    for i in range(200):
        formula = random_functional_formula(rng, depth=4)
        doc = random_doc(rng, 6)
        engine = set(enumerate_spans(compile_regex(formula), doc))
        oracle = set(oracle_enumerate(formula, doc))
        assert engine == oracle, (i, formula, doc)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_3_algebra_equivalence():
    """100 random instances per algebra operation, each set-equal to the
    corresponding relational oracle on materialized relations."""
    rng = random.Random(303_303)

    for _ in range(100):  # projection
        formula = random_functional_formula(rng, depth=3, require_vars=True)
        a = compile_regex(formula)
        keep = {v for v in a.variables if rng.random() < 0.5}
        doc = random_doc(rng, 5)
        assert relation_of(project(a, keep), doc) == \
            project_rows(relation_of(a, doc), keep), (formula, keep, doc)

    checked = 0
    while checked < 100:  # union
        a1 = compile_regex(random_functional_formula(rng, depth=3))
        a2 = compile_regex(random_functional_formula(rng, depth=3))
        if a1.variables != a2.variables:
            continue
        doc = random_doc(rng, 5)
        assert relation_of(union_vsa(a1, a2), doc) == \
            relation_of(a1, doc) | relation_of(a2, doc), doc
        checked += 1

    for _ in range(100):  # join
        f1 = random_functional_formula(rng, depth=3)
        f2 = random_functional_formula(rng, depth=3)
        doc = random_doc(rng, 5)
        got = relation_of(join(compile_regex(f1), compile_regex(f2)), doc)
        want = join_rows(relation_of(compile_regex(f1), doc),
                         relation_of(compile_regex(f2), doc))
        assert got == want, (f1, f2, doc)

    checked = 0
    while checked < 100:  # string-equality selection
        formula = random_functional_formula(rng, depth=4, require_vars=True)
        a = compile_regex(formula)
        if len(a.variables) < 2:
            continue
        pair = tuple(sorted(rng.sample(sorted(a.variables), 2)))
        doc = random_doc(rng, 5)
        got = relation_of(apply_selections(a, [pair], doc), doc)
        want = filter_rows(relation_of(a, doc), [pair], doc)
        assert got == want, (formula, pair, doc)
        checked += 1


def test_criterion_4_functionality_preservation():
    """Every constructor and combinator output stays a functional automaton."""
    rng = random.Random(404_404)
    union_checked = 0
    for _ in range(100):
        f1 = random_functional_formula(rng, depth=3)
        f2 = random_functional_formula(rng, depth=3)
        a1, a2 = compile_regex(f1), compile_regex(f2)
        assert is_functional(a1), f1
        assert is_functional(a2), f2

        keep = {v for v in a1.variables if rng.random() < 0.5}
        assert is_functional(project(a1, keep)), (f1, keep)

        joined = join(a1, a2)
        assert is_functional(joined), (f1, f2)
        assert is_functional(expand_strict(joined)), (f1, f2)

        if a1.variables == a2.variables:
            assert is_functional(union_vsa(a1, a2)), (f1, f2)
            union_checked += 1

        doc = random_doc(rng, 5)
        eq = build_equality_automaton(doc, [("x", "y")])
        assert is_functional(eq), doc
    assert union_checked >= 25  # sampled pairs do collide on variable sets


def test_criterion_5_duplicate_freeness():
    """An automaton with 2^16 accepting paths still yields its one tuple,
    fast; self-union never repeats a tuple."""
    t0 = time.perf_counter()
    doc = "a" * 16
    rows = list(enumerate_spans(diamond_automaton(), doc))
    assert rows == [SpanTuple({"x": Span(1, 17)})]
    assert time.perf_counter() - t0 < 1.0

    rng = random.Random(505_505)
    for _ in range(30):
        a = compile_regex(random_functional_formula(rng, depth=3))
        doc = random_doc(rng, 5)
        rows = list(enumerate_spans(union_vsa(a, a), doc))
        assert len(rows) == len(set(rows))
        assert set(rows) == relation_of(a, doc)


def test_criterion_6_hardness_reduction_fixtures():
    """Reduction instances decide like the brute-force deciders: 50 random
    3CNF formulas and 20 random graphs through both clique encodings."""
    rng = random.Random(606_606)

    def satisfied(query, doc):
        return list(eval_query(query, doc)) == [EMPTY_TUPLE]

    for i in range(50):
        n = rng.randint(1, 10)
        clauses = [tuple(rng.choice([1, -1]) * rng.randint(1, n)
                         for _ in range(3))
                   for _ in range(rng.randint(1, 20))]
        query, doc = gen_3cnf_query(clauses)
        assert satisfied(query, doc) == brute_force_sat(clauses), (i, clauses)

    for i in range(20):
        n = rng.randint(3, 8)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < 0.45]
        graph = (n, edges)
        want = brute_force_clique(graph, 3)
        for generate in (gen_clique_query, gen_streq_clique_query):
            query, doc = generate(graph, 3)
            assert satisfied(query, doc) == want, (i, graph, generate.__name__)


def test_criterion_7_delay_and_scale(tmp_path):
    """All 125,751 spans of a 500-symbol document stream out in under 30 s,
    with max inter-tuple delay within 50× the median (per the bench report).

    The delays are those of three runs, each tuple's gap the smallest of its
    three.  The engine is deterministic, so a real stall lands on the same
    tuple in every run and survives the minimum, while the scheduler
    preemptions this host occasionally bills to the process land on
    different tuples in each run.
    """
    doc_path = tmp_path / "doc.txt"
    doc_path.write_text("ab" * 250)
    fastest = None
    for attempt in range(3):
        report = tmp_path / f"delays-{attempt}.csv"
        t0 = time.perf_counter()
        code = cli_main(["bench", "--query-text", "SELECT x FROM /.* x{.*} .*/",
                         "--input", str(doc_path), "--report", str(report)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 30.0, f"run {attempt}: {elapsed:.1f}s"

        gaps = []
        rows = {}
        for line in report.read_text().splitlines()[1:]:
            metric, _, value = line.split(",")
            if metric == "tuple":
                gaps.append(int(value))
            else:
                rows[metric] = int(value)
        assert rows["tuple_count"] == 125_751
        assert len(gaps) == 125_750
        fastest = gaps if fastest is None else list(map(min, fastest, gaps))
    ratio = max(fastest) / max(statistics.median(fastest), 1)
    assert ratio <= 50.0, f"max/median of the per-tuple fastest gaps {ratio:.1f}"


def test_criterion_8_strategy_agreement():
    """100 random conjunctive queries, and 100 unions of 2-3 of them under one
    projection: the materialize-and-join evaluation and the single-graph
    evaluation return the same tuple lists."""
    rng = random.Random(808_808)
    pool = ("x", "y", "z")
    cqs = []
    for i in range(100):
        atoms = tuple(random_functional_formula(rng, depth=2, variables=pool)
                      for _ in range(rng.randint(1, 3)))
        cq_vars = sorted(ConjunctiveQuery((), atoms).variables)
        projection = tuple(v for v in cq_vars if rng.random() < 0.7)
        equalities = ()
        if len(cq_vars) >= 2 and rng.random() < 0.5:
            equalities = (tuple(rng.sample(cq_vars, 2)),)
        cq = ConjunctiveQuery(projection, atoms, equalities)
        cq.validate()
        doc = random_doc(rng, 6)
        want = eval_canonical(cq, doc)
        got = list(enumerate_graph(compile_cq(cq, doc)))
        assert got == want, (i, atoms, equalities, doc)
        cqs.append(cq)
    equated = [cq for cq in cqs if cq.equalities]
    anywhere = Star(Any())
    with_equality = answered = 0
    for i in range(100):
        # every other union has a disjunct with an equality; the atoms are
        # unanchored, so that disjuncts answer on the same document
        chosen = rng.sample(cqs, rng.randint(1, 2)) + [rng.choice(equated if i % 2 else cqs)]
        shared = sorted(frozenset.intersection(*(cq.variables for cq in chosen)))
        projection = tuple(v for v in shared if rng.random() < 0.7)
        query = UnionQuery(tuple(
            ConjunctiveQuery(projection,
                             tuple(Cat(anywhere, Cat(atom, anywhere)) for atom in cq.atoms),
                             cq.equalities)
            for cq in chosen))
        with_equality += any(cq.equalities for cq in chosen)
        doc = random_doc(rng, 6)
        graph, canonical = compile_query(query, doc)
        assert canonical == []
        want = list(eval_query(query, doc, strategy="canonical"))
        assert list(enumerate_graph(graph)) == want, (i, query_to_source(query), doc)
        answered += bool(want)
    assert with_equality >= 50 and answered >= 50


def test_criterion_9_key_attribute_decision():
    """Key-attribute verdicts match the brute-force definition on small
    documents, and every non-key verdict carries a checkable witness."""
    rng = random.Random(909_909)
    docs = list(all_docs("ab", 4))
    checked = non_keys = 0
    while checked < 50:
        formula = random_functional_formula(rng, depth=6, require_vars=True)
        automaton = compile_regex(formula)
        for var in sorted(automaton.variables):
            report = is_key_attribute(automaton, var)
            assert report.is_key == brute_force_key(automaton, var, docs), \
                (formula, var)
            if not report.is_key:
                non_keys += 1
                doc, left, right = report.witness
                rows = relation_of(automaton, doc)
                assert left in rows and right in rows, (formula, var)
                assert left != right
                assert left[var] == right[var]
        checked += 1
    assert non_keys >= 1

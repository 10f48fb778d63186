"""Tests for compilation and the spanner algebra: projection, union, join,
strict expansion, and string-equality selection."""

import importlib.util
import itertools
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from spanex.compiler import (
    EqualityBudgetError, _closing_lengths, _waiting_classes, apply_selections,
    build_equality_automaton, check_functional, compile_regex, equality_graph, join,
    join_many, project, union_vsa,
)
from spanex.enumerator import enumerate_graph, enumerate_spans
from spanex.formula import (
    Any, Bind, Cat, Empty, Star, formula_nodes, formula_variables, parse_formula,
)
from spanex.harness import gen_3cnf_query
from spanex.model import (
    CLOSED, EMPTY_TUPLE, OPEN, WAITING, Span, SpanTuple, all_spans, close_op, open_op,
)
from spanex.query import PlanOptions, compile_cq, eval_canonical, parse_query
from spanex.vsa import ANY, NormalForm, NotFunctionalError, normal_form, trim

from helpers import (
    assert_normal_form, filter_rows, is_functional, join_rows, project_rows, random_doc,
    random_formula, random_functional_formula, relation_of, span_set, thompson_automaton,
)
from oracle import expand_strict


# ---------------------------------------------------------------------------
# compile_regex
# ---------------------------------------------------------------------------


def test_compile_all_substrings():
    a = compile_regex(parse_formula("a* x{a*} a*"))
    assert span_set(relation_of(a, "aaa")) == {
        (i, j) for i in range(1, 5) for j in range(i, 5)
    }


def test_compile_empty_formula_language():
    assert normal_form(compile_regex(parse_formula("∅"))).configs is None
    assert relation_of(compile_regex(parse_formula("∅ x{a}")), "a") == set()


def test_compile_rejects_non_functional():
    with pytest.raises(NotFunctionalError):
        compile_regex(parse_formula("x{a}x{a}"))
    with pytest.raises(NotFunctionalError):
        compile_regex(parse_formula("x{a}x{a}"), check=False)
    # an automaton of the formula is checked by the configuration search
    assert not check_functional(thompson_automaton(parse_formula("x{a}x{a}"))).ok


FORMULA_REASONS = ("variable opened twice", "conflicting configurations",
                   "variable not closed at the final state")


def _form_or_verdict(automaton):
    """The normal form's states, configurations and multiset of edges, or
    None when the automaton is not functional."""
    try:
        form = normal_form(automaton)
    except NotFunctionalError:
        return None
    return form.n_states, form.configs, Counter(form.edges)


def _compiled_or_verdict(formula):
    try:
        return _form_or_verdict(compile_regex(formula))
    except NotFunctionalError:
        return None


def test_construction_has_the_normal_form_of_thompsons():
    """The normal form the position construction reads off the syntax tree
    is the one the configuration search finds in Thompson's construction:
    the same states, configurations and edges (up to order), and the same
    verdict.  On a formula that is not functional, the tree names one of
    the three formula reasons and a variable of the formula.  A ``+``
    shares its operand between a concatenation and a star, and each
    occurrence of a letter is a position of its own."""
    rng = random.Random(2718)
    formulas = [random_formula(rng, depth=rng.choice((3, 4, 5)), variables=("x", "y", "z"))
                for _ in range(600)]
    for variables in ((), ("x",), ("x", "y")):
        for _ in range(40):
            shared = random_formula(rng, depth=3, variables=variables)
            formulas.append(Cat(shared, Star(shared)))
            formulas.append(Bind("z", Cat(shared, Star(shared))))
    formulas += map(parse_formula, ("a+", "x{a+} (b|c)+ y{ε}", "(x{a} b+)+", "(a|∅)+ x{.+}"))
    verdicts = Counter()
    for formula in formulas:
        want = _form_or_verdict(thompson_automaton(formula))
        assert _compiled_or_verdict(formula) == want, formula
        if want is None:
            violation = check_functional(formula).violation
            assert violation.reason in FORMULA_REASONS, formula
            assert violation.variable in formula_variables(formula), formula
            verdicts[violation.reason] += 1
        verdicts["functional" if want is not None else "not functional"] += 1
        verdicts["∅"] += any(isinstance(node, Empty) for node in formula_nodes(formula))
        verdicts["+"] += (type(formula) is Cat
                          and formula.left is getattr(formula.right, "inner", None))
    assert verdicts["functional"] > 350 and verdicts["not functional"] > 150
    assert all(verdicts[reason] > 10 for reason in FORMULA_REASONS), verdicts
    assert verdicts["∅"] > 50 and verdicts["+"] > 100
    for signs in itertools.product((1, -1), repeat=3):
        query, _ = gen_3cnf_query([(signs[0], 2 * signs[1], 3 * signs[2]),
                                   (2, -4, 5), (-1, 3, 6)])
        for atom in query.disjuncts[0].atoms:
            want = _form_or_verdict(thompson_automaton(atom))
            assert want is not None and _compiled_or_verdict(atom) == want, atom


def _moves(*pairs):
    return tuple((src, None, dst) for src, dsts in pairs for dst in dsts)


@pytest.mark.parametrize("text, edges", [
    (".* x{.*} .*",
     ((2, ANY, 5), (3, ANY, 6), (4, ANY, 7))
     + _moves((0, (2, 3, 4, 1)), (5, (2, 3, 4, 1)), (6, (3, 4, 1)), (7, (4, 1)))),
    (".* x{ab} .*",
     ((2, ANY, 6), (3, "a", 7), (4, "b", 8), (5, ANY, 9))
     + _moves((0, (2, 3)), (6, (2, 3)), (7, (4,)), (8, (5, 1)), (9, (5, 1)))),
    (".* x{.*} .* y{.*} .*",
     tuple((2 + i, ANY, 7 + i) for i in range(5))
     + _moves((0, (2, 3, 4, 5, 6, 1)), (7, (2, 3, 4, 5, 6, 1)), (8, (3, 4, 5, 6, 1)),
              (9, (4, 5, 6, 1)), (10, (5, 6, 1)), (11, (6, 1)))),
])
def test_benchmark_atoms_keep_their_edge_order(text, edges):
    """The letters in position order, then each state's marker moves, the
    initial state's first and then the target copies', each to the source
    copies in position order and last to the final state: the order the
    join numbers its pairs by, and so the order of every product."""
    assert compile_regex(parse_formula(text)).edges == edges


@pytest.mark.parametrize("text", [
    "(" * 2000 + "a" + ")" * 2000,
    "(" * 2000 + "a" + ")*" * 2000,
    "".join(f"x{i}{{" for i in range(300)) + "a" + "}" * 300,
    "a" * 20_000,
], ids=["parentheses", "stars", "binds", "letters"])
def test_deep_and_long_formulas_compile(text):
    """The construction walks the formula on a list, not the call stack."""
    form = compile_regex(parse_formula(text))
    assert form.n_states > 2 and form.configs[form.final] == (CLOSED,) * len(form.variables)


def test_compiled_outputs_are_functional():
    rng = random.Random(5150)
    for _ in range(40):
        formula = random_functional_formula(rng)
        assert is_functional(compile_regex(formula)), formula


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


def test_project_nested_variable_matches_direct_formula():
    nested = compile_regex(parse_formula(".* x{.* y{.*} .*} .*"))
    direct = compile_regex(parse_formula(".* x{.*} .*"))
    assert relation_of(project(nested, {"x"}), "ab") == relation_of(direct, "ab")


def test_project_identity_and_boolean():
    a = compile_regex(parse_formula("x{a}.*"))
    assert relation_of(project(a, {"x"}), "ab") == relation_of(a, "ab")
    boolean = project(a, set())
    assert relation_of(boolean, "ab") == {EMPTY_TUPLE}
    assert relation_of(boolean, "b") == set()


def test_project_onto_every_variable_is_the_normal_form_itself():
    a = compile_regex(parse_formula(".* x{a} .* y{.*} .*"))
    assert project(a, a.variables) is normal_form(a)
    assert project(a, {"x", "y"}) is a


def test_project_unknown_variable():
    a = compile_regex(parse_formula("x{a}"))
    with pytest.raises(ValueError):
        project(a, {"z"})


def test_project_matches_relational_oracle():
    rng = random.Random(314)
    for _ in range(60):
        formula = random_functional_formula(rng, require_vars=True)
        a = compile_regex(formula)
        doc = random_doc(rng, 5)
        keep = {v for v in a.variables if rng.random() < 0.5}
        projected = project(a, keep)
        assert relation_of(projected, doc) == project_rows(
            relation_of(a, doc), keep), (formula, doc, keep)
        if projected.configs is not None:
            assert_normal_form(projected)


# ---------------------------------------------------------------------------
# union
# ---------------------------------------------------------------------------


def test_union_two_anchored_matches():
    u = union_vsa(compile_regex(parse_formula("x{a}.*")),
                  compile_regex(parse_formula(".*x{a}")))
    assert span_set(relation_of(u, "aa")) == {(1, 2), (2, 3)}


def test_union_self_is_duplicate_free():
    a = compile_regex(parse_formula(".* x{.*} .*"))
    u = union_vsa(a, a)
    rows = list(enumerate_spans(u, "ab"))
    assert len(rows) == len(set(rows))
    assert set(rows) == relation_of(a, "ab")


def test_union_fifty_pinned_branches():
    doc = "a" * 9
    branches = []
    spans = list(all_spans(len(doc)))[:50]
    for span in spans:
        pre = "a" * (span.begin - 1) or "ε"
        body = "a" * (span.end - span.begin) or "ε"
        post = "a" * (len(doc) + 1 - span.end) or "ε"
        branches.append(compile_regex(parse_formula(f"{pre} x{{{body}}} {post}")))
    u = union_vsa(*branches)
    rows = list(enumerate_spans(u, doc))
    assert len(rows) == 50
    assert {row["x"] for row in rows} == set(spans)


def test_union_requires_matching_variables():
    with pytest.raises(ValueError):
        union_vsa(compile_regex(parse_formula("x{a}")),
                  compile_regex(parse_formula("y{a}")))
    with pytest.raises(ValueError):
        union_vsa()


def test_union_matches_set_oracle():
    rng = random.Random(2718)
    checked = 0
    while checked < 50:
        f1 = random_functional_formula(rng, depth=3)
        f2 = random_functional_formula(rng, depth=3)
        a1, a2 = compile_regex(f1), compile_regex(f2)
        if a1.variables != a2.variables:
            continue
        doc = random_doc(rng, 5)
        assert relation_of(union_vsa(a1, a2), doc) == (
            relation_of(a1, doc) | relation_of(a2, doc)), (f1, f2, doc)
        checked += 1


# ---------------------------------------------------------------------------
# join
# ---------------------------------------------------------------------------


def test_join_anchored_pair():
    j = join(compile_regex(parse_formula("x{a}.*")),
             compile_regex(parse_formula(".*y{a}")))
    assert relation_of(j, "aa") == {
        SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})
    }


def test_join_self_identity():
    a = compile_regex(parse_formula(".* x{.*} .*"))
    assert relation_of(join(a, a), "ab") == relation_of(a, "ab")


def test_join_with_conflicting_marker_orders():
    """Two automata whose ref-words disagree on nesting order still join:
    set-labeled operation edges absorb the ordering difference."""
    left = compile_regex(parse_formula("x{y{a}}"))
    right = compile_regex(parse_formula("y{x{a}}"))
    assert relation_of(join(left, right), "a") == {
        SpanTuple({"x": Span(1, 2), "y": Span(1, 2)})
    }


def test_join_with_empty_language():
    a = compile_regex(parse_formula("x{a}"))
    e = compile_regex(parse_formula("∅"))
    j = join(a, e)
    assert j.configs is None
    assert j.variables == {"x"}


def test_join_disjoint_variables_is_cross_product():
    j = join(compile_regex(parse_formula("x{a}b")),
             compile_regex(parse_formula("a y{b}")))
    assert relation_of(j, "ab") == {
        SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})
    }


def test_join_matches_relational_oracle():
    rng = random.Random(161803)
    for _ in range(60):
        f1 = random_functional_formula(rng, depth=3)
        f2 = random_functional_formula(rng, depth=3)
        a1, a2 = compile_regex(f1), compile_regex(f2)
        doc = random_doc(rng, 5)
        got = relation_of(join(a1, a2), doc)
        want = join_rows(relation_of(a1, doc), relation_of(a2, doc))
        assert got == want, (f1, f2, doc)
        assert is_functional(join(a1, a2)), (f1, f2)


def test_join_many_of_one_automaton_is_its_normal_form():
    """A lone automaton is checked and normalized as a joined one is."""
    form = compile_regex(parse_formula(".* x{.} .*"))
    assert join_many([form]) is form
    plain = thompson_automaton(parse_formula(".* x{.} .*"))
    assert isinstance(join_many([plain]), NormalForm)
    assert relation_of(join_many([plain]), "ab") == relation_of(form, "ab")
    not_functional = thompson_automaton(parse_formula("x{a} | b"))
    with pytest.raises(NotFunctionalError):
        join_many([not_functional])
    with pytest.raises(NotFunctionalError):
        join_many([not_functional, form])


def test_join_many_identity_and_associativity():
    rng = random.Random(42424)
    single = compile_regex(parse_formula(".* x{.} .*"))
    assert relation_of(join_many([single]), "ab") == relation_of(single, "ab")
    with pytest.raises(ValueError):
        join_many([])
    for _ in range(25):
        autos = [compile_regex(random_functional_formula(rng, depth=3))
                 for _ in range(3)]
        doc = random_doc(rng, 4)
        left = join(join(autos[0], autos[1]), autos[2])
        right = join(autos[0], join(autos[1], autos[2]))
        rows = join_rows(join_rows(relation_of(autos[0], doc),
                                   relation_of(autos[1], doc)),
                         relation_of(autos[2], doc))
        assert relation_of(left, doc) == rows
        assert relation_of(right, doc) == rows


def test_join_output_is_in_normal_form():
    """Random pairs, wildcards included: the product is again in normal
    form, so a later join reads it as is."""
    rng = random.Random(515_151)
    for _ in range(60):
        f1 = random_functional_formula(rng, depth=3, variables=("x", "y", "z"))
        f2 = random_functional_formula(rng, depth=3, variables=("x", "y", "z"))
        joined = join(compile_regex(f1), compile_regex(f2))
        if joined.configs is not None:
            assert_normal_form(joined)


def test_join_of_3cnf_atoms_stays_small():
    """The product of one 3-clause, 6-variable instance's atoms (110, 46
    and 46 states in Thompson's construction) stays linear in them; pairing
    raw automata gave 4,855 states and 321,615 transitions."""
    query, _ = gen_3cnf_query([(2, -5, 1), (3, -3, 5), (6, 5, -6)])
    atoms = [thompson_automaton(atom) for atom in query.disjuncts[0].atoms]
    assert [atom.n_states for atom in atoms] == [110, 46, 46]
    joined = join_many(atoms)
    assert joined.n_states <= 100
    assert len(joined.transitions) <= 200
    rows = [relation_of(atom, "a") for atom in atoms]
    assert relation_of(joined, "a") == join_rows(join_rows(rows[0], rows[1]), rows[2])


# ---------------------------------------------------------------------------
# expand_strict
# ---------------------------------------------------------------------------


def test_expand_strict_leaves_singletons_alone():
    a = compile_regex(parse_formula("x{a}"))
    expanded = expand_strict(a)
    assert expanded.n_states == a.n_states
    assert relation_of(expanded, "a") == relation_of(a, "a")


def test_expand_strict_chain_order():
    from spanex.vsa import VSA

    a = VSA({"x", "y"}, 2, 0, 1, [
        (0, frozenset([open_op("x"), close_op("y")]), 1),
    ])
    expanded = expand_strict(a)
    assert expanded.n_states == 3
    labels = sorted((src, next(iter(label)), dst)
                    for src, label, dst in expanded.transitions)
    assert labels[0][1] == open_op("x")   # opens come first
    assert labels[1][1] == close_op("y")


def test_expand_strict_preserves_join_results():
    rng = random.Random(88)
    for _ in range(25):
        f1 = random_functional_formula(rng, depth=3)
        f2 = random_functional_formula(rng, depth=3)
        j = join(compile_regex(f1), compile_regex(f2))
        expanded = expand_strict(j)
        doc = random_doc(rng, 4)
        assert relation_of(expanded, doc) == relation_of(j, doc), (f1, f2, doc)
        for _, label, _ in expanded.transitions:
            if isinstance(label, frozenset):
                assert len(label) == 1


# ---------------------------------------------------------------------------
# Equality selection
# ---------------------------------------------------------------------------


def _universal(variables) -> "object":
    source = ".* " + " .* ".join(f"{v}{{.*}}" for v in variables) + " .*"
    return compile_regex(parse_formula(source))


def test_equality_on_aa_includes_and_excludes():
    rows = relation_of(build_equality_automaton("aa", [("x", "y")]), "aa")
    assert SpanTuple({"x": Span(1, 2), "y": Span(2, 3)}) in rows
    assert SpanTuple({"x": Span(1, 3), "y": Span(2, 3)}) not in rows
    # every empty-span pair survives, regardless of relative position
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert SpanTuple({"x": Span(i, i), "y": Span(j, j)}) in rows


def test_equality_on_ab_nonempty_spans():
    rows = relation_of(build_equality_automaton("ab", [("x", "y")]), "ab")
    length_one = {row for row in rows
                  if row["x"].end - row["x"].begin == 1
                  and row["y"].end - row["y"].begin == 1}
    assert length_one == {
        SpanTuple({"x": Span(1, 2), "y": Span(1, 2)}),
        SpanTuple({"x": Span(2, 3), "y": Span(2, 3)}),
    }


def test_equality_matches_filter_oracle_on_abab():
    base = _universal("xy")
    rows = relation_of(base, "abab")
    got = relation_of(apply_selections(base, [("x", "y")], "abab"), "abab")
    assert got == filter_rows(rows, [("x", "y")], "abab")


def test_chained_selections_form_one_class():
    base = _universal("xyz")
    got = relation_of(
        apply_selections(base, [("x", "y"), ("y", "z")], "ab"), "ab")
    want = filter_rows(relation_of(base, "ab"),
                       [("x", "y"), ("y", "z")], "ab")
    assert got == want
    for row in got:
        assert (row["x"].end - row["x"].begin) == (row["z"].end - row["z"].begin)


def test_selection_on_already_equal_spans_changes_nothing():
    a = compile_regex(parse_formula(".* x{y{.*}} .*"))
    assert relation_of(apply_selections(a, [("x", "y")], "abc"), "abc") == \
        relation_of(a, "abc")


def test_contradictory_pins_empty_the_result():
    a = compile_regex(parse_formula("x{a}y{b}"))
    assert relation_of(apply_selections(a, [("x", "y")], "ab"), "ab") == set()


def test_empty_selection_list_is_identity():
    a = compile_regex(parse_formula("x{a}"))
    assert relation_of(apply_selections(a, [], "a"), "a") == relation_of(a, "a")


def test_empty_selection_list_gives_the_normal_form():
    plain = thompson_automaton(parse_formula("x{a} .*"))
    assert isinstance(apply_selections(plain, [], "ab"), NormalForm)
    with pytest.raises(NotFunctionalError):
        apply_selections(thompson_automaton(parse_formula("x{a} | b")), [], "a")


def test_selection_unknown_variable():
    a = compile_regex(parse_formula("x{a}"))
    with pytest.raises(ValueError):
        apply_selections(a, [("x", "q")], "a")


def test_equality_automaton_rejects_empty_selections():
    with pytest.raises(ValueError):
        build_equality_automaton("ab", [])


def test_path_budget_overflow():
    with pytest.raises(EqualityBudgetError) as err:
        build_equality_automaton("abab", [("x", "y")], path_budget=3)
    assert err.value.estimate > 3
    # and a generous budget succeeds
    build_equality_automaton("abab", [("x", "y")], path_budget=10_000)


def test_budget_stops_the_search_promptly_on_a_long_document():
    """Substring ids are made as the search opens spans, so no table of the
    document's 12.5 M substrings is built before the budget stops it."""
    rng = random.Random(5000)
    doc = "".join(rng.choice("ab") for _ in range(5000))
    start = time.process_time()
    with pytest.raises(EqualityBudgetError) as err:
        apply_selections(_universal("xy"), [("x", "y")], doc, path_budget=1000)
    assert err.value.estimate == 1001
    assert time.process_time() - start < 0.5


def test_closing_lengths_repeat_with_the_form():
    """x{a (b c d)*} closes 1, 4, 7, … letters after x opens: the walk stops
    when its levels repeat, and the bits past it repeat with period 3 up to
    the limit."""
    form = compile_regex(parse_formula("x{a (b c d)*} .*"))
    entered, = form.moves_out[form.initial]
    for limit in (0, 1, 5, 30, 1000):
        bits = _closing_lengths(form, 0, limit)[entered]
        assert bits == sum(1 << n for n in range(1, limit + 1) if n % 3 == 1), limit


def _unary_pairs(atom: str, length: int):
    """The joined atom and selections of ``SELECT x, y FROM /atom/ WHERE
    x == y`` on ``length`` a's, with the document."""
    query = parse_query(f"SELECT x, y FROM /{atom}/ WHERE x == y")
    cq = query.disjuncts[0]
    return join_many(compile_regex(a) for a in cq.atoms), cq, "a" * length


def test_fixed_length_members_open_only_with_lengths_the_form_closes():
    """x{a} closes after one letter only, so the search opens x and y with
    length 1 alone: on 700 a's it creates 3,495 states, and its automaton
    has 6,986 with a target copy per letter read, where opening every length
    passed the default budget of 200,000."""
    joined, cq, doc = _unary_pairs(".* x{a} .* y{a} .*", 700)
    budget = PlanOptions().eq_path_budget
    assert apply_selections(joined, cq.equalities, doc, path_budget=3495).n_states == 6986
    with pytest.raises(EqualityBudgetError):
        apply_selections(joined, cq.equalities, doc, path_budget=3494)
    assert apply_selections(joined, cq.equalities, doc, path_budget=budget).n_states == 6986


def test_fixed_length_members_keep_the_rows_on_a_unary_document():
    joined, cq, doc = _unary_pairs(".* x{a} .* y{a} .*", 120)
    rows = list(enumerate_spans(apply_selections(joined, cq.equalities, doc), doc))
    want = eval_canonical(cq, doc)
    assert len(rows) == len(want) == 120 * 119 // 2
    assert rows == want


def test_search_on_the_unary_benchmark_document_is_pinned():
    """On 38 a's every pair of spans with equal length qualifies, so the
    kept automaton is large.  y opens only after x closes, so a substring x
    holds must begin again at or after x's end: with that rule the search
    creates 5,397 states, each of which it keeps (a search that also created
    each letter's target and asked only for a later begin created 15,354,
    and 26,336 with no pruning).  A larger count means a pruning rule
    stopped working."""
    joined, cq, doc = _unary_pairs(".* x{.*} .* y{.*} .*", 38)
    assert apply_selections(joined, cq.equalities, doc, path_budget=5_397).n_states == 10_794
    with pytest.raises(EqualityBudgetError) as err:
        apply_selections(joined, cq.equalities, doc, path_budget=5_396)
    assert err.value.estimate == 5_397


def _benchmark_documents(workload: str, seed: int) -> list[str]:
    """The documents that ``perfbench/run.py --workload <workload> --seed
    <seed>`` runs its query on."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [case.doc for cases in workloads.generate(workload, seed) for case in cases]


def test_equality_search_output_needs_no_trim():
    """The search keeps only the states that reach its final one, found by
    one reverse sweep over its own transitions, so trimming its output
    changes nothing: on the streq benchmark documents of seeds 1 and 2, and
    on random instances with one or two equalities over x, y, z."""
    joined, cq, _ = _unary_pairs(".* x{.*} .* y{.*} .*", 0)
    docs = sorted({doc for seed in (1, 2) for doc in _benchmark_documents("streq", seed)})
    assert len(docs) > 20
    for doc in docs:
        out = apply_selections(joined, cq.equalities, doc)
        assert trim(out) is out, doc
    rng = random.Random(2_718)
    anything = Star(Any())
    kept = 0
    for _ in range(120):
        names = ("x", "y", "z")[:rng.randint(2, 3)]
        members = [Bind(var, random_formula(rng, 2, variables=())) for var in names]
        formula = anything
        for member in reversed(members):
            formula = Cat(anything, Cat(member, formula))
        pairs = list(zip(names, names[1:]))
        out = apply_selections(compile_regex(formula), pairs, random_doc(rng, 10))
        if out.configs is not None:  # the canonical empty automaton trims to a copy
            assert trim(out) is out, (formula, pairs)
            kept += 1
    assert kept >= 30


def test_search_creates_only_the_states_it_keeps_on_the_benchmark():
    """On every streq benchmark document of seeds 1-3 the search creates no
    state that fails to reach its final one: a budget of the graph's kept
    states, all its nodes but the start, is enough."""
    joined, cq, _ = _unary_pairs(".* x{.*} .* y{.*} .*", 0)
    docs = sorted({doc for seed in (1, 2, 3) for doc in _benchmark_documents("streq", seed)})
    assert len(docs) > 30
    for doc in docs:
        kept = equality_graph(joined, cq.equalities, doc, cq.projected_set).node_count - 1
        equality_graph(joined, cq.equalities, doc, cq.projected_set, path_budget=kept)


@pytest.mark.parametrize("text", [
    "SELECT x, y FROM /.* x{a .*} .*/, /.* y{.* b} .*/ WHERE x == y",
    "SELECT x, y FROM /.* x{.+} .*/, /.* y{.+} .*/ WHERE x == y",
    "SELECT x, y FROM /.* x{.+ y{.*}} .*/ WHERE x == y",
    "SELECT x, z FROM /.* x{.+} .* y{.+} .*/, /.* z{.} .*/ WHERE x == z AND y == z",
])
def test_members_that_may_open_inside_another_keep_their_rows(text):
    """Where the form lets y open while x is still open, x's end bounds
    nothing, so the earliest-begin rule must not drop the rows where y
    begins inside x: the compiled rows equal the canonical ones on every
    document of up to 6 letters over {a, b}."""
    query = parse_query(text)
    cq = query.disjuncts[0]
    for length in range(7):
        for letters in itertools.product("ab", repeat=length):
            doc = "".join(letters)
            rows = list(enumerate_graph(compile_cq(cq, doc)))
            assert rows == eval_canonical(cq, doc), doc


@pytest.mark.parametrize("atoms, after", [
    ((".* x{.*} .* y{.*} .*",), (0,)),
    ((".* x{.*} .*", ".* y{.*} .*"), ()),
])
def test_waiting_member_follows_only_a_member_it_cannot_open_beside(atoms, after):
    """In ``.* x{.*} .* y{.*} .*`` y opens only after x has closed, so once
    x is open its end bounds y's begin; in the join of ``.* x{.*} .*`` and
    ``.* y{.*} .*`` y may open while x is open, so x's end bounds nothing."""
    slots = [(0, 0), (0, 1)]  # one class: x in column 0, y in column 1
    form = join_many(compile_regex(parse_formula(atom)) for atom in atoms)
    waiting = _waiting_classes(form, slots, 1)
    x_open = [q for q, config in enumerate(form.configs) if config == (OPEN, WAITING)]
    assert x_open
    for q in x_open:
        assert waiting[q] == [(0, after)], q


def test_equality_automaton_is_functional():
    """Built in normal form, for one equality class or two, with the
    configurations its own search finds; on "aab" it accepts every pair of
    spans with equal text."""
    for doc in ("", "a", "ab", "aab", "abab"):
        for selections in ([("x", "y")], [("x", "y"), ("z", "w")]):
            assert_normal_form(build_equality_automaton(doc, selections))
    rows = relation_of(build_equality_automaton("aab", [("x", "y")]), "aab")
    spans = list(all_spans(3))
    assert rows == {SpanTuple({"x": s, "y": t}) for s in spans for t in spans
                    if "aab"[s.begin - 1:s.end - 1] == "aab"[t.begin - 1:t.end - 1]}


def test_selection_matches_oracle_on_random_instances():
    rng = random.Random(1729)
    checked = 0
    while checked < 30:
        formula = random_functional_formula(rng, require_vars=True)
        a = compile_regex(formula)
        if len(a.variables) < 2:
            continue
        doc = random_doc(rng, 5)
        ordered = sorted(a.variables)
        selections = [(ordered[0], ordered[1])]
        got = relation_of(apply_selections(a, selections, doc), doc)
        want = filter_rows(relation_of(a, doc), selections, doc)
        assert got == want, (formula, doc)
        checked += 1

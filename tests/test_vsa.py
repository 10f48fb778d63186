"""Tests for the variable-set automaton core: configurations, closures,
functionality, key attributes, and the dump format."""

import random
from collections import Counter

import pytest

from spanex.compiler import (
    apply_selections, check_functional, compile_regex, is_key_attribute, join,
    project, union_vsa,
)
from spanex.enumerator import enumerate_spans
from spanex.formula import parse_formula
from spanex.model import CLOSED, OPEN, WAITING, close_op, open_op
from spanex.vsa import (
    ANY, VSA, NotFunctionalAutomaton, VsaFormatError, cached_step, dump_vsa,
    load_vsa, normal_form, trim,
)

from helpers import (
    compute_state_configs, config_to_str, marker_automaton, diamond_automaton,
    loop_automaton, brute_force_key, all_docs, random_formula, random_functional_formula,
    relation_of, assert_normal_form, is_functional, thompson_automaton, two_pass_normal_form,
)
from oracle import accepts_ref_word, eps_closure


# ---------------------------------------------------------------------------
# Construction and trimming
# ---------------------------------------------------------------------------


def test_constructor_validates_states():
    with pytest.raises(ValueError):
        VSA({"x"}, 2, 0, 5, [])
    with pytest.raises(ValueError):
        VSA({"x"}, 2, 0, 1, [(0, "ab", 1)])  # symbols are single characters


def test_trim_keeps_fixture_unchanged():
    a = marker_automaton()
    trimmed = trim(a)
    assert trimmed.n_states == 3
    assert len(trimmed.transitions) == len(a.transitions)


def test_trim_drops_isolated_state():
    a = VSA({"x"}, 4, 0, 2, [
        (0, frozenset([open_op("x")]), 1),
        (1, frozenset([close_op("x")]), 2),
        (3, "a", 3),  # unreachable island
    ])
    trimmed = trim(a)
    assert trimmed.n_states == 3


def test_trim_unreachable_final_gives_empty_language():
    a = VSA(set(), 2, 0, 1, [(0, "a", 0)])
    assert trim(a).configs is None  # the canonical empty automaton


# ---------------------------------------------------------------------------
# Variable configurations
# ---------------------------------------------------------------------------


def test_fixture_configurations():
    configs = compute_state_configs(marker_automaton())
    assert configs[0] == (WAITING,)
    assert configs[1] == (OPEN,)
    assert configs[2] == (CLOSED,)


def test_diamond_configurations():
    configs = compute_state_configs(diamond_automaton())
    assert configs[0] == (WAITING,)
    assert configs[1] == (OPEN,)
    assert configs[2] == (OPEN,)
    assert configs[3] == (CLOSED,)


def test_loop_automaton_is_inconsistent():
    with pytest.raises(NotFunctionalAutomaton):
        compute_state_configs(loop_automaton())


def test_variable_free_configurations_are_empty_tuples():
    a = VSA(set(), 1, 0, 0, [(0, "a", 0)])
    assert compute_state_configs(a) == [()]


def test_config_to_str():
    assert config_to_str((WAITING, OPEN, CLOSED)) == "(w,o,c)"


# ---------------------------------------------------------------------------
# Functionality
# ---------------------------------------------------------------------------


def test_fixture_is_functional():
    assert check_functional(marker_automaton()).ok
    # initial, final, source copies of states 0-2, target copies of states 0-2
    w, o, c = (WAITING,), (OPEN,), (CLOSED,)
    assert normal_form(marker_automaton()).configs == [w, c, w, o, c, w, o, c]


def test_loop_is_not_functional():
    report = check_functional(loop_automaton())
    assert not report.ok
    with pytest.raises(NotFunctionalAutomaton):
        normal_form(loop_automaton())


def test_open_variable_at_final_is_not_functional():
    a = VSA({"x"}, 2, 0, 1, [(0, frozenset([open_op("x")]), 1)])
    report = check_functional(a)
    assert not report.ok
    assert report.violation.variable == "x"


def test_empty_language_is_functional():
    a = VSA({"x"}, 2, 0, 1, [])  # final unreachable
    assert check_functional(a).ok
    assert normal_form(a).configs is None


def test_normal_form_matches_the_two_pass_reference():
    """One search over an automaton, through the states that reach the
    final one, gives what trimming it first and searching the copy gave:
    the same states and configurations in the same order and the same
    transitions, their marker sets derived by the form against those the
    reference computed, or the same error and variable.  Thompson's
    construction of random formulas over x, y, z, with ∅ leaves and
    non-functional ones, and hand automata with a dead branch and an
    unreachable island."""
    rng = random.Random(1_414)
    kinds = Counter()
    x_open, x_close = frozenset([open_op("x")]), frozenset([close_op("x")])
    hand = [marker_automaton(), diamond_automaton(), loop_automaton(),
            VSA({"x"}, 5, 0, 2, [(0, x_open, 1), (1, x_close, 2), (1, "a", 3),
                                 (3, x_open, 3), (4, "b", 2)])]
    formulas = [random_formula(rng, variables=("x", "y", "z")) for _ in range(600)]
    for subject in hand + [thompson_automaton(formula) for formula in formulas]:
        try:
            expected, configs = two_pass_normal_form(subject)
        except NotFunctionalAutomaton as err:
            with pytest.raises(NotFunctionalAutomaton) as got:
                normal_form(subject)
            assert (got.value.reason, got.value.variable) == (err.reason, err.variable)
            kinds[err.reason] += 1
            continue
        form = normal_form(subject)
        assert (form.n_states, form.initial, form.final, form.configs) == \
            (expected.n_states, expected.initial, expected.final, configs), subject
        assert Counter(form.transitions) == Counter(expected.transitions), subject
        kinds["empty" if form.configs is None else "functional"] += 1
    assert min(kinds.values()) >= 10 and len(kinds) == 5, kinds


def test_compiled_formulas_are_functional():
    rng = random.Random(71)
    for _ in range(60):
        formula = random_functional_formula(rng)
        assert is_functional(compile_regex(formula)), formula


# ---------------------------------------------------------------------------
# Closures and steps
# ---------------------------------------------------------------------------


def test_normal_form_marker_moves_span_markers():
    """On the fixture, the marker moves close over marker edges: from the
    initial state and the copy of state 0 they reach states 0, 1 and 2,
    from the copy of state 1 states 1 and 2, from that of state 2 state 2
    alone.  Each move is labelled with the markers it passes, and the moves
    into state 2 also enter the final state."""
    form = normal_form(marker_automaton())
    letters = [(src, dst) for src, label, dst in form.transitions if label == "a"]
    source = {form.configs[src]: src for src, _ in letters}
    target = {form.configs[dst]: dst for _, dst in letters}
    w, o, c = (WAITING,), (OPEN,), (CLOSED,)
    opens, both = frozenset([open_op("x")]), frozenset([open_op("x"), close_op("x")])
    closes = frozenset([close_op("x")])

    def moves(state):
        return {dst: label for src, label, dst in form.transitions if src == state}

    from_start = {source[w]: None, source[o]: opens, source[c]: both, form.final: both}
    assert moves(form.initial) == from_start
    assert moves(target[w]) == from_start
    assert moves(target[o]) == {source[o]: None, source[c]: closes, form.final: closes}
    assert moves(target[c]) == {source[c]: None, form.final: None}
    assert set(form.moves_out[target[o]]) == {source[o], source[c], form.final}


def test_eps_closure_is_identity_without_eps_edges():
    a = marker_automaton()
    assert eps_closure(a) == [frozenset({0}), frozenset({1}), frozenset({2})]


def letter_sources(form):
    return [s for s in range(form.n_states) if form.sym_out[s] or form.any_out[s]]


def test_symbol_step_on_diamond():
    form = normal_form(diamond_automaton())
    step = cached_step(form)
    sources = letter_sources(form)
    assert len(sources) == 2  # the copies of states 1 and 2
    # either copy reads "a" into both copies, and the close marker reaches
    # the final state
    assert step(sources[0], "a") == frozenset(sources) | {form.final}
    assert step(form.initial, "a") == frozenset()


def test_wildcard_step():
    form = normal_form(compile_regex(parse_formula(".*")))
    step = cached_step(form)
    sources = [src for src, label, dst in form.transitions if label is ANY]
    assert sources
    targets = step(sources[0], ANY)
    assert targets  # the marker moves after the step reach past the dot edge
    # a concrete symbol also takes the wildcard edge
    assert step(sources[0], "q") == targets
    # the wildcard symbol does not take a concrete edge
    d = normal_form(diamond_automaton())
    assert cached_step(d)(letter_sources(d)[0], ANY) == frozenset()


def test_normal_form_shape_and_relation():
    """At most 2n + 2 states; letter edges only out of source copies, marker
    moves out of the initial state and target copies, none out of the final
    state; configurations labelled by the marker moves; same relation."""
    rng = random.Random(7_313)
    for _ in range(40):
        a = compile_regex(random_functional_formula(rng))
        form = normal_form(a)
        if form.configs is None:
            continue
        assert form.n_states <= 2 * a.n_states + 2
        assert_normal_form(form)
        assert set(form.moves_out[form.initial]) <= set(letter_sources(form)) | {form.final}
        for doc in ("", "a", "ab", "bba"):
            assert relation_of(form, doc) == relation_of(a, doc)


def test_accepts_ref_word():
    a = marker_automaton()
    assert accepts_ref_word(a, (open_op("x"), "a", close_op("x")))
    assert accepts_ref_word(a, ("a", open_op("x"), close_op("x"), "a"))
    assert not accepts_ref_word(a, ("a",))
    assert not accepts_ref_word(a, (close_op("x"), open_op("x")))


# ---------------------------------------------------------------------------
# Key attributes
# ---------------------------------------------------------------------------


def test_single_variable_is_a_key():
    a = compile_regex(parse_formula("x{.*}"))
    assert is_key_attribute(a, "x").is_key


def test_two_floating_empty_spans_are_not_a_key():
    a = compile_regex(parse_formula("x{ε} .* y{ε} .*"))
    report = is_key_attribute(a, "x")
    assert not report.is_key
    doc, first, second = report.witness
    rows = relation_of(a, doc)
    assert first in rows and second in rows
    assert first != second
    assert first["x"] == second["x"]


def test_pinned_trailing_variable_keeps_the_key():
    a = compile_regex(parse_formula("x{.*} y{ε}"))
    assert is_key_attribute(a, "x").is_key


def test_unknown_variable_is_rejected():
    a = compile_regex(parse_formula("x{a}"))
    with pytest.raises(ValueError):
        is_key_attribute(a, "nope")


def test_key_verdicts_match_brute_force_over_short_documents():
    rng = random.Random(902)
    docs = list(all_docs("ab", 4))
    checked = 0
    while checked < 25:
        formula = random_functional_formula(rng, require_vars=True)
        a = compile_regex(formula)
        var = sorted(a.variables)[rng.randrange(len(a.variables))]
        report = is_key_attribute(a, var)
        assert report.is_key == brute_force_key(a, var, docs), (formula, var)
        if not report.is_key:
            doc, first, second = report.witness
            rows = relation_of(a, doc)
            assert first in rows and second in rows
            assert first != second and first[var] == second[var]
        checked += 1


# variable-free padding around and inside the bindings of a random atom
KEY_PADS = ("", "", ".*", ".*", "a", "b*", ".", "(a|b)*")
KEY_BODIES = ("ε", "a", "b", ".*", "a*", ".", "ab")


def _random_bound_atom(rng: random.Random, variables) -> VSA:
    """Each variable bound once, in order, with padding between; sometimes
    an alternation with the same bindings in another order."""
    def bindings(names):
        parts = [rng.choice(KEY_PADS)]
        for var in names:
            parts += [f"{var}{{{rng.choice(KEY_BODIES)}}}", rng.choice(KEY_PADS)]
        return " ".join(part for part in parts if part)
    text = bindings(variables)
    if rng.random() < 0.4:
        text = f"({text}) | ({bindings(rng.sample(variables, len(variables)))})"
    return compile_regex(parse_formula(text))


def test_random_non_keys_carry_valid_witnesses():
    """Atoms binding 2-3 variables, and joins of two of them, are often not
    keyed by a variable: a non-key over short documents is a non-key, and
    every witness holds two different rows of its document that agree on
    the variable."""
    rng = random.Random(1818)
    docs = list(all_docs("ab", 4))
    non_keys = joined_non_keys = 0
    for _ in range(40):
        pool = ["x", "y", "z"][:rng.choice((2, 3))]
        joined = rng.random() < 0.4
        if joined:
            a = join(_random_bound_atom(rng, rng.sample(pool, 2)),
                     _random_bound_atom(rng, rng.sample(pool, 2)))
        else:
            a = _random_bound_atom(rng, pool)
        for var in sorted(a.variables):
            report = is_key_attribute(a, var)
            if not brute_force_key(a, var, docs):
                assert not report.is_key, (dump_vsa(a), var)
            if not report.is_key:
                non_keys += 1
                joined_non_keys += joined
                doc, first, second = report.witness
                rows = relation_of(a, doc)
                assert first in rows and second in rows
                assert first != second and first[var] == second[var]
    assert non_keys >= 40 and joined_non_keys >= 5, (non_keys, joined_non_keys)


# ---------------------------------------------------------------------------
# Dump format
# ---------------------------------------------------------------------------


def test_dump_round_trip_simple():
    a = compile_regex(parse_formula("a* x{a*} a*"))
    again = load_vsa(dump_vsa(a))
    assert dump_vsa(again) == dump_vsa(a)
    assert relation_of(again, "aa") == relation_of(a, "aa")


def test_dump_round_trip_wildcards_and_op_sets():
    left = compile_regex(parse_formula("x{y{a}}"))
    right = compile_regex(parse_formula("y{x{a}}"))
    joined = join(left, right)  # produces set-labeled operation edges
    again = load_vsa(dump_vsa(joined))
    assert relation_of(again, "a") == relation_of(joined, "a")


def test_dump_round_trip_projection_and_union():
    a = project(compile_regex(parse_formula(".* x{.* y{.*} .*} .*")), {"x"})
    b = union_vsa(compile_regex(parse_formula("x{a}.*")),
                  compile_regex(parse_formula(".*x{a}")))
    for automaton, doc in ((a, "ab"), (b, "aa")):
        again = load_vsa(dump_vsa(automaton))
        assert relation_of(again, doc) == relation_of(automaton, doc)


def test_dumps_of_the_algebra_are_pinned():
    """The exact dumps of a join, a projection, a union and an equality
    selection: their state numbering and every marker set.  In the join a
    state has an ε-move and a move that opens x, which the product pairs in
    that order."""
    def form(text):
        return compile_regex(parse_formula(text))

    joined = join(form("(x{a} | b x{a}) y{.*}"), form(".* y{b .*}"))
    assert dump_vsa(joined) == (
        "vsa v=x,y n=12\ninit 0\nfinal 10\n0 eps 1\n0 ops:[⊢x] 2\n1 sym:b 3\n"
        "2 sym:a 4\n3 ops:[⊢x] 5\n4 ops:[⊢y,⊣x] 6\n5 sym:a 7\n6 sym:b 8\n"
        "7 ops:[⊢y,⊣x] 6\n8 eps 9\n8 ops:[⊣y] 10\n9 any 11\n11 eps 9\n"
        "11 ops:[⊣y] 10\n")
    assert dump_vsa(project(form("x{a y{b}} z{.}"), {"x", "z"})) == (
        "vsa v=x,z n=8\ninit 0\nfinal 1\n0 ops:[⊢x] 2\n2 sym:a 5\n3 sym:b 6\n"
        "4 any 7\n5 eps 3\n6 ops:[⊢z,⊣x] 4\n7 ops:[⊣z] 1\n")
    assert dump_vsa(union_vsa(form("x{a} y{b}"), form("y{x{a} b}"))) == (
        "vsa v=x,y n=10\ninit 0\nfinal 1\n0 ops:[⊢x,⊢y] 6\n0 ops:[⊢x] 2\n"
        "2 sym:a 4\n3 sym:b 5\n4 ops:[⊢y,⊣x] 3\n5 ops:[⊣y] 1\n6 sym:a 8\n"
        "7 sym:b 9\n8 ops:[⊣x] 7\n9 ops:[⊣y] 1\n")
    selected = apply_selections(form(".* x{.} .* y{.} .*"), [("x", "y")], "aba")
    assert dump_vsa(selected) == (
        "vsa v=x,y n=8\ninit 0\nfinal 7\n0 ops:[⊢x] 1\n1 any 2\n2 ops:[⊣x] 3\n"
        "3 any 4\n4 ops:[⊢y] 5\n5 any 6\n6 ops:[⊣y] 7\n")


def test_dump_round_trips_every_symbol():
    """Line breaks of every kind, other non-printable symbols and the
    backslash are escaped; printable ones are written as they are."""
    symbols = ["\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", "\u2028", "\u2029",
               "\t", "\x00", "\\", " ", "é", "\U0001f600", "a"]
    a = VSA(set(), 2, 0, 1, [(0, symbol, 1) for symbol in symbols])
    text = dump_vsa(a)
    assert len(text.splitlines()) == 3 + len(symbols)
    again = load_vsa(text)
    assert sorted(again.transitions) == sorted(a.transitions)
    assert load_vsa("vsa v= n=2\ninit 0\nfinal 1\n0 sym:\\ 1\n").transitions == \
        ((0, "\\", 1),)  # a bare backslash still reads as itself


def test_load_rejects_malformed_text():
    with pytest.raises(VsaFormatError):
        load_vsa("not a dump\n")
    with pytest.raises(VsaFormatError):
        load_vsa("vsa v=x n=2\ninit 0\n")  # missing final
    with pytest.raises(VsaFormatError):
        load_vsa("vsa n=2\ninit 0\nfinal 1\n")  # missing variable field
    for line in ("0 sym:ab 1", "0 sym:a", "q eps 1", "0 eps 7", "0 sym:\\x4 1",
                 "0 sym:\\q 1", "0 ops:[+x] 1", "0 ops:[⊢z] 1", "init 0 1", "0 eps"):
        with pytest.raises(VsaFormatError):
            load_vsa(f"vsa v=x n=2\ninit 0\nfinal 1\n{line}\n")

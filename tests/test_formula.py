"""Tests for the formula AST, parser, functionality check, and ref-word matcher."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanex.compiler import check_functional
from spanex.formula import (
    Alt, Any, Bind, Cat, Empty, Epsilon, Star, Sym,
    FormulaSyntaxError, formula_to_source, formula_variables, parse_formula,
)
from spanex.model import close_op, open_op

from helpers import brute_force_functional, formula_size, random_formula
from oracle import RefWordMatcher


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_star_binding_shape():
    f = parse_formula("a* x{a*} a*")
    assert f == Cat(Cat(Star(Sym("a")), Bind("x", Star(Sym("a")))), Star(Sym("a")))


def test_parse_accepts_non_functional_text():
    f = parse_formula("x{a} x{a}")
    assert f == Cat(Bind("x", Sym("a")), Bind("x", Sym("a")))


def test_parse_empty_input_is_an_error():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("   ")


def test_parse_error_positions():
    for bad in ("x{a", "a)", "*a", "x{}", "|a", "a |"):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(bad)


def test_parse_alternation_and_wildcards():
    assert parse_formula("a|b") == Alt(Sym("a"), Sym("b"))
    assert parse_formula("a∨b") == Alt(Sym("a"), Sym("b"))
    assert parse_formula(".") == Any()
    assert parse_formula("Σ") == Any()
    assert parse_formula("ε") == Epsilon()
    assert parse_formula("∅") == Empty()


def test_parse_plus_sugar():
    assert parse_formula("a+") == Cat(Sym("a"), Star(Sym("a")))


def test_parse_runs_of_identifier_characters():
    """A run of letters, digits and underscores is one bind name when ``{``
    follows it, and one symbol per character otherwise.  Each run is scanned
    once, so a 20,000-character run parses in linear time (rescanning it
    from each character was quadratic)."""
    word = Cat(Cat(Cat(Sym("a"), Sym("b")), Sym("_")), Sym("1"))
    assert parse_formula("ab_1") == word
    assert parse_formula("ab_1{c}") == Bind("ab_1", Sym("c"))
    assert parse_formula("ab x1{c} d") == Cat(Cat(Cat(Sym("a"), Sym("b")),
                                                  Bind("x1", Sym("c"))), Sym("d"))
    assert parse_formula(r"a1\{") == Cat(Cat(Sym("a"), Sym("1")), Sym("{"))
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ab_1 {c}")
    run = "a" * 20_000
    assert formula_variables(parse_formula(run + "{b}")) == {run}
    assert formula_to_source(parse_formula(run + "|b")) == run + "|b"


def test_parse_escapes():
    assert parse_formula(r"\*") == Sym("*")
    assert parse_formula(r"\{") == Sym("{")


def test_variables_and_size():
    assert formula_variables(parse_formula("a* x{a*} a*")) == frozenset({"x"})
    assert formula_variables(parse_formula("a")) == frozenset()
    nested = parse_formula(".* x{.* y{.*} .*} .*")
    assert formula_variables(nested) == frozenset({"x", "y"})
    assert formula_size(Sym("a")) == 1
    assert formula_size(parse_formula("a|b")) == 3


# ---------------------------------------------------------------------------
# Rendering round trip
# ---------------------------------------------------------------------------


def _formula_strategy():
    return st.recursive(
        st.one_of(
            st.sampled_from([Epsilon(), Any(), Empty(), Sym("a"), Sym("b"), Sym("*")]),
        ),
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda p: Alt(*p)),
            st.tuples(children, children).map(lambda p: Cat(*p)),
            children.map(Star),
            st.tuples(st.sampled_from(["x", "y", "long_name"]), children).map(
                lambda p: Bind(*p)),
        ),
        max_leaves=12,
    )


@settings(max_examples=150, deadline=None)
@given(_formula_strategy())
def test_render_parse_round_trip(formula):
    """Rendering any tree and parsing it back reproduces the tree."""
    assert parse_formula(formula_to_source(formula)) == formula


def test_render_separates_symbol_from_bind_name():
    """A symbol butted against a bind would re-tokenize as one long name."""
    tree = Cat(Sym("a"), Bind("x3", Epsilon()))
    assert parse_formula(formula_to_source(tree)) == tree
    deeper = Cat(Bind("x", Sym("b")), Cat(Sym("a"), Bind("y", Any())))
    assert parse_formula(formula_to_source(deeper)) == deeper


def test_render_a_long_literal():
    """A 3,000-symbol literal nests 3,000 concatenations deep; rendering
    walks it with its own stack and gives the text back."""
    text = "a" * 3000
    assert formula_to_source(parse_formula(text)) == text
    mixed = "(a|b)*" * 1000
    assert formula_to_source(parse_formula(mixed)) == mixed


# ---------------------------------------------------------------------------
# Functionality check
# ---------------------------------------------------------------------------


def test_functional_examples():
    assert check_functional(parse_formula(".*((x{foo}.*y{bar})|(y{bar}.*x{foo})).*")).ok
    assert check_functional(parse_formula("a* x{a*} a*")).ok
    assert check_functional(parse_formula("a")).ok


def test_non_functional_rebound():
    report = check_functional(parse_formula("x{a}x{a}"))
    assert not report.ok
    assert report.violation.variable == "x"


def test_non_functional_branch_mismatch():
    report = check_functional(parse_formula("x{a} | y{a}"))
    assert not report.ok


def test_non_functional_under_star():
    assert not check_functional(parse_formula("(x{a})*")).ok


def test_empty_language_is_vacuously_functional():
    assert check_functional(parse_formula("∅")).ok
    # the empty branch cannot hide a missing binding on the live branch
    assert not check_functional(parse_formula("x{a} | (∅ y{b})")).ok


def test_empty_language_hides_a_binding_under_star():
    # the starred binding is dead: no ref-word of the formula reaches it
    assert check_functional(parse_formula("(x{a})* ∅")).ok
    assert check_functional(parse_formula("(x{b})* ∅ b .")).ok
    report = check_functional(parse_formula("x{a}* ∅ | y{b}"))
    assert not report.ok
    assert report.violation.variable == "x"


def test_functional_verdict_matches_brute_force():
    """The check agrees with unrolling the ref-word language."""
    for variables, depth, samples in ((("x", "y"), 3, 150), (("x", "y", "z"), 4, 400)):
        rng = random.Random(4021)
        checked = 0
        while checked < samples:
            formula = random_formula(rng, depth=depth, variables=variables)
            try:
                expected = brute_force_functional(formula)
            except AssertionError:
                continue  # unrolled language too large; skip this sample
            assert check_functional(formula).ok == expected, formula
            checked += 1


# ---------------------------------------------------------------------------
# Ref-word matcher
# ---------------------------------------------------------------------------


def test_match_ref_word_examples():
    match = RefWordMatcher(parse_formula("a* x{a*} a*")).matches
    assert match(("a", open_op("x"), "a", close_op("x"), "a"))
    assert match((open_op("x"), close_op("x")))
    assert not match(("a",))  # variable symbols are mandatory
    assert not RefWordMatcher(parse_formula("x{a}")).matches(("a",))
    assert RefWordMatcher(parse_formula("ε")).matches(())


def test_matcher_is_reusable():
    matcher = RefWordMatcher(parse_formula("(x{a}|x{b})"))
    assert matcher.matches((open_op("x"), "a", close_op("x")))
    assert matcher.matches((open_op("x"), "b", close_op("x")))
    assert not matcher.matches((open_op("x"), "c", close_op("x")))
    assert not matcher.matches(())


def test_matcher_handles_wildcard_and_star():
    matcher = RefWordMatcher(parse_formula("x{.*}"))
    assert matcher.matches((open_op("x"), "q", "r", close_op("x")))
    assert not matcher.matches(("q", open_op("x"), close_op("x"), "r"))

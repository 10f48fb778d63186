"""Tests for spans, span tuples, ref-words, and per-position state sequences."""

import copy
import itertools
import operator
import pickle
import random

import pytest

from spanex.compiler import compile_regex
from spanex.enumerator import enumerate_spans
from spanex.formula import Any, Cat, Star, parse_formula
from spanex.model import (
    CLOSED, EMPTY_TUPLE, OPEN, WAITING,
    Span, SpanTuple,
    all_spans, bounds_of, close_op, open_op, row_type, span_text,
)
from spanex.query import eval_canonical, eval_query, parse_query

from helpers import (
    assert_canonical_order, is_valid_span, is_valid_state_sequence, random_doc,
    random_functional_formula, state_sequence_to_tuple, tuple_to_state_sequence,
)
from oracle import is_valid_ref_word, oracle_enumerate, ref_word_span_tuple, tuple_ref_words


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_span_text_chocolate_cookie():
    doc = "chocolate cookie"
    assert span_text(doc, Span(4, 6)) == "co"
    assert span_text(doc, Span(1, 1)) == ""
    assert span_text(doc, Span(2, 2)) == ""


def test_full_document_span():
    for doc in ("", "a", "chocolate cookie"):
        assert span_text(doc, Span(1, len(doc) + 1)) == doc


def test_span_validity():
    assert is_valid_span(Span(1, 1), 0)
    assert is_valid_span(Span(1, 4), 3)
    assert not is_valid_span(Span(0, 1), 3)
    assert not is_valid_span(Span(2, 1), 3)
    assert not is_valid_span(Span(1, 5), 3)


def test_all_spans_count():
    # (l+1)(l+2)/2 spans over a document of length l
    for length in range(6):
        spans = list(all_spans(length))
        assert len(spans) == (length + 1) * (length + 2) // 2
        assert len(set(spans)) == len(spans)


def test_span_str():
    assert str(Span(2, 4)) == "2..4"


# ---------------------------------------------------------------------------
# Span tuples
# ---------------------------------------------------------------------------


def test_tuple_access_and_restrict():
    t = SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})
    assert t["x"] == Span(1, 2)
    assert "y" in t and "z" not in t
    assert t.restrict(["x"]) == SpanTuple({"x": Span(1, 2)})
    assert t.restrict([]) == EMPTY_TUPLE


def test_tuple_values_come_back_as_equal_spans():
    """A tuple keeps its spans' bounds, not the given objects: every
    accessor returns Span instances equal to the values given.  Rows of
    random formulas with 1 to 3 variables equal, and hash like, the tuple
    rebuilt from their dict."""
    span = Span(2, 3)
    t = SpanTuple([("y", Span(1, 1)), ("x", span)])
    assert t["x"] == span and type(t["x"]) is Span
    assert t.items() == (("x", span), ("y", Span(1, 1)))
    assert all(type(value) is Span for _, value in t.items())
    assert all(type(value) is Span for value in t.as_dict().values())
    rng = random.Random(1729)
    seen = set()
    for _ in range(100):
        formula = random_functional_formula(rng, depth=4, variables=("x", "y", "z"),
                                            require_vars=True)
        formula = Cat(Star(Any()), Cat(formula, Star(Any())))
        for row in enumerate_spans(compile_regex(formula), random_doc(rng, 6)):
            twin = SpanTuple(row.as_dict())
            assert row == twin and hash(row) == hash(twin), (formula, row)
            seen.add(len(row.variables))
    assert seen == {1, 2, 3}


def test_tuple_rejects_a_repeated_variable():
    with pytest.raises(ValueError, match="repeated variable"):
        SpanTuple([("x", Span(1, 2)), ("x", Span(2, 3))])
    with pytest.raises(ValueError, match="repeated variable"):
        SpanTuple([("x", Span(1, 2)), ("y", Span(1, 1)), ("x", Span(1, 2))])


def test_tuple_of_plain_pairs_returns_spans():
    t = SpanTuple({"x": (1, 2)})
    assert type(t["x"]) is Span and t["x"].begin == 1 and t["x"].end == 2
    twin = SpanTuple({"x": Span(1, 2)})
    assert t == twin and hash(t) == hash(twin)
    assert repr(t) == "SpanTuple(x=1..2)"


def test_tuple_merge_agreeing():
    t1 = SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})
    t2 = SpanTuple({"y": Span(2, 3), "z": Span(1, 1)})
    merged = t1.merge(t2)
    assert merged.variables == ("x", "y", "z")
    assert merged["z"] == Span(1, 1)


def test_tuple_merge_conflicting():
    t1 = SpanTuple({"x": Span(1, 2)})
    t2 = SpanTuple({"x": Span(1, 3)})
    with pytest.raises(ValueError):
        t1.merge(t2)


def test_tuple_comparisons_with_other_types():
    t = SpanTuple({"x": Span(1, 2)})
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(t, 1)
        with pytest.raises(TypeError):
            compare(None, t)
    assert t != (("x", Span(1, 2)),) and not t == 1


def test_tuple_contract_across_construction_paths():
    """Tuples the enumerator builds and tuples built from a dict (by the
    oracle) agree on equality, hash and every accessor, over streams with
    different variable sets, the variable-free one among them; neither kind
    is ordered."""
    doc = "ab"
    built, given = [], []
    for text in (".* x{.} .*", ".* x{.} .* y{.*} .*", "y{a*} .*", "a*b"):
        formula = parse_formula(text)
        rows = list(enumerate_spans(compile_regex(formula), doc))
        want = oracle_enumerate(formula, doc)
        assert len(rows) == len(want) and set(rows) == set(want), text
        twin_of = {twin: twin for twin in want}
        for row in rows:
            twin = twin_of[row]
            assert hash(row) == hash(twin)
            assert repr(row) == repr(twin)
            assert row.items() == twin.items()
            assert row.variables == twin.variables == tuple(sorted(row.variables))
            assert row.as_dict() == twin.as_dict()
            for var in row.variables:
                assert var in row and type(row[var]) is Span and row[var] == twin[var]
                assert row.restrict([var]) == twin.restrict([var])
                assert hash(row.restrict([var])) == hash(twin.restrict([var]))
            assert "z" not in row
            with pytest.raises(KeyError):
                row["z"]
            assert row.restrict([]) == EMPTY_TUPLE
        built += rows
        given += want
    assert sorted(built, key=SpanTuple.items) == sorted(given, key=SpanTuple.items)
    for a, b in itertools.product(built, given):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(a, b)
    x_row = next(row for row in built if row.variables == ("x",))
    y_row = next(row for row in built if row.variables == ("y",))
    assert x_row.merge(y_row) == SpanTuple({**x_row.as_dict(), **y_row.as_dict()})
    with pytest.raises(ValueError, match="conflicting span for variable 'x'"):
        x_row.merge(SpanTuple({"x": Span(x_row["x"].begin, x_row["x"].end + 1)}))


def test_row_surface_through_every_construction_path():
    """A row is a tuple of its flat bounds whose type carries the names, one
    type per names tuple, however it was made: by the enumerator, from a
    dict or pairs, by restrict or merge, or as EMPTY_TUPLE.  It hashes like
    its bounds but never equals them or any other plain tuple, so a set
    keeps both; it has no length, no iteration and no order; and it
    survives pickle, copy and deepcopy with its type."""
    built = list(enumerate_spans(compile_regex(parse_formula(".* x{a} y{.} .*")), "aab"))
    row = built[0]
    rows = {
        "enumerator": row,
        "dict": SpanTuple(row.as_dict()),
        "pairs": SpanTuple(list(reversed(row.items()))),
        "restrict": SpanTuple({**row.as_dict(), "z": Span(1, 1)}).restrict(["x", "y"]),
        "merge": row.restrict(["x"]).merge(row.restrict(["y"])),
    }
    bounds = (row["x"].begin, row["x"].end, row["y"].begin, row["y"].end)
    for path, made in rows.items():
        assert isinstance(made, SpanTuple) and isinstance(made, tuple), path
        assert type(made) is type(row) is row_type(("x", "y")), path
        assert made.variables == type(made).variables == ("x", "y"), path
        assert made == row and not made != row and hash(made) == hash(row), path
        assert hash(made) == hash(bounds) and bounds_of(made) == bounds, path
        assert made != bounds and not made == bounds, path
        assert bounds != made and not bounds == made, path
        assert len({made, bounds}) == len({bounds, made}) == 2, path
        assert made != row.restrict(["x"]) and made != SpanTuple({"x": (1, 2), "y": (3, 3)})
        for take in (len, iter, tuple, list, sorted):
            with pytest.raises(TypeError):
                take(made)
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            for a, b in ((made, row), (made, bounds), (bounds, made), (made, 1)):
                with pytest.raises(TypeError):
                    compare(a, b)
        clones = [pickle.loads(pickle.dumps(made, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones + [copy.copy(made), copy.deepcopy(made), copy.deepcopy([made])[0]]:
            assert clone == made and type(clone) is type(made), path
    # nor a span, a tuple of two bounds that compares with plain tuples
    x_row, x_span = row.restrict(["x"]), row["x"]
    assert x_row != x_span and x_span != x_row and not x_span == x_row
    assert len({x_span, x_row}) == len({x_row, x_span}) == 2
    assert x_span == tuple(x_span) and hash(x_span) == hash(x_row)
    assert bool(EMPTY_TUPLE) and bool(row)
    assert type(EMPTY_TUPLE) is row_type(()) and EMPTY_TUPLE.variables == ()
    assert EMPTY_TUPLE == SpanTuple({}) == row.restrict([]) and EMPTY_TUPLE != ()
    assert hash(EMPTY_TUPLE) == hash(()) and len({EMPTY_TUPLE, ()}) == 2
    assert pickle.loads(pickle.dumps(EMPTY_TUPLE)) == EMPTY_TUPLE
    # one type per names tuple, not per row or per stream
    more = list(enumerate_spans(compile_regex(parse_formula(".* x{.*} .* y{.*} .*")), "abab"))
    assert {type(made) for made in built + more} == {row_type(("x", "y"))}


def test_stream_with_numbered_variable_names():
    """x10 sorts before x2 as a string, though x2 comes first in the
    formula and in the document: the compiled stream names them in string
    order, is in canonical order, and is eval_canonical's list."""
    query = parse_query("SELECT x2, x10 FROM /.* x2{.} .* x10{.*} .*/")
    doc = "abab"
    rows = list(eval_query(query, doc, strategy="compiled"))
    want = eval_canonical(query.disjuncts[0], doc)
    assert {row.variables for row in rows} == {("x10", "x2")}
    assert_canonical_order(rows, len(doc), ["x2", "x10"])
    assert rows == want
    assert [repr(row) for row in rows] == [repr(row) for row in want]
    assert list(eval_query(query, doc, strategy="canonical")) == want


# ---------------------------------------------------------------------------
# Ref-words
# ---------------------------------------------------------------------------


def test_ref_word_span_extraction():
    word = ("c", open_op("x"), "o", "o", close_op("x"), "k", "i", "e")
    assert ref_word_span_tuple(word, {"x"})["x"] == Span(2, 4)
    assert ref_word_span_tuple((open_op("x"), close_op("x")), {"x"})["x"] == Span(1, 1)


def test_ref_word_span_extraction_trailing_empty():
    # both markers after the last terminal: the span starts past the document
    word = tuple("cookie") + (open_op("x"), close_op("x"))
    assert ref_word_span_tuple(word, {"x"})["x"] == Span(7, 7)


def test_ref_word_validity():
    ok = (open_op("x"), "a", close_op("x"))
    assert is_valid_ref_word(ok, {"x"})
    assert not is_valid_ref_word(("a",), {"x"})  # missing both markers
    assert not is_valid_ref_word((close_op("x"), "a", open_op("x")), {"x"})
    assert not is_valid_ref_word(ok + ok, {"x"})  # opened twice


def test_tuple_ref_words_generates_valid_interleavings():
    t = SpanTuple({"x": Span(1, 1), "y": Span(1, 1)})
    words = set(tuple_ref_words(t, ""))
    # both block orders at the same position
    assert len(words) >= 2
    for word in words:
        assert is_valid_ref_word(word, {"x", "y"})
        assert ref_word_span_tuple(word, {"x", "y"}) == t


def test_tuple_ref_words_single_word_when_unambiguous():
    t = SpanTuple({"x": Span(1, 3)})
    words = list(tuple_ref_words(t, "ab"))
    assert words == [(open_op("x"), "a", "b", close_op("x"))]


# ---------------------------------------------------------------------------
# State sequences
# ---------------------------------------------------------------------------


def test_state_sequence_known_rows():
    # document "aa": x = 2..3 holds (w, o, c); x = 1..1 holds (c, c, c)
    seq = tuple_to_state_sequence(SpanTuple({"x": Span(2, 3)}), 2, {"x"})
    assert seq == [(WAITING,), (OPEN,), (CLOSED,)]
    seq = tuple_to_state_sequence(SpanTuple({"x": Span(1, 1)}), 2, {"x"})
    assert seq == [(CLOSED,), (CLOSED,), (CLOSED,)]


def test_state_sequence_round_trip_all_tuples():
    length = 2
    for span in all_spans(length):
        t = SpanTuple({"x": span})
        seq = tuple_to_state_sequence(t, length, {"x"})
        assert is_valid_state_sequence(seq)
        assert state_sequence_to_tuple(seq, {"x"}) == t


def test_state_sequence_round_trip_two_variables():
    length = 3
    for s1, s2 in itertools.product(all_spans(length), repeat=2):
        t = SpanTuple({"x": s1, "y": s2})
        seq = tuple_to_state_sequence(t, length, {"x", "y"})
        assert state_sequence_to_tuple(seq, {"x", "y"}) == t


def test_state_sequence_rejects_non_monotone():
    assert not is_valid_state_sequence([(OPEN,), (WAITING,), (CLOSED,)])
    assert not is_valid_state_sequence([(WAITING,), (OPEN,), (OPEN,)])
    assert not is_valid_state_sequence([])

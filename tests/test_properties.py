"""Property tests on documents past the ref-word oracle's 8-symbol limit.

Each reference builds no automaton: a closed form, ``str.find``, a
brute-force comparison of substrings, or the canonical route checked
against the compiled one.  Streams from one automaton are also checked to
come in the canonical order, against a sort by ``canonical_key``, and so is
the order ``enumeration_key`` gives a set of rows.  Examples are
derandomized, so a run is reproducible.
"""

from itertools import combinations_with_replacement
from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spanex.enumerator import enumeration_key
from spanex.model import Span, SpanTuple, all_spans, span_text
from spanex.query import compile_query, eval_query, parse_query

from helpers import assert_canonical_order, canonical_key, span_set

PROPERTY = settings(derandomize=True, deadline=None, max_examples=6)


def documents(alphabet: str, low: int, high: int):
    """Texts with lengths spread over ``low..high`` (``st.text`` alone keeps
    them near its minimum)."""
    return st.integers(low, high).flatmap(
        lambda n: st.text(alphabet=alphabet, min_size=n, max_size=n))


def drain(text: str, doc: str, **kwargs) -> list:
    return list(eval_query(parse_query(text), doc, **kwargs))


@PROPERTY
@given(documents("abc", 20, 200))
def test_every_span_of_long_documents(doc):
    rows = drain("SELECT x FROM /.* x{.*} .*/", doc)
    length = len(doc)
    assert len(rows) == (length + 1) * (length + 2) // 2
    assert span_set(rows) == {(i, j) for i in range(1, length + 2)
                              for j in range(i, length + 2)}
    assert_canonical_order(rows, len(doc), ("x",))


def assert_every_ordered_span_tuple(doc: str, names: str) -> None:
    """``SELECT x, y FROM /.* x{.*} .* y{.*} .*/`` and its like yield every
    tuple of spans in which each variable ends where the next may begin:
    C(L + 2k, 2k) rows for k variables on L symbols."""
    binds = " .* ".join(f"{name}{{.*}}" for name in names)
    rows = drain(f"SELECT {', '.join(names)} FROM /.* {binds} .*/", doc)
    bounds = 2 * len(names)
    assert len(rows) == comb(len(doc) + bounds, bounds)
    assert ({tuple(b for name in names for b in (row[name].begin, row[name].end))
             for row in rows}
            == set(combinations_with_replacement(range(1, len(doc) + 2), bounds)))
    assert_canonical_order(rows, len(doc), tuple(names))


@settings(PROPERTY, max_examples=3)
@given(documents("abc", 9, 25))
@example("abc" * 8 + "a")
def test_every_span_pair_of_long_documents(doc):
    assert_every_ordered_span_tuple(doc, "xy")


@settings(PROPERTY, max_examples=3)
@given(documents("abc", 9, 14))
@example("abc" * 4 + "ab")
def test_every_span_triple_of_long_documents(doc):
    assert_every_ordered_span_tuple(doc, "xyz")


@settings(PROPERTY, max_examples=20)
@given(documents("ab", 20, 200),
       st.text(alphabet="ab", min_size=1, max_size=3))
def test_word_occurrences_match_str_find(doc, word):
    want = set()
    start = doc.find(word)
    while start != -1:
        want.add((start + 1, start + 1 + len(word)))
        start = doc.find(word, start + 1)
    rows = drain(f"SELECT x FROM /.* x{{{word}}} .*/", doc)
    assert len(rows) == len(want)
    assert span_set(rows) == want
    assert_canonical_order(rows, len(doc), ("x",))


@st.composite
def row_sets(draw):
    """A document length, 0 to 4 variable names and a set of rows over
    them, with many empty spans and spans that end after the last symbol."""
    length = draw(st.integers(9, 30))
    names = ("w", "x", "y", "z")[:draw(st.integers(0, 4))]
    rows = set()
    for _ in range(draw(st.integers(1, 30))):
        spans = []
        for _ in names:
            begin = draw(st.integers(1, length + 1))
            end = draw(st.one_of(st.just(begin), st.just(length + 1),
                                 st.integers(begin, length + 1)))
            spans.append(Span(begin, end))
        rows.add(SpanTuple(zip(names, spans)))
    return length, names, rows


@settings(PROPERTY, max_examples=30)
@given(row_sets())
def test_enumeration_key_is_the_canonical_order(case):
    length, names, rows = case
    assert (sorted(rows, key=enumeration_key, reverse=True)
            == sorted(rows, key=lambda row: canonical_key(row, length, names)))
    assert len({tuple(enumeration_key(row)) for row in rows}) == len(rows)


# The query of the benchmark's streq workload: x ends before y starts.
EQUAL_PAIRS = "SELECT x, y FROM /.* x{.*} .* y{.*} .*/ WHERE x == y"


@settings(PROPERTY, max_examples=4)
@given(documents("ab", 9, 12))
@example("a" * 38)
def test_equal_substring_pairs(doc):
    by_text: dict[str, list] = {}
    for span in all_spans(len(doc)):
        by_text.setdefault(span_text(doc, span), []).append(span)
    want = {(x, y) for group in by_text.values() for x in group for y in group
            if x.end <= y.begin}
    rows = drain(EQUAL_PAIRS, doc)
    assert len(rows) == len(want)
    assert {(row["x"], row["y"]) for row in rows} == want
    _, canonical = compile_query(parse_query(EQUAL_PAIRS), doc, fallback=True)
    assert canonical == []  # within the default budget, unary-38 included


# Equality shapes beyond the benchmark's: crossing spans from two atoms, a
# class of three, two classes, an empty-span class, and a member that only
# closes after an odd number of letters.
EQUALITY_QUERIES = (
    "SELECT x, y FROM /.* x{a .*} .*/, /.* y{.* b} .*/ WHERE x == y",
    "SELECT x, z FROM /.* x{.+} .* y{.+} .* z{.+} .*/ WHERE x == y AND y == z",
    "SELECT x, w FROM /.* x{.+} .* y{.+} .*/, /.* z{.} w{.} .*/ "
    "WHERE x == y AND z == w",
    "SELECT x, y FROM /.* x{a*} .* y{b*} .*/ WHERE x == y",
    "SELECT x, y FROM /.* x{a (. .)*} .* y{.*} .*/ WHERE x == y",
)


@settings(PROPERTY, max_examples=8)
@given(documents("ab", 9, 14), st.sampled_from(EQUALITY_QUERIES))
def test_equality_queries_agree_with_canonical(doc, text):
    compiled = drain(text, doc, strategy="compiled")
    assert_canonical_order(compiled, len(doc), parse_query(text).projection)
    assert compiled == drain(text, doc, strategy="canonical")


# Atom parts whose relations stay small on binary documents, so that the
# canonical route, which materializes every atom, stays fast.
PATTERNS = ("a", "b", "ab", "ba", "a b*", "b+ a", ".", "(a|b) a", "a*", "ε")
GAPS = ("", ".", ".*")


@st.composite
def conjunctive_queries(draw):
    atoms = []
    used = set()
    for _ in range(draw(st.integers(1, 3))):
        variables = draw(st.sampled_from([("x",), ("y",), ("x", "y"), ("y", "x")]))
        used.update(variables)
        binds = [f"{var}{{{draw(st.sampled_from(PATTERNS))}}}" for var in variables]
        gap = draw(st.sampled_from(GAPS))
        atoms.append("/.* " + f" {gap} ".join(binds) + " .*/")
    projection = draw(st.sampled_from(
        [(), *((var,) for var in sorted(used)), tuple(sorted(used))]))
    return f"SELECT {', '.join(projection) or '()'} FROM {', '.join(atoms)}"


@settings(PROPERTY, max_examples=40)
@given(conjunctive_queries(), documents("ab", 20, 60))
def test_canonical_and_compiled_agree(text, doc):
    compiled = drain(text, doc, strategy="compiled")
    assert_canonical_order(compiled, len(doc), parse_query(text).disjuncts[0].projection)
    assert compiled == drain(text, doc, strategy="canonical")

"""Conjunctive and union queries over capture formulas: parsing, planning,
and the two evaluation strategies.

Query text grammar (usually stored in ``.spq`` files)::

    query     :=  cq ( "UNION" cq )*
    cq        :=  "SELECT" projection "FROM" atom ("," atom)*
                  [ "WHERE" equality ("AND" equality)* ]
    projection:=  "(" ")"  |  variable ("," variable)*
    atom      :=  "/" formula-source "/"        (\\/ for a literal slash)
    equality  :=  variable "==" variable

A query's answer on a document is the natural join of its atoms' span
relations, filtered so equated variables span equal substrings, projected
onto the selected variables; ``UNION`` takes the set union of such answers,
which is why all branches must project the same variable set.  ``SELECT ()``
is the Boolean form: the answer is either empty or the single empty tuple.

Two evaluation routes exist.  The canonical one materialises every atom and
runs hash joins plus filters; the compiled one builds match graphs and
streams their enumeration (duplicate-free, ordered, polynomial delay).  A
disjunct with equalities gets the equality search's own graph, and any other
the graph of its projected join; the compiled disjuncts' graphs are one
graph side by side, whose stream is merged with the canonical disjuncts'
rows.  ``eval_query`` picks a route per branch with :func:`plan_query`,
since a join of many atoms can blow up the automaton product; the rows and
their order do not depend on the routes it picks.
"""

from __future__ import annotations

import heapq
import itertools
import re
from dataclasses import dataclass

from .compiler import (
    EqualityBudgetError,
    compile_regex,
    equality_graph,
    join_many,
    project,
)
from .enumerator import (
    MatchGraph,
    build_match_graph,
    enumerate_graph,
    enumerate_spans,
    enumeration_key,
    union_graph,
)
from .formula import (
    Any,
    Formula,
    FormulaSyntaxError,
    Sym,
    formula_nodes,
    formula_to_source,
    formula_variables,
    parse_formula,
)
from .model import SpanTuple, span_text


class QuerySyntaxError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


# ---------------------------------------------------------------------------
# Query types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjunctiveQuery:
    """One SELECT…FROM…WHERE block."""

    projection: tuple[str, ...]
    atoms: tuple[Formula, ...]
    equalities: tuple[tuple[str, str], ...] = ()

    @property
    def variables(self) -> frozenset[str]:
        return frozenset().union(*map(formula_variables, self.atoms))

    @property
    def projected_set(self) -> frozenset[str]:
        return frozenset(self.projection)

    def validate(self) -> None:
        if not self.atoms:
            raise QuerySyntaxError("a query needs at least one atom")
        seen: set[str] = set()
        for var in self.projection:
            if var in seen:
                raise QuerySyntaxError(f"duplicate projection variable {var!r}")
            seen.add(var)
        atom_vars = self.variables
        for var in self.projection:
            if var not in atom_vars:
                raise QuerySyntaxError(
                    f"projected variable {var!r} does not occur in any atom")
        for x, y in self.equalities:
            for var in (x, y):
                if var not in atom_vars:
                    raise QuerySyntaxError(
                        f"equality variable {var!r} does not occur in any atom")


@dataclass(frozen=True)
class UnionQuery:
    disjuncts: tuple[ConjunctiveQuery, ...]

    @property
    def projection(self) -> tuple[str, ...]:
        return self.disjuncts[0].projection

    @property
    def projected_set(self) -> frozenset[str]:
        return self.disjuncts[0].projected_set

    def validate(self) -> None:
        if not self.disjuncts:
            raise QuerySyntaxError("empty union")
        for cq in self.disjuncts:
            cq.validate()
        first = self.disjuncts[0].projected_set
        for cq in self.disjuncts[1:]:
            if cq.projected_set != first:
                raise QuerySyntaxError(
                    "union branches must project the same variable set: "
                    f"{sorted(first)} vs {sorted(cq.projected_set)}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND", "UNION"}
_PUNCTUATION = {",": "comma", "(": "lparen", ")": "rparen", "==": "eq"}
# whitespace, a /formula/ literal (an escaped character is a pair), a mark,
# a name, and any other character, which is an error; so the matches tile
# the whole text
_QUERY_TOKEN = re.compile(r"(\s+)|/((?:[^/\\]|\\.)*)/|(==|[,()])|([A-Za-z_][A-Za-z0-9_]*)|(.)",
                          re.DOTALL)


def _tokenize_query(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    for match in _QUERY_TOKEN.finditer(text):
        kind, start = match.lastindex, match.start()
        if kind == 2:
            # a "/" inside the literal always follows the backslash that
            # escapes it
            tokens.append(("regex", match[2].replace("\\/", "/"), start))
        elif kind == 3:
            tokens.append((_PUNCTUATION[match[3]], match[3], start))
        elif kind == 4:
            word = match[4]
            tokens.append(("kw" if word in _KEYWORDS else "ident", word, start))
        elif kind == 5:
            if match[5] == "/":
                raise QuerySyntaxError("unterminated formula literal", start)
            raise QuerySyntaxError(f"unexpected character {match[5]!r}", start)
    return tokens


class _QueryParser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise QuerySyntaxError("unexpected end of query")
        self.pos += 1
        return token

    def expect_kw(self, word: str) -> None:
        token = self.take()
        if token[0] != "kw" or token[1] != word:
            raise QuerySyntaxError(f"expected {word}, found {token[1]!r}", token[2])

    def at_kw(self, word: str) -> bool:
        token = self.peek()
        return token is not None and token[0] == "kw" and token[1] == word

    def parse_variable(self) -> str:
        token = self.take()
        if token[0] != "ident":
            raise QuerySyntaxError(f"expected a variable name, found {token[1]!r}",
                                   token[2])
        return token[1]

    def parse_projection(self) -> tuple[str, ...]:
        token = self.peek()
        if token is not None and token[0] == "lparen":
            self.take()
            closing = self.take()
            if closing[0] != "rparen":
                raise QuerySyntaxError("expected ) after ( in projection", closing[2])
            return ()
        names = [self.parse_variable()]
        while self.peek() is not None and self.peek()[0] == "comma":
            self.take()
            names.append(self.parse_variable())
        return tuple(names)

    def parse_atom(self) -> Formula:
        token = self.take()
        if token[0] != "regex":
            raise QuerySyntaxError(f"expected /formula/, found {token[1]!r}", token[2])
        try:
            return parse_formula(token[1])
        except FormulaSyntaxError as err:
            raise QuerySyntaxError(f"bad formula atom: {err}", token[2]) from err

    def parse_cq(self) -> ConjunctiveQuery:
        self.expect_kw("SELECT")
        projection = self.parse_projection()
        self.expect_kw("FROM")
        atoms = [self.parse_atom()]
        while self.peek() is not None and self.peek()[0] == "comma":
            self.take()
            atoms.append(self.parse_atom())
        equalities: list[tuple[str, str]] = []
        if self.at_kw("WHERE"):
            self.take()
            while True:
                x = self.parse_variable()
                eq = self.take()
                if eq[0] != "eq":
                    raise QuerySyntaxError("expected == in equality", eq[2])
                y = self.parse_variable()
                equalities.append((x, y))
                if self.at_kw("AND"):
                    self.take()
                    continue
                break
        return ConjunctiveQuery(projection, tuple(atoms), tuple(equalities))

    def parse_query(self) -> UnionQuery:
        disjuncts = [self.parse_cq()]
        while self.at_kw("UNION"):
            self.take()
            disjuncts.append(self.parse_cq())
        trailing = self.peek()
        if trailing is not None:
            raise QuerySyntaxError(f"unexpected trailing input {trailing[1]!r}",
                                   trailing[2])
        return UnionQuery(tuple(disjuncts))


def parse_query(text: str) -> UnionQuery:
    """Parse and validate query text into its union-of-conjunctive form."""
    query = _QueryParser(_tokenize_query(text)).parse_query()
    query.validate()
    return query


def query_to_source(query: UnionQuery) -> str:
    """Render a query back to grammar text (parses to an equal query)."""
    blocks = []
    for cq in query.disjuncts:
        projection = ", ".join(cq.projection) if cq.projection else "()"
        atoms = ", ".join(
            "/" + formula_to_source(atom).replace("/", "\\/") + "/"
            for atom in cq.atoms)
        text = f"SELECT {projection} FROM {atoms}"
        if cq.equalities:
            text += " WHERE " + " AND ".join(
                f"{x} == {y}" for x, y in cq.equalities)
        blocks.append(text)
    return " UNION ".join(blocks)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanOptions:
    """The one budget of the automatic strategy choice.

    ``eq_path_budget``: most states the equality search (``equality_graph``)
    may create per disjunct, counting the states that read a letter next and
    the final one (the search keeps no other; on 38 a's, ``x == y`` over
    ``.* x{.*} .* y{.*} .*`` creates 5,397, and 132 a's pass the default);
    past it, ``auto`` evaluates the disjunct canonically and a forced
    compiled run raises :class:`EqualityBudgetError`.
    A join of more than :data:`MAX_SMALL_JOIN` atoms is planned compiled only
    when its state bound fits it too.
    """

    eq_path_budget: int = 200_000


CANONICAL = "canonical"
COMPILED = "compiled"
MAX_SMALL_JOIN = 3  # a join of at most this many atoms compiles whatever its bound
MAX_EQ_COMPILE = 2  # more equalities than this are evaluated canonically


def _join_fits(atoms, budget: int) -> bool:
    """Whether the left fold of the join over the atoms provably creates at
    most ``budget`` states.  An atom with L letters compiles to at most
    2 + 2·L states: the initial and final states, and at most L source and
    L target copies.  Letters pair source copies only with source copies,
    so joining a form of at most P source and P target copies with one of
    L creates at most 1 + (P+1)(L+1) + P·L states, and keeps at most P·L
    of each copy."""
    counts = [sum(isinstance(node, (Sym, Any)) for node in formula_nodes(atom))
              for atom in atoms]
    product = counts[0]
    created = 2 + 2 * product
    for letters in counts[1:]:
        created += 1 + (product + 1) * (letters + 1) + product * letters
        product *= letters
    return created <= budget


def plan_query(query: UnionQuery, options: PlanOptions | None = None) -> list[str]:
    """Per-disjunct strategy decisions: compiled when the disjunct has at
    most :data:`MAX_EQ_COMPILE` equalities and either at most
    :data:`MAX_SMALL_JOIN` atoms or a join whose state bound fits
    ``options.eq_path_budget``; no atom is compiled to decide."""
    budget = (options or PlanOptions()).eq_path_budget
    decisions = []
    for cq in query.disjuncts:
        compiles = len(cq.equalities) <= MAX_EQ_COMPILE and (
            len(cq.atoms) <= MAX_SMALL_JOIN or _join_fits(cq.atoms, budget))
        decisions.append(COMPILED if compiles else CANONICAL)
    return decisions


# ---------------------------------------------------------------------------
# Evaluation: canonical relational route
# ---------------------------------------------------------------------------


def _hash_join(left_vars, left_rows, right_vars, right_rows):
    shared = left_vars & right_vars
    merged_vars = left_vars | right_vars
    out = []
    if shared:
        index: dict[SpanTuple, list[SpanTuple]] = {}
        for row in right_rows:
            index.setdefault(row.restrict(shared), []).append(row)
        for row in left_rows:
            for other in index.get(row.restrict(shared), ()):
                out.append(row.merge(other))
    else:
        for row, other in itertools.product(left_rows, right_rows):
            out.append(row.merge(other))
    return merged_vars, out


def eval_canonical(cq: ConjunctiveQuery, doc: str) -> list[SpanTuple]:
    """Materialise every atom, hash-join them smallest-first, filter the
    equalities by substring comparison, project, dedup.  Returns the answer
    in the order the compiled route streams it (descending
    :func:`~spanex.enumerator.enumeration_key`)."""
    relations = []
    for atom in cq.atoms:
        rows = list(enumerate_spans(compile_regex(atom), doc))
        relations.append((formula_variables(atom), rows))
    relations.sort(key=lambda pair: len(pair[1]))
    variables, rows = relations[0]
    for other_vars, other_rows in relations[1:]:
        variables, rows = _hash_join(variables, rows, other_vars, other_rows)
    for x, y in cq.equalities:
        rows = [row for row in rows
                if span_text(doc, row[x]) == span_text(doc, row[y])]
    projected = cq.projected_set
    return sorted({row.restrict(projected) for row in rows},
                  key=enumeration_key, reverse=True)


# ---------------------------------------------------------------------------
# Evaluation: compiled route
# ---------------------------------------------------------------------------


def compile_cq(cq: ConjunctiveQuery, doc: str, *,
               path_budget: int | None = None) -> MatchGraph:
    """The match graph whose enumeration on ``doc`` is exactly the answer.

    The compiled atoms are joined; a disjunct with equalities takes the
    equality search's own graph, projected by ranking its letters on the
    kept columns, and any other the graph of the join's projection."""
    joined = join_many(map(compile_regex, cq.atoms))
    if cq.equalities:
        return equality_graph(joined, cq.equalities, doc, cq.projected_set,
                              path_budget=path_budget)
    return build_match_graph(project(joined, cq.projected_set), doc)


def compile_query(query: UnionQuery, doc: str, decisions: list[str] | None = None,
                  *, path_budget: int = PlanOptions.eq_path_budget,
                  fallback: bool = False) -> tuple[MatchGraph, list[ConjunctiveQuery]]:
    """One match graph for the disjuncts planned ``COMPILED`` (all when
    ``decisions`` is None), each compiled exactly once and their graphs
    united (:func:`~spanex.enumerator.union_graph`), and the disjuncts left
    to the canonical route: those planned canonical and, with ``fallback``,
    those whose equality search went past ``path_budget`` states (else that
    raises :class:`EqualityBudgetError`).
    """
    if decisions is None:
        decisions = [COMPILED] * len(query.disjuncts)
    graphs = []
    canonical = []
    for cq, decision in zip(query.disjuncts, decisions):
        if decision == COMPILED:
            try:
                graphs.append(compile_cq(cq, doc, path_budget=path_budget))
                continue
            except EqualityBudgetError:
                if not fallback:
                    raise
        canonical.append(cq)
    return union_graph(doc, tuple(sorted(query.projected_set)), graphs), canonical


# ---------------------------------------------------------------------------
# Evaluation: strategy dispatch
# ---------------------------------------------------------------------------


def eval_query(query: UnionQuery, doc: str,
               options: PlanOptions | None = None,
               strategy: str = "auto"):
    """Evaluate a union query: a stream of distinct projected span tuples.

    ``strategy`` is ``auto`` (:func:`plan_query` per disjunct, and canonical
    for a disjunct whose equality search passes ``options.eq_path_budget``),
    ``canonical``, or ``compiled`` (force the compiled route, whatever its
    size; raises :class:`EqualityBudgetError` past ``options.eq_path_budget``).
    Every route yields the same list, in the enumerator's order: the stream
    of :func:`compile_query`'s graph and the canonical rows of the disjuncts
    it leaves, merged on :func:`~spanex.enumerator.enumeration_key` with
    repeats dropped.
    """
    options = options or PlanOptions()
    if strategy == "auto":
        decisions = plan_query(query, options)
    elif strategy in (COMPILED, CANONICAL):
        decisions = [strategy] * len(query.disjuncts)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    graph, canonical = compile_query(query, doc, decisions,
                                     path_budget=options.eq_path_budget,
                                     fallback=strategy == "auto")
    streams = [eval_canonical(cq, doc) for cq in canonical]
    if not graph.empty:
        streams.append(enumerate_graph(graph))
    if len(streams) != 1:  # equal keys are equal rows, so repeats are dropped
        merged = heapq.merge(*streams, key=enumeration_key, reverse=True)
        streams = [(row for row, _ in itertools.groupby(merged))]
    yield from streams[0]

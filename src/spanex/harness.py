"""Reduction-based instance generators.

The generators translate classic hard problems into (document, query) pairs
whose answer is nonempty exactly when the instance is solvable: Boolean
satisfiability via per-clause disjunctions over a one-letter document, and
k-clique search via a document listing a graph's edges, matched either by
per-node disjunction atoms or by string-equality selections.  An exhaustive
satisfiability decider lives here too, so a caller can compare verdicts end
to end.
"""

from __future__ import annotations

import functools
import itertools
import math

from .formula import (
    Alt,
    Any,
    Bind,
    Cat,
    Epsilon,
    Formula,
    Star,
    Sym,
)


# ---------------------------------------------------------------------------
# Shared formula-building helpers
# ---------------------------------------------------------------------------


def _cat_all(parts: list[Formula]) -> Formula:
    return functools.reduce(Cat, parts) if parts else Epsilon()


def _alt_all(parts: list[Formula]) -> Formula:
    return functools.reduce(Alt, parts)


def _literal(text: str) -> Formula:
    return _cat_all([Sym(ch) for ch in text])


# ---------------------------------------------------------------------------
# Satisfiability reduction
# ---------------------------------------------------------------------------


def gen_3cnf_query(clauses):
    """Encode a 3-CNF instance as (query, document).

    ``clauses`` is a sequence of 3-element sequences of nonzero ints (DIMACS
    style: ``k`` means variable k true, ``-k`` false).  The document is the
    single letter "a"; an assignment is encoded by where each variable's
    empty span sits — before the letter for false, after it for true.  Each
    clause becomes one atom: the disjunction of its satisfying assignments
    (at most 7 of 8).  The Boolean query's answer is nonempty exactly when
    the instance is satisfiable.

    Returns ``(query, doc)`` where the query is a parsed Boolean query.
    """
    from .query import ConjunctiveQuery, UnionQuery

    atoms = []
    for clause in clauses:
        clause = tuple(clause)
        if len(clause) != 3 or any(not isinstance(lit, int) or lit == 0
                                   for lit in clause):
            raise ValueError(f"malformed clause {clause!r}: need 3 nonzero ints")
        numbers = sorted({abs(lit) for lit in clause})
        branches = []
        for bits in itertools.product((0, 1), repeat=len(numbers)):
            truth = dict(zip(numbers, bits))
            if not any(truth[abs(lit)] == (1 if lit > 0 else 0) for lit in clause):
                continue  # the one falsifying assignment
            before = [Bind(f"x{num}", Epsilon())
                      for num in numbers if truth[num] == 0]
            after = [Bind(f"x{num}", Epsilon())
                     for num in numbers if truth[num] == 1]
            branches.append(_cat_all(before + [Sym("a")] + after))
        atoms.append(_alt_all(branches))
    query = UnionQuery((ConjunctiveQuery((), tuple(atoms)),))
    query.validate()
    return query, "a"


def brute_force_sat(clauses) -> bool:
    """Exhaustive satisfiability check (for verdict comparison in tests)."""
    numbers = sorted({abs(lit) for clause in clauses for lit in clause})
    for bits in itertools.product((0, 1), repeat=len(numbers)):
        truth = dict(zip(numbers, bits))
        if all(any(truth[abs(lit)] == (1 if lit > 0 else 0) for lit in clause)
               for clause in clauses):
            return True
    return False


# ---------------------------------------------------------------------------
# Clique reductions
# ---------------------------------------------------------------------------
#
# A graph is (n, edges): nodes 1..n, edges as unordered pairs.  The document
# lists each edge {i, j} (i < j) once, ordered by (i, j), as the block
#     [ code(i) # code(j) ]
# with fixed-width node codes over {a, b}.  A k-clique corresponds to
# choosing one block per clique pair (i, j), in block order, with all blocks
# that mention clique node l carrying the same code — the two generators
# below enforce that sameness differently.

_BLOCK_OPEN = "["
_BLOCK_SEP = "#"
_BLOCK_CLOSE = "]"


def _normalize_graph(graph):
    n, edges = graph
    if n < 1:
        raise ValueError(f"a graph needs at least 1 node, not {n}")
    out = set()
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise ValueError(f"bad edge {(u, v)!r} for {n} nodes")
        out.add((min(u, v), max(u, v)))
    return n, sorted(out)


def _node_code(node: int, width: int) -> str:
    bits = format(node - 1, "b").rjust(width, "0")
    return bits.replace("0", "a").replace("1", "b")


def clique_document(graph) -> str:
    """The edge-list encoding shared by both clique reductions."""
    n, edges = _normalize_graph(graph)
    width = max(1, math.ceil(math.log2(n)))
    return "".join(
        _BLOCK_OPEN + _node_code(i, width) + _BLOCK_SEP + _node_code(j, width)
        + _BLOCK_CLOSE
        for i, j in edges)


def _first_var(i: int, j: int) -> str:
    return f"x{i}_{j}"


def _second_var(i: int, j: int) -> str:
    return f"y{i}_{j}"


def _block_structure_atom(k: int) -> Formula:
    """One atom forcing a block per clique pair, in document order; the
    variables capture each block's two codes."""
    code = Star(Alt(Sym("a"), Sym("b")))
    parts: list[Formula] = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            parts.append(_cat_all([
                Star(Any()),
                Sym(_BLOCK_OPEN),
                Bind(_first_var(i, j), code),
                Sym(_BLOCK_SEP),
                Bind(_second_var(i, j), code),
                Sym(_BLOCK_CLOSE),
                Star(Any()),
            ]))
    return _cat_all(parts)


def _clique_group(l: int, k: int) -> list[str]:
    """The variables that must all carry clique node l's code, in the
    document order their blocks appear in."""
    return ([_second_var(i, l) for i in range(1, l)]
            + [_first_var(l, j) for j in range(l + 1, k + 1)])


def gen_clique_query(graph, k: int):
    """Encode k-clique existence as (query, document), disjunction flavour.

    Per clique slot l, one atom pins every variable of that slot's group to
    a concrete node code (a disjunction over all n nodes).  All k group
    atoms are needed: with any one left out, that group's variables may
    name different nodes and sneak in a non-clique.  Returns a Boolean
    query; nonempty answer ⇔ the graph has a k-clique.
    """
    from .query import ConjunctiveQuery, UnionQuery

    if k < 2:
        raise ValueError("clique size must be at least 2")
    n, _edges = _normalize_graph(graph)
    doc = clique_document(graph)
    width = max(1, math.ceil(math.log2(n)))

    slot_atoms = []
    for l in range(1, k + 1):
        options = []
        for node in range(1, n + 1):
            code = _literal(_node_code(node, width))
            parts: list[Formula] = []
            for i in range(1, l):
                parts.append(_cat_all([
                    Star(Any()), Sym(_BLOCK_SEP),
                    Bind(_second_var(i, l), code),
                    Sym(_BLOCK_CLOSE), Star(Any()),
                ]))
            for j in range(l + 1, k + 1):
                parts.append(_cat_all([
                    Star(Any()), Sym(_BLOCK_OPEN),
                    Bind(_first_var(l, j), code),
                    Sym(_BLOCK_SEP), Star(Any()),
                ]))
            options.append(_cat_all(parts))
        slot_atoms.append(_alt_all(options))

    atoms = (_block_structure_atom(k), *slot_atoms)
    query = UnionQuery((ConjunctiveQuery((), atoms),))
    query.validate()
    return query, doc


def gen_streq_clique_query(graph, k: int):
    """Encode k-clique existence as (query, document), equality flavour:
    the single block-structure atom, with each slot's group of variables
    chained by substring-equality selections instead of node disjunctions."""
    from .query import ConjunctiveQuery, UnionQuery

    if k < 2:
        raise ValueError("clique size must be at least 2")
    _normalize_graph(graph)
    doc = clique_document(graph)

    equalities = []
    for l in range(1, k + 1):
        group = _clique_group(l, k)
        equalities.extend(zip(group, group[1:]))

    query = UnionQuery((ConjunctiveQuery((), (_block_structure_atom(k),),
                                         tuple(equalities)),))
    query.validate()
    return query, doc

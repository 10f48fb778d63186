"""The ref-word oracle: span relations computed from their definition.

A regex formula or variable-set automaton defines its span relation on a
document through ref-words: strings over the document alphabet extended
with per-variable open/close markers.  Erasing the markers gives back the
document; the marker positions encode a span tuple.  This module decides
membership that way and shares no machinery with the engine it checks: it
walks formula trees with first/last/follow position sets, simulates an
automaton's edge lists as a plain NFA, and tries every candidate tuple by
brute force, instead of using configurations, normal forms, match graphs
or ordered enumeration.  It imports only the data types of ``spanex``.
"""

from __future__ import annotations

import itertools

from spanex.formula import (
    Alt, Any, Bind, Cat, Empty, Epsilon, Formula, Star, Sym, formula_variables,
)
from spanex.model import (
    CLOSED, OP_CLOSE, OP_OPEN, OPEN, WAITING, Span, SpanTuple, all_spans,
    close_op, open_op,
)
from spanex.vsa import ANY, VSA

_MAX_ORACLE_VARS = 3
_MAX_ORACLE_DOC = 8


# ---------------------------------------------------------------------------
# Ref-words
# ---------------------------------------------------------------------------

# A ref-word is a tuple whose entries are either 1-character strings
# (document symbols) or ("open"/"close", var) operation pairs.


def is_valid_ref_word(ref_word, variables) -> bool:
    """Check that every variable is opened exactly once and closed exactly
    once afterwards, and that no foreign markers occur."""
    states = {v: WAITING for v in variables}
    for sym in ref_word:
        if isinstance(sym, str):
            continue
        kind, var = sym
        if var not in states:
            return False
        if kind == OP_OPEN:
            if states[var] != WAITING:
                return False
            states[var] = OPEN
        else:
            if states[var] != OPEN:
                return False
            states[var] = CLOSED
    return all(state == CLOSED for state in states.values())


def ref_word_span_tuple(ref_word, variables) -> SpanTuple:
    """Decode the span tuple a valid ref-word denotes.

    A variable's span begins right after the document symbols preceding its
    open marker and extends over the symbols up to its close marker.  A
    marker pair with no symbols in between denotes an empty span *at the
    position following the preceding symbols* — e.g. markers after the whole
    document denote (len+1, len+1), not a span touching the last symbol.
    """
    variables = list(variables)
    opens: dict[str, int] = {}
    closes: dict[str, int] = {}
    pos = 1  # 1-based position of the next document symbol
    for sym in ref_word:
        if isinstance(sym, str):
            pos += 1
            continue
        kind, var = sym
        if kind == OP_OPEN:
            opens[var] = pos
        else:
            closes[var] = pos
    missing = [v for v in variables if v not in opens or v not in closes]
    if missing:
        raise ValueError(f"ref-word does not bind variables: {missing}")
    return SpanTuple({v: Span(opens[v], closes[v]) for v in variables})


def tuple_ref_words(tup: SpanTuple, doc: str):
    """All ref-words over ``doc`` that denote ``tup``.

    Markers attached to the same position can interleave in any order, except
    that a variable's open marker must precede its own close marker.  The
    count is small for small variable sets.
    """
    doc_len = len(doc)
    blocks: list[list[tuple[str, str]]] = [[] for _ in range(doc_len + 2)]
    for var, span in tup.items():
        blocks[span.begin].append(open_op(var))
        blocks[span.end].append(close_op(var))

    def block_orders(ops: list[tuple[str, str]]) -> list[tuple]:
        seen = set()
        orders = []
        for perm in itertools.permutations(ops):
            if perm in seen:
                continue
            seen.add(perm)
            pending = set()
            ok = True
            for kind, var in perm:
                if kind == OP_OPEN:
                    pending.add(var)
                elif var in pending:
                    pending.discard(var)
                elif (OP_OPEN, var) in ops:
                    ok = False  # close before its own open in the same block
                    break
            if ok:
                orders.append(perm)
        return orders

    choices = [block_orders(blocks[pos]) for pos in range(1, doc_len + 2)]

    def rec(pos: int, acc: list):
        if pos > doc_len + 1:
            yield tuple(acc)
            return
        for order in choices[pos - 1]:
            acc2 = acc + list(order)
            if pos <= doc_len:
                acc2.append(doc[pos - 1])
            yield from rec(pos + 1, acc2)

    yield from rec(1, [])


# ---------------------------------------------------------------------------
# Formulas: position-set simulation
# ---------------------------------------------------------------------------
#
# The formula tree is linearised into its leaf occurrences (terminals plus
# the open/close markers contributed by bindings) and matched with the
# classic first/last/follow position sets, so oracle and engine can only
# agree because they implement the same semantics.


class RefWordMatcher:
    """Matches ref-words (tuples of symbols and markers) against a formula."""

    def __init__(self, formula: Formula):
        self._leaves: list[tuple] = []  # ("sym", ch) | ("any",) | ("op", kind, var)
        self._follow: list[set[int]] = []
        self._nullable, self._first, _last = self._build(formula)
        self._last = _last

    def _leaf(self, spec: tuple) -> tuple[bool, set[int], set[int]]:
        idx = len(self._leaves)
        self._leaves.append(spec)
        self._follow.append(set())
        return False, {idx}, {idx}

    def _build(self, node: Formula) -> tuple[bool, set[int], set[int]]:
        if isinstance(node, Empty):
            return False, set(), set()
        if isinstance(node, Epsilon):
            return True, set(), set()
        if isinstance(node, Sym):
            return self._leaf(("sym", node.char))
        if isinstance(node, Any):
            return self._leaf(("any",))
        if isinstance(node, Alt):
            n1, f1, l1 = self._build(node.left)
            n2, f2, l2 = self._build(node.right)
            return n1 or n2, f1 | f2, l1 | l2
        if isinstance(node, Cat):
            n1, f1, l1 = self._build(node.left)
            n2, f2, l2 = self._build(node.right)
            for p in l1:
                self._follow[p] |= f2
            first = f1 | f2 if n1 else f1
            last = l2 | l1 if n2 else l2
            return n1 and n2, first, last
        if isinstance(node, Star):
            n1, f1, l1 = self._build(node.inner)
            for p in l1:
                self._follow[p] |= f1
            return True, f1, l1
        if isinstance(node, Bind):
            no, fo, lo = self._leaf(("op", OP_OPEN, node.var))
            ni, fi, li = self._build(node.inner)
            nc, fc, lc = self._leaf(("op", OP_CLOSE, node.var))
            # open · inner · close
            for p in lo:
                self._follow[p] |= fi
            mid_last = li | lo if ni else li
            for p in mid_last:
                self._follow[p] |= fc
            return False, fo, lc
        raise TypeError(f"not a formula node: {node!r}")  # pragma: no cover

    @staticmethod
    def _leaf_matches(spec: tuple, symbol) -> bool:
        if spec[0] == "sym":
            return isinstance(symbol, str) and symbol == spec[1]
        if spec[0] == "any":
            return isinstance(symbol, str)
        _, kind, var = spec
        return not isinstance(symbol, str) and symbol == (kind, var)

    def matches(self, ref_word) -> bool:
        symbols = tuple(ref_word)
        if not symbols:
            return self._nullable
        current = {p for p in self._first if self._leaf_matches(self._leaves[p], symbols[0])}
        for symbol in symbols[1:]:
            if not current:
                return False
            candidates = set()
            for p in current:
                candidates |= self._follow[p]
            current = {p for p in candidates if self._leaf_matches(self._leaves[p], symbol)}
        return bool(current & self._last)


# ---------------------------------------------------------------------------
# Automata: plain NFA simulation
# ---------------------------------------------------------------------------


def expand_strict(vsa: VSA) -> VSA:
    """Split multi-operation edges into chains of single-operation edges
    (opens before closes, each alphabetical).  Tuples are unchanged."""
    transitions: list[tuple] = []
    n_states = vsa.n_states
    for src, label, dst in vsa.transitions:
        if isinstance(label, frozenset) and len(label) > 1:
            here = src
            ops = sorted(label, key=lambda op: (op[0] != OP_OPEN, op[1]))
            for op in ops[:-1]:
                transitions.append((here, frozenset((op,)), n_states))
                here = n_states
                n_states += 1
            transitions.append((here, frozenset((ops[-1],)), dst))
        else:
            transitions.append((src, label, dst))
    return VSA(vsa.variables, n_states, vsa.initial, vsa.final, transitions)


def _out_edges(vsa: VSA) -> list[list[tuple]]:
    """Each state's (label, target) pairs, read off the transition list."""
    out: list[list[tuple]] = [[] for _ in range(vsa.n_states)]
    for src, label, dst in vsa.transitions:
        out[src].append((label, dst))
    return out


def eps_closure(vsa: VSA) -> list[frozenset[int]]:
    """States reachable via ε-moves only."""
    out = _out_edges(vsa)
    closures = []
    for start in range(vsa.n_states):
        seen = {start}
        stack = [start]
        while stack:
            for label, nxt in out[stack.pop()]:
                if label is None and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closures.append(frozenset(seen))
    return closures


def accepts_ref_word(vsa: VSA, ref_word) -> bool:
    """NFA membership for automata whose operation sets are singletons.

    Use it after :func:`expand_strict`; operation sets of size > 1 are
    rejected to keep the oracle's semantics plain.
    """
    out = _out_edges(vsa)
    closure = eps_closure(vsa)
    current = set(closure[vsa.initial])
    for symbol in ref_word:
        nxt: set[int] = set()
        for state in current:
            for label, dst in out[state]:
                if isinstance(symbol, str):
                    if label == symbol or label is ANY:
                        nxt |= closure[dst]
                elif isinstance(label, frozenset):
                    if len(label) > 1:
                        raise ValueError("expand the automaton before oracle matching")
                    if label == {symbol}:
                        nxt |= closure[dst]
        current = nxt
        if not current:
            return False
    return vsa.final in current


# ---------------------------------------------------------------------------
# Brute-force enumeration and deciders
# ---------------------------------------------------------------------------


def oracle_enumerate(target, doc: str) -> list[SpanTuple]:
    """Every span tuple of the formula/automaton on ``doc``, the slow way.

    Tries each candidate tuple over the variables (all spans, all variables)
    and accepts it when any ref-word denoting it is matched.  Guard rails
    keep the candidate space honest: at most 3 variables and 8 symbols.
    """
    if isinstance(target, Formula):
        variables = sorted(formula_variables(target))
        accepts = RefWordMatcher(target).matches
    elif isinstance(target, VSA):
        variables = sorted(target.variables)
        strict = expand_strict(target)
        accepts = lambda word: accepts_ref_word(strict, word)  # noqa: E731
    else:
        raise TypeError(f"expected a formula or automaton, got {type(target)!r}")
    if len(variables) > _MAX_ORACLE_VARS:
        raise ValueError(f"oracle guard: more than {_MAX_ORACLE_VARS} variables")
    if len(doc) > _MAX_ORACLE_DOC:
        raise ValueError(f"oracle guard: document longer than {_MAX_ORACLE_DOC}")

    spans = list(all_spans(len(doc)))
    results = []
    for combo in itertools.product(spans, repeat=len(variables)):
        candidate = SpanTuple(dict(zip(variables, combo)))
        if any(accepts(word) for word in tuple_ref_words(candidate, doc)):
            results.append(candidate)
    return sorted(results, key=SpanTuple.items)


def brute_force_clique(graph, k: int) -> bool:
    """Exhaustive k-clique check on a graph ``(n, edges)`` with nodes 1..n
    (for verdict comparison with the clique reductions)."""
    n, edges = graph
    edge_set = {frozenset(edge) for edge in edges}
    return any(all(frozenset(pair) in edge_set
                   for pair in itertools.combinations(combo, 2))
               for combo in itertools.combinations(range(1, n + 1), k))

"""Compilation of capture formulas into marking automata, and the automaton
algebra: projection, union, natural join, and string-equality selection.

Every construction takes and returns functional automata, so the enumerator
can run directly on any output.  The join is a product of the two inputs'
ε-free normal forms, which alternate one marker move and one letter, so it
synchronises letters and pairs marker moves that agree on shared variables;
string equality is handled by joining with a document-specific automaton
whose paths spell out the admissible assignments.  The join, projection and
equality automaton return a :class:`~spanex.vsa.NormalForm`, so no later
stage rebuilds one; compiled formulas and unions stay plain automata.
"""

from __future__ import annotations

import itertools

from .formula import (
    Alt,
    Any,
    Bind,
    Cat,
    Empty,
    Epsilon,
    Formula,
    Star,
    Sym,
    formula_variables,
    require_functional,
)
from .model import CLOSED, OPEN, WAITING, all_spans, close_op, open_op
from .vsa import ANY, VSA, NormalForm, empty_vsa, normal_form, trim


# ---------------------------------------------------------------------------
# Formula -> automaton
# ---------------------------------------------------------------------------


def compile_regex(formula: Formula, *, check: bool = True) -> VSA:
    """Compile a functional formula into an equivalent functional automaton.

    Bindings become open/close marker edges around the compiled body; the
    rest is the usual one-start-one-end construction with at most two fresh
    states per syntax node, so the result is linear in the formula size.
    The output is trimmed (an unsatisfiable formula compiles to the canonical
    empty automaton).
    """
    if check:
        require_functional(formula)
    variables = formula_variables(formula)
    transitions: list[tuple] = []
    n_states = 0

    def fresh() -> int:
        nonlocal n_states
        n_states += 1
        return n_states - 1

    def build(node: Formula) -> tuple[int, int]:
        if isinstance(node, Empty):
            return fresh(), fresh()
        if isinstance(node, Epsilon):
            s, e = fresh(), fresh()
            transitions.append((s, None, e))
            return s, e
        if isinstance(node, Sym):
            s, e = fresh(), fresh()
            transitions.append((s, node.char, e))
            return s, e
        if isinstance(node, Any):
            s, e = fresh(), fresh()
            transitions.append((s, ANY, e))
            return s, e
        if isinstance(node, Alt):
            s, e = fresh(), fresh()
            ls, le = build(node.left)
            rs, re = build(node.right)
            transitions.extend(((s, None, ls), (s, None, rs),
                               (le, None, e), (re, None, e)))
            return s, e
        if isinstance(node, Cat):
            ls, le = build(node.left)
            rs, re = build(node.right)
            transitions.append((le, None, rs))
            return ls, re
        if isinstance(node, Star):
            s, e = fresh(), fresh()
            bs, be = build(node.inner)
            transitions.extend(((s, None, e), (s, None, bs),
                               (be, None, e), (be, None, bs)))
            return s, e
        if isinstance(node, Bind):
            s, e = fresh(), fresh()
            bs, be = build(node.inner)
            transitions.append((s, frozenset((open_op(node.var),)), bs))
            transitions.append((be, frozenset((close_op(node.var),)), e))
            return s, e
        raise TypeError(f"not a formula node: {node!r}")  # pragma: no cover

    start, end = build(formula)
    return trim(VSA(variables, n_states, start, end, transitions))


# ---------------------------------------------------------------------------
# Projection and union
# ---------------------------------------------------------------------------


def project(vsa: VSA, keep) -> NormalForm:
    """Restrict the automaton's tuples to the given variables.

    On the input's normal form, marker operations of dropped variables are
    erased in place (an emptied set becomes a plain ε-edge) and their
    columns leave the configurations; the state graph is unchanged.
    """
    keep = frozenset(keep)
    extra = keep - vsa.variables
    if extra:
        raise ValueError(f"projection variables not in automaton: {sorted(extra)}")
    form = normal_form(vsa)
    if form.configs is None:
        return empty_vsa(keep)
    transitions = []
    for src, label, dst in form.transitions:
        if isinstance(label, frozenset):
            kept = frozenset(op for op in label if op[1] in keep)
            label = kept if kept else None
        transitions.append((src, label, dst))
    columns = [i for i, var in enumerate(form.ordered_variables) if var in keep]
    configs = [tuple(config[i] for i in columns) for config in form.configs]
    return NormalForm(keep, form.n_states, form.initial, form.final, transitions,
                      configs)


def union_vsa(*automata: VSA) -> VSA:
    """Combine automata over one variable set; the result's tuples on any
    document are the union of the inputs' tuples."""
    if not automata:
        raise ValueError("union of no automata")
    variables = automata[0].variables
    for vsa in automata[1:]:
        if vsa.variables != variables:
            raise ValueError("union requires identical variable sets: "
                             f"{sorted(variables)} vs {sorted(vsa.variables)}")
    transitions: list[tuple] = []
    offset = 1
    branch_bounds = []
    for vsa in automata:
        for src, label, dst in vsa.transitions:
            transitions.append((src + offset, label, dst + offset))
        branch_bounds.append((vsa.initial + offset, vsa.final + offset))
        offset += vsa.n_states
    final = offset
    for init, fin in branch_bounds:
        transitions.append((0, None, init))
        transitions.append((fin, None, final))
    return trim(VSA(variables, offset + 1, 0, final, transitions))


# ---------------------------------------------------------------------------
# Natural join
# ---------------------------------------------------------------------------


def join(first: VSA, second: VSA) -> NormalForm:
    """Natural join: tuples that agree on the shared variables, merged.

    The product of the two normal forms (:func:`~spanex.vsa.normal_form`),
    explored forward from the initial pair, with two rules.  A pair of
    source copies reads a symbol both sides can read: concrete on both
    sides, concrete against wildcard, or wildcard on both.  Any other pair
    takes one marker move on each side when the two moves agree on the
    shared variables, labelled with the union of their operations.  The
    product is again in normal form, and a pair's configuration merges the
    two sides' configurations, which agree on the shared variables.
    """
    a, b = normal_form(first), normal_form(second)
    configs_a, configs_b = a.configs, b.configs
    variables = a.variables | b.variables
    if configs_a is None or configs_b is None:
        return empty_vsa(variables)

    shared = sorted(a.variables & b.variables)
    shared_a = [[c[a.ordered_variables.index(v)] for v in shared] for c in configs_a]
    shared_b = [[c[b.ordered_variables.index(v)] for v in shared] for c in configs_b]
    # a merged configuration, read off the concatenation of the two sides
    both = a.ordered_variables + b.ordered_variables
    columns = [both.index(var) for var in sorted(variables)]

    eps_a, ops_a, sym_a, any_a = a.eps_out, a.ops_out, a.sym_out, a.any_out
    eps_b, ops_b, sym_b, any_b = b.eps_out, b.ops_out, b.sym_out, b.any_out
    pair_id = {(a.initial, b.initial): 0}
    pairs = [(a.initial, b.initial)]
    transitions: list[tuple] = []

    def add(source: int, label, q1: int, q2: int) -> None:
        target = pair_id.setdefault((q1, q2), len(pairs))
        if target == len(pairs):
            pairs.append((q1, q2))
        transitions.append((source, label, target))

    for source, (p1, p2) in enumerate(pairs):  # grows while it is walked
        sym_1, any_1 = sym_a[p1], any_a[p1]
        if sym_1 or any_1:  # rule 1: a pair of source copies reads a symbol
            sym_2, any_2 = sym_b[p2], any_b[p2]
            reads = [(symbol, dsts, sym_2.get(symbol, []) + any_2)
                     for symbol, dsts in sym_1.items()]
            reads += [(symbol, any_1, dsts) for symbol, dsts in sym_2.items()]
            reads.append((ANY, any_1, any_2))
            for symbol, dsts_1, dsts_2 in reads:
                for q1 in dsts_1:
                    for q2 in dsts_2:
                        add(source, symbol, q1, q2)
            continue
        # rule 2: one marker move on each side, agreeing on shared variables
        moves_2 = [(None, q2) for q2 in eps_b[p2]] + ops_b[p2]
        for ops_1, q1 in [(None, q1) for q1 in eps_a[p1]] + ops_a[p1]:
            for ops_2, q2 in moves_2:
                if shared_a[q1] == shared_b[q2]:
                    add(source, frozenset().union(ops_1 or (), ops_2 or ()) or None, q1, q2)

    final = pair_id.get((a.final, b.final))
    if final is None:
        return empty_vsa(variables)
    merged = [configs_a[q1] + configs_b[q2] for q1, q2 in pairs]
    configs = [tuple(config[i] for i in columns) for config in merged]
    return trim(NormalForm(variables, len(pairs), 0, final, transitions, configs))


def join_many(automata) -> VSA:
    """Left fold of the binary join (trimmed at every step)."""
    automata = list(automata)
    if not automata:
        raise ValueError("join of no automata")
    result = trim(automata[0])
    for vsa in automata[1:]:
        result = join(result, vsa)
    return result


# ---------------------------------------------------------------------------
# String-equality selection
# ---------------------------------------------------------------------------


class EqualityBudgetError(RuntimeError):
    """Raised when the equality automaton would need more assignment paths
    than the caller allowed."""

    def __init__(self, estimate: int, budget: int):
        super().__init__(f"equality automaton needs {estimate} assignment paths, "
                         f"budget is {budget}")
        self.estimate = estimate
        self.budget = budget


def _equality_classes(selections) -> list[list[str]]:
    parent: dict[str, str] = {}

    def find(var: str) -> str:
        parent.setdefault(var, var)
        while parent[var] != var:
            parent[var] = parent[parent[var]]
            var = parent[var]
        return var

    for x, y in selections:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    classes: dict[str, list[str]] = {}
    for var in parent:
        classes.setdefault(find(var), []).append(var)
    return [sorted(members) for _, members in sorted(classes.items())]


def _equal_substring_groups(doc: str) -> list[list]:
    """Group all spans of the document by substring equality; groups and
    their members both follow ``all_spans`` order."""
    groups: dict[str, list] = {}
    for span in all_spans(len(doc)):
        groups.setdefault(doc[span.begin - 1:span.end - 1], []).append(span)
    return list(groups.values())


def build_equality_automaton(doc: str, selections, *,
                             path_budget: int | None = None) -> NormalForm:
    """An automaton that accepts, on this document only, exactly the tuples
    over the selection variables whose equated variables span equal
    substrings.

    One linear path per admissible assignment, built in normal form: before
    each symbol one marker move (ε when no marker sits at that position),
    then a wildcard edge; a last marker move enters the final state.  Paths
    share common prefixes, so a state's configuration is read off the
    assignment of any path through it.
    """
    selections = [(x, y) for x, y in selections]
    if not selections:
        raise ValueError("no selections; caller should skip the construction")
    classes = _equality_classes(selections)
    variables = sorted({var for members in classes for var in members})
    doc_len = len(doc)
    groups = _equal_substring_groups(doc)

    estimate = 1
    for members in classes:
        estimate *= sum(len(group) ** len(members) for group in groups)
    if path_budget is not None and estimate > path_budget:
        raise EqualityBudgetError(estimate, path_budget)

    per_class: list[list[dict]] = []
    for members in classes:
        options = []
        for group in groups:
            for combo in itertools.product(group, repeat=len(members)):
                options.append(dict(zip(members, combo)))
        per_class.append(options)

    transitions: list[tuple] = []
    configs = [(WAITING,) * len(variables), (CLOSED,) * len(variables)]  # initial, final
    trie: dict[tuple[int, object], int] = {}  # (target copy, marker) -> source copy

    for parts in itertools.product(*per_class):
        assignment: dict = {}
        for part in parts:
            assignment.update(part)
        ops_at: dict[int, set] = {}
        for var, span in assignment.items():
            ops_at.setdefault(span.begin, set()).add(open_op(var))
            ops_at.setdefault(span.end, set()).add(close_op(var))
        spans = [assignment[var] for var in variables]
        node = 0
        for position in range(1, doc_len + 2):
            marker = frozenset(ops_at[position]) if position in ops_at else None
            source = trie.get((node, marker))
            if source is None:
                source = len(configs) if position <= doc_len else 1
                if source > 1:  # a source copy, then the target copy it reads into
                    config = tuple(WAITING if position < span.begin
                                   else OPEN if position < span.end else CLOSED
                                   for span in spans)
                    configs += (config, config)
                    transitions.append((source, ANY, source + 1))
                trie[node, marker] = source
                transitions.append((node, marker, source))
            node = source + 1
    return NormalForm(variables, len(configs), 0, 1, transitions, configs)


def apply_selections(vsa: VSA, selections, doc: str, *,
                     path_budget: int | None = None) -> VSA:
    """Filter the automaton's tuples on this document by substring equality
    of each selected variable pair (via a join with the equality automaton)."""
    selections = [(x, y) for x, y in selections]
    unknown = {var for pair in selections for var in pair} - vsa.variables
    if unknown:
        raise ValueError(f"selection variables not in automaton: {sorted(unknown)}")
    if not selections:
        return trim(vsa)
    equality = build_equality_automaton(doc, selections, path_budget=path_budget)
    return join(vsa, equality)

"""Compilation of capture formulas into marking automata, and the automaton
algebra: projection, union, natural join, and string-equality selection.

Every construction takes and returns functional automata, so the enumerator
can run directly on any output.  The join is a product over configuration-
consistent state pairs; string equality is handled by joining with a
document-specific automaton whose paths spell out the admissible assignments.
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
from .model import CLOSED, OP_CLOSE, OP_OPEN, OPEN, WAITING, all_spans, close_op, open_op
from .vsa import (
    ANY,
    VSA,
    cached_symbol_step,
    empty_vsa,
    eps_closure,
    functional_configs,
    symbol_step,
    trim,
    var_eps_closure,
)


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


def project(vsa: VSA, keep) -> VSA:
    """Restrict the automaton's tuples to the given variables.

    Marker operations of dropped variables are erased in place (an emptied
    set becomes a plain ε-edge); the state graph is unchanged.
    """
    keep = frozenset(keep)
    extra = keep - vsa.variables
    if extra:
        raise ValueError(f"projection variables not in automaton: {sorted(extra)}")
    transitions = []
    for src, label, dst in vsa.transitions:
        if isinstance(label, frozenset):
            kept = frozenset(op for op in label if op[1] in keep)
            label = kept if kept else None
        transitions.append((src, label, dst))
    return VSA(keep, vsa.n_states, vsa.initial, vsa.final, transitions)


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


def _ops_between(ordered_vars, from_config, to_config, acc: set) -> None:
    for i, var in enumerate(ordered_vars):
        was, now = from_config[i], to_config[i]
        if was == now:
            continue
        if was == WAITING:
            acc.add((OP_OPEN, var))
            if now == CLOSED:
                acc.add((OP_CLOSE, var))
        elif was == OPEN and now == CLOSED:
            acc.add((OP_CLOSE, var))
        else:  # pragma: no cover - closure paths only advance configurations
            raise AssertionError("configuration moved backwards")


def join(first: VSA, second: VSA) -> VSA:
    """Natural join: tuples that agree on the shared variables, merged.

    Product automaton over configuration-consistent state pairs.  Three edge
    families: ε-edges fanning out of the initial pair (covering moves before
    anything is read), symbol edges synchronising both sides' reads, and
    operation edges labeled with exactly the operations that map the source
    pair's configurations to the target pair's.
    """
    a, configs_a = functional_configs(first)
    b, configs_b = functional_configs(second)
    variables = a.variables | b.variables
    if configs_a is None or configs_b is None:
        return empty_vsa(variables)

    shared = sorted(a.variables & b.variables)
    index_a = {var: i for i, var in enumerate(a.ordered_variables)}
    index_b = {var: i for i, var in enumerate(b.ordered_variables)}
    shared_a = tuple(index_a[var] for var in shared)
    shared_b = tuple(index_b[var] for var in shared)

    def restricted_b(state: int) -> tuple:
        config = configs_b[state]
        return tuple(config[i] for i in shared_b)

    # consistent pairs, grouped through the shared-variable configuration
    by_restricted: dict[tuple, list[int]] = {}
    for q2 in range(b.n_states):
        by_restricted.setdefault(restricted_b(q2), []).append(q2)
    pair_id: dict[tuple[int, int], int] = {}
    pairs: list[tuple[int, int]] = []
    for q1 in range(a.n_states):
        config = configs_a[q1]
        key = tuple(config[i] for i in shared_a)
        for q2 in by_restricted.get(key, ()):
            pair_id[(q1, q2)] = len(pairs)
            pairs.append((q1, q2))

    eps_a, eps_b = eps_closure(a), eps_closure(b)
    var_a, var_b = var_eps_closure(a), var_eps_closure(b)
    # pairs come grouped by their first state, so only that side's step is
    # memoized: a second-side cache would keep one set per state of a wide
    # equality automaton alive, each reused by few pairs
    step_a = cached_symbol_step(a, eps_a)
    symbols = sorted(a.concrete_symbols() | b.concrete_symbols())
    if a.has_wildcard() and b.has_wildcard():
        symbols.append(ANY)  # steps through wildcard edges on both sides

    transitions: list[tuple] = []
    initial = pair_id[(a.initial, b.initial)]
    final = pair_id[(a.final, b.final)]

    # rule 1: silent fan-out from the initial pair
    for q1 in eps_a[a.initial]:
        for q2 in eps_b[b.initial]:
            target = pair_id.get((q1, q2))
            if target is not None and target != initial:
                transitions.append((initial, None, target))

    for source, (p1, p2) in enumerate(pairs):
        # rule 2: synchronised reads (concrete symbols, and wildcard–wildcard)
        for symbol in symbols:
            targets_1 = step_a(p1, symbol)
            if not targets_1:
                continue
            targets_2 = symbol_step(b, p2, symbol, eps_b)
            for q1 in targets_1:
                for q2 in targets_2:
                    target = pair_id.get((q1, q2))
                    if target is not None:
                        transitions.append((source, symbol, target))
        # rule 3: variable moves — any consistent closure pair whose combined
        # configuration actually changes, labeled with the exact difference
        config_1, config_2 = configs_a[p1], configs_b[p2]
        for q1 in var_a[p1]:
            changed_1 = configs_a[q1] != config_1
            for q2 in var_b[p2]:
                if not changed_1 and configs_b[q2] == config_2:
                    continue
                target = pair_id.get((q1, q2))
                if target is None:
                    continue
                ops: set = set()
                _ops_between(a.ordered_variables, config_1, configs_a[q1], ops)
                _ops_between(b.ordered_variables, config_2, configs_b[q2], ops)
                transitions.append((source, frozenset(ops), target))

    return trim(VSA(variables, len(pairs), initial, final, transitions))


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
# Canonical single-operation form
# ---------------------------------------------------------------------------


def _canonical_op_order(ops) -> list:
    opens = sorted(op for op in ops if op[0] == OP_OPEN)
    closes = sorted(op for op in ops if op[0] == OP_CLOSE)
    return opens + closes


def expand_strict(vsa: VSA) -> VSA:
    """Split multi-operation edges into chains of single-operation edges
    (opens before closes, each alphabetical).  Tuples are unchanged."""
    transitions: list[tuple] = []
    n_states = vsa.n_states
    for src, label, dst in vsa.transitions:
        if isinstance(label, frozenset) and len(label) > 1:
            here = src
            ops = _canonical_op_order(label)
            for op in ops[:-1]:
                transitions.append((here, frozenset((op,)), n_states))
                here = n_states
                n_states += 1
            transitions.append((here, frozenset((ops[-1],)), dst))
        else:
            transitions.append((src, label, dst))
    return VSA(vsa.variables, n_states, vsa.initial, vsa.final, transitions)


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
                             path_budget: int | None = None) -> VSA:
    """An automaton that accepts, on this document only, exactly the tuples
    over the selection variables whose equated variables span equal
    substrings.

    One linear path per admissible assignment: a chain of wildcard edges
    pinning the document length, with the assignment's marker operations
    interleaved at their positions; paths share common prefixes.
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
    n_states = 2  # 0 = initial, 1 = final
    trie: dict[tuple[int, object], int] = {}
    leaves: set[int] = set()

    for parts in itertools.product(*per_class):
        assignment: dict = {}
        for part in parts:
            assignment.update(part)
        ops_at: dict[int, set] = {}
        for var, span in assignment.items():
            ops_at.setdefault(span.begin, set()).add(open_op(var))
            ops_at.setdefault(span.end, set()).add(close_op(var))
        labels: list = []
        for position in range(1, doc_len + 1):
            if position in ops_at:
                labels.append(frozenset(ops_at[position]))
            labels.append(ANY)
        if doc_len + 1 in ops_at:
            labels.append(frozenset(ops_at[doc_len + 1]))
        node = 0
        for label in labels:
            key = (node, label)
            child = trie.get(key)
            if child is None:
                child = n_states
                n_states += 1
                trie[key] = child
                transitions.append((node, label, child))
            node = child
        leaves.add(node)

    for leaf in leaves:
        transitions.append((leaf, None, 1))
    return VSA(variables, n_states, 0, 1, transitions)


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

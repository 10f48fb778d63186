"""Compilation of capture formulas into marking automata, the functionality
check, the automaton algebra (projection, union, natural join, and
string-equality selection), and the key-attribute test.

A formula compiles to an ε-free normal form (:class:`~spanex.vsa.NormalForm`),
read off its syntax tree by the position construction.  The same walk is
the functionality check for formulas: the tree decides it exactly, and
names the first fault, its reason and variable.  Automata from outside get
theirs from the configuration search of :func:`~spanex.vsa.normal_form`.
Every construction takes and returns functional automata, so the enumerator
can run directly on any output.  The join is a product of the two inputs'
normal forms, which alternate one marker move and one letter, so it
synchronises letters and pairs marker moves that agree on shared variables.
String equality is one forward search over a normal form along the document,
keeping a marker move only when the spans it opens and closes fit the
equated substrings, and leaving out states that two liveness rules show
cannot reach the end.  It steps from a state that reads a letter to the
next such state, so each of its states belongs to one position, and the
states it keeps are already the layers of a match graph:
:func:`equality_graph` hands them to the enumerator, projected by ranking
letters on the kept columns, and :func:`apply_selections` is the same
search's normal form, for the algebra.
Compiled formulas, the join, projection, union and equality selection return
a :class:`~spanex.vsa.NormalForm`, so no later stage rebuilds one, and none
builds a marker set: the configurations fix those, so projection and
renaming rewrite only the configurations.  The join is the one product
construction: a variable is a key attribute when the join of an automaton
with a copy of itself, its other variables renamed, never lets a variable
and its copy differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count

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
)
from .enumerator import MatchGraph, empty_graph, enumerate_spans, layered_graph
from .model import CLOSED, OPEN, WAITING, SpanTuple
from .vsa import (
    ANY,
    VSA,
    FunctionalityReport,
    NormalForm,
    NotFunctionalError,
    Violation,
    empty_vsa,
    normal_form,
    trim,
)


# ---------------------------------------------------------------------------
# Formula -> automaton
# ---------------------------------------------------------------------------


_NOTHING = (0, True, 0, 0, True)  # what ε leaves: no variable, nullable, no position
_OPENED_TWICE, _CONFLICT = "variable opened twice", "conflicting configurations"


def compile_regex(formula: Formula, *, check: bool = True) -> NormalForm:
    """Compile a functional formula into its normal form by the position
    construction (Glushkov, 1961), or raise
    :class:`~spanex.vsa.NotFunctionalError` on one that is not functional.

    One walk without recursion numbers the letter occurrences left to right
    as positions: of k, position i has the source copy 2+i and the target
    copy 2+k+i.  A finished node leaves (variables, nullable, first, last,
    ok), its sets as bits, or None when it matches nothing: ∅ absorbs a
    concatenation and a binding, drops out of an alternation, and its star
    is ε.  ``ok`` is the test of Fagin, Kimelfeld, Reiss and Vansummeren
    (JACM 2015), exact on every formula: the two sides of a concatenation
    bind disjoint variables and no binding rebinds its own (else a variable
    is opened twice), both sides of an alternation bind the same ones and
    no star binds one (else configurations conflict), and the root binds
    them all (else one is not closed at the final state).  The error names
    the first fault in left-to-right post-order, outside the parts that
    match nothing, and its first variable in name order.  First, last and
    follow give the marker moves.  At a position, an enclosing binding's
    variable is open, and one bound left of it under a concatenation closed.
    An unsatisfiable formula compiles to the canonical empty automaton.
    ``check`` is kept for older callers and changes nothing.
    """
    bit_of: dict[str, int] = {}  # variable -> its bit, in order of binding
    letters: list = []  # per position: its symbol or ANY
    contexts: list[tuple[int, int]] = []  # per position: (open, closed) bits
    follow: list[int] = []  # per position: the positions that may follow it
    done: list = []  # what finished nodes leave, the last one on top
    fault = None  # (reason, variable bits) of the first check that failed
    pruned = False
    stack: list[tuple] = [(formula, 0, 0, 0)]  # (node, open, closed, stage)
    while stack:
        node, opened, closed, stage = stack.pop()
        kind = type(node)
        if stage == 1 and kind is Cat:  # the left side's variables are closed
            left = done[-1]
            stack += ((node, opened, closed, 2),
                      (node.right, opened, closed | (left[0] if left else 0), 0))
        elif stage:
            right = done.pop()  # the inner node's, or the right side's
            left = done.pop() if kind is Cat or kind is Alt else right
            if left is None or right is None:
                right = _NOTHING if kind is Star else left or right if kind is Alt else None
                if right is None and fault and all(e is None or e[4] for e in done):
                    fault = None  # no node before this part failed: it lay here
            elif kind is Bind:
                bound, nullable, first, last, ok = right
                bit = bit_of[node.var]
                if bound & bit:
                    ok, fault = False, fault or (_OPENED_TWICE, bit)
                right = (bound | bit, nullable, first, last, ok)
            else:
                lbound, lnull, lfirst, llast, lok = left
                bound, nullable, first, last, ok = right
                if kind is Alt:
                    if lbound != bound:
                        ok, fault = False, fault or (_CONFLICT, lbound ^ bound)
                    right = (lbound | bound, lnull or nullable, lfirst | first,
                             llast | last, lok and ok)
                else:  # a concatenation, or a star: its inner node after itself
                    if lbound & bound:
                        ok, fault = False, fault or (
                            _CONFLICT if kind is Star else _OPENED_TWICE, lbound & bound)
                    for p in _set_bits(llast):
                        follow[p] |= first
                    right = (lbound | bound, lnull and nullable or kind is Star,
                             lfirst | first if lnull else lfirst,
                             llast | last if nullable else last, lok and ok)
            done.append(right)
        elif kind is Cat:
            stack += (node, opened, closed, 1), (node.left, opened, closed, 0)
        elif kind is Bind:
            bit = bit_of.setdefault(node.var, 1 << len(bit_of))
            stack += (node, opened, closed, 1), (node.inner, opened | bit, closed, 0)
        elif kind is Sym or kind is Any:
            position = 1 << len(letters)
            letters.append(ANY if kind is Any else node.char)
            contexts.append((opened, closed))
            follow.append(0)
            done.append((0, False, position, position, True))
        elif kind is Epsilon:
            done.append(_NOTHING)
        elif kind is Alt:
            stack += ((node, opened, closed, 1), (node.right, opened, closed, 0),
                      (node.left, opened, closed, 0))
        elif kind is Star:
            stack += (node, opened, closed, 1), (node.inner, opened, closed, 0)
        elif kind is Empty:
            pruned = True
            done.append(None)
        else:  # pragma: no cover
            raise TypeError(f"not a formula node: {node!r}")

    variables = sorted(bit_of)
    root = done.pop()
    if root is None:
        return empty_vsa(variables)
    bound, nullable, first, last, ok = root
    unbound = (1 << len(bit_of)) - 1 & ~bound
    if not ok or unbound:
        reason, bits = fault if not ok else ("variable not closed at the final state", unbound)
        raise NotFunctionalError(Violation(reason, next(
            var for var in variables if bit_of[var] & bits)))
    k, finals = len(letters), set(_set_bits(last))
    edges = [(2 + p, letter, 2 + k + p) for p, letter in enumerate(letters)]
    for here, nexts, ends in chain([(0, first, nullable)],
                                   [(2 + k + p, follow[p], p in finals) for p in range(k)]):
        edges += [(here, None, 2 + q) for q in _set_bits(nexts)]
        if ends:
            edges.append((here, None, 1))
    bits = [bit_of[var] for var in variables]
    configs = [tuple([OPEN if opened & bit else CLOSED if closed & bit else WAITING
                      for bit in bits]) for opened, closed in contexts]
    form = NormalForm(variables, 2 + 2 * k, 0, 1, edges,
                      [(WAITING,) * len(bits), (CLOSED,) * len(bits)] + configs + configs)
    return trim(form) if pruned else form


def check_functional(subject: Formula | VSA) -> FunctionalityReport:
    """Whether a formula, or an automaton, is functional: the verdict of
    :func:`compile_regex` on a formula's syntax tree, or of
    :func:`~spanex.vsa.normal_form` on an automaton, with the reason and
    the variable that it names.

    An empty ref-word language is vacuously functional, so ``(x{a})* ∅`` is,
    while a variable bound only on a dead branch (``x{a} | y{∅}``) is not.
    """
    try:
        if isinstance(subject, Formula):
            compile_regex(subject)
        else:
            normal_form(subject)
    except NotFunctionalError as err:
        return FunctionalityReport(False, err.violation)
    return FunctionalityReport(True)


# ---------------------------------------------------------------------------
# Projection and union
# ---------------------------------------------------------------------------


def project(vsa: VSA, keep) -> NormalForm:
    """Restrict the automaton's tuples to the given variables.

    The input's normal form with the dropped variables' columns taken out
    of its configurations, over the same edges: a marker move then performs
    only the kept variables' operations.  Keeping every variable returns
    the normal form as it is.
    """
    keep = frozenset(keep)
    extra = keep - vsa.variables
    if extra:
        raise ValueError(f"projection variables not in automaton: {sorted(extra)}")
    form = normal_form(vsa)
    if keep == form.variables:
        return form
    if form.configs is None:
        return empty_vsa(keep)
    columns = [i for i, var in enumerate(form.ordered_variables) if var in keep]
    configs = [tuple(config[i] for i in columns) for config in form.configs]
    return NormalForm(keep, form.n_states, form.initial, form.final, form.edges,
                      configs)


def union_vsa(*automata: VSA) -> NormalForm:
    """Combine automata over one variable set; the result's tuples on any
    document are the union of the inputs' tuples.

    The union of the inputs' normal forms is one: empty parts are dropped,
    every initial state becomes state 0 and every final state state 1, the
    other states are numbered part after part, and an edge two parts share
    is kept once.
    """
    if not automata:
        raise ValueError("union of no automata")
    variables = automata[0].variables
    for vsa in automata[1:]:
        if vsa.variables != variables:
            raise ValueError("union requires identical variable sets: "
                             f"{sorted(variables)} vs {sorted(vsa.variables)}")
    forms = [form for form in map(normal_form, automata) if form.configs is not None]
    if not forms:
        return empty_vsa(variables)
    configs = [forms[0].configs[forms[0].initial], forms[0].configs[forms[0].final]]
    edges: dict[tuple, None] = {}  # in first-seen order, without repeats
    for form in forms:
        ids = {form.initial: 0, form.final: 1}
        for state, config in enumerate(form.configs):
            if state not in ids:
                ids[state] = len(configs)
                configs.append(config)
        for src, label, dst in form.edges:
            edges[ids[src], label, ids[dst]] = None
    return NormalForm(variables, len(configs), 0, 1, edges, configs)


# ---------------------------------------------------------------------------
# Natural join
# ---------------------------------------------------------------------------


def join(first: VSA, second: VSA) -> NormalForm:
    """Natural join: tuples that agree on the shared variables, merged.

    The product of the two normal forms (:func:`~spanex.vsa.normal_form`),
    explored forward from the initial pair, with two rules.  A pair of
    source copies reads a symbol both sides can read: concrete on both
    sides, concrete against wildcard, or wildcard on both.  Any other pair
    takes one marker move on each side when the two targets agree on the
    shared variables.  The product is again in normal form: a pair's
    configuration merges the two sides' ones, so a move performs the union
    of the two sides' operations.
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

    moves_a, sym_a, any_a = a.moves_out, a.sym_out, a.any_out
    moves_b, sym_b, any_b = b.moves_out, b.sym_out, b.any_out
    pair_id = {(a.initial, b.initial): 0}
    pairs = [(a.initial, b.initial)]
    edges: list[tuple] = []

    def add(source: int, label, q1: int, q2: int) -> None:
        target = pair_id.setdefault((q1, q2), len(pairs))
        if target == len(pairs):
            pairs.append((q1, q2))
        edges.append((source, label, target))

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
        # rule 2: one marker move on each side, agreeing on shared variables;
        # on each side the moves that perform no operation come first, an
        # order that fixes the product's state numbers and so its dump
        moves_2 = sorted(moves_b[p2], key=lambda q2: configs_b[q2] != configs_b[p2])
        for q1 in sorted(moves_a[p1], key=lambda q1: configs_a[q1] != configs_a[p1]):
            for q2 in moves_2:
                if shared_a[q1] == shared_b[q2]:
                    add(source, None, q1, q2)

    final = pair_id.get((a.final, b.final))
    if final is None:
        return empty_vsa(variables)
    merged = [configs_a[q1] + configs_b[q2] for q1, q2 in pairs]
    configs = [tuple(config[i] for i in columns) for config in merged]
    return trim(NormalForm(variables, len(pairs), 0, final, edges, configs))


def join_many(automata) -> NormalForm:
    """Left fold of the binary join; a lone automaton gives its normal form."""
    automata = list(automata)
    if not automata:
        raise ValueError("join of no automata")
    result = normal_form(automata[0])
    for vsa in automata[1:]:
        result = join(result, vsa)
    return result


# ---------------------------------------------------------------------------
# Key attribute
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyReport:
    is_key: bool
    witness: tuple[str, SpanTuple, SpanTuple] | None = None

    def __bool__(self) -> bool:
        return self.is_key


def _renamed(form: NormalForm, names: dict[str, str]) -> NormalForm:
    """The normal form with each variable in ``names`` renamed: its
    configuration columns put in the new names' order."""
    variables = [names.get(var, var) for var in form.ordered_variables]
    columns = sorted(range(len(variables)), key=variables.__getitem__)
    configs = [tuple([config[i] for i in columns]) for config in form.configs]
    return NormalForm(variables, form.n_states, form.initial, form.final,
                      form.edges, configs)


def is_key_attribute(vsa: VSA, var: str) -> KeyReport:
    """Decide whether ``var`` determines the whole tuple in every result.

    Join the automaton with a copy whose other variables are renamed: on
    every document, the join's tuples are the pairs of tuples that agree on
    ``var``.  Configurations at the checkpoints (before each symbol, and at
    acceptance) fix a tuple, and every state of the trimmed join lies on an
    accepting run, so ``var`` is a key exactly when no state puts a variable
    and its copy in different configurations.  Otherwise the shortest run
    through such a state spells the witness document (a wildcard read as a
    symbol the join does not name), and the first row of that document
    whose halves differ gives the witness ``(document, tuple1, tuple2)``.
    """
    if var not in vsa.variables:
        raise ValueError(f"unknown variable {var!r}")
    form = normal_form(vsa)
    if form.configs is None:
        return KeyReport(True)
    others = sorted(form.variables - {var})
    suffix = "'"
    while any(other + suffix in form.variables for other in others):
        suffix += "'"
    copy = {other: other + suffix for other in others}
    pairs = join(form, _renamed(form, copy))
    ordered = pairs.ordered_variables
    columns = [(ordered.index(other), ordered.index(name)) for other, name in copy.items()]
    differs = [any(config[i] != config[j] for i, j in columns) for config in pairs.configs]
    if not any(differs):
        return KeyReport(True)

    # breadth-first over (state, differed yet) to the final state, differed
    out_edges: list[list] = [[] for _ in range(pairs.n_states)]
    for src, label, dst in pairs.edges:
        out_edges[src].append((label, dst))
    goal = (pairs.final, True)
    queue = [(pairs.initial, False)]
    parents = {queue[0]: None}
    for node in queue:  # grows while it is walked
        if node == goal:
            break
        state, differed = node
        for label, dst in out_edges[state]:
            nxt = (dst, differed or differs[dst])
            if nxt not in parents:
                parents[nxt] = (node, label)
                queue.append(nxt)
    used = {label for _, label, _ in pairs.edges if isinstance(label, str)}
    symbols = map(chr, chain(range(ord("a"), ord("z") + 1), count(0x100)))
    fresh = next(symbol for symbol in symbols if symbol not in used)
    letters = []
    node = goal
    while parents[node] is not None:
        node, label = parents[node]
        if label is not None:
            letters.append(fresh if label is ANY else label)
    doc = "".join(reversed(letters))
    halves = ((row.restrict(form.variables),
               SpanTuple({name: row[copy.get(name, name)] for name in form.variables}))
              for row in enumerate_spans(pairs, doc))
    return KeyReport(False, (doc, *next(pair for pair in halves if pair[0] != pair[1])))


# ---------------------------------------------------------------------------
# String-equality selection
# ---------------------------------------------------------------------------


class EqualityBudgetError(RuntimeError):
    """Raised when the equality search would create more states than the
    caller allowed (the states that read a letter next, and the final one);
    ``estimate`` is the count it had reached."""

    def __init__(self, estimate: int, budget: int):
        super().__init__(f"equality search needs more than {budget} states "
                         f"(stopped at {estimate})")
        self.estimate = estimate
        self.budget = budget


def _equality_classes(selections) -> list[list[str]]:
    classes: list[set[str]] = []
    for pair in selections:
        merged = set(pair).union(*(c for c in classes if c & set(pair)))
        classes = [c for c in classes if not c & merged] + [merged]
    return sorted(sorted(members) for members in classes)


def _closing_lengths(form: NormalForm, column: int, limit: int) -> list[int]:
    """For each state of the form, the lengths L in ``1..limit``, as the bits
    of an int, such that L letters from it lead to a marker move that closes
    the variable in ``column``.

    Level L, the source copies that can close after L letters, is read off
    the target copies that can close after L - 1, and those off level
    L - 1.  So once a set of target copies repeats, the levels repeat with
    it: the walk stops there and the bits are extended with that period,
    which keeps the cost within the form's size times ``limit``.
    """
    configs = form.configs
    letters_into: list[list[int]] = [[] for _ in range(form.n_states)]
    keeps_into: list[list[int]] = [[] for _ in range(form.n_states)]
    closers = set()
    for src, label, dst in form.edges:
        if label is not None:
            letters_into[dst].append(src)
        elif configs[src][column] == OPEN:
            if configs[dst][column] == OPEN:
                keeps_into[dst].append(src)
            else:
                closers.add(src)
    bits = [0] * form.n_states
    targets = frozenset(closers)  # those that close after 0 letters
    seen: dict[frozenset, int] = {}
    length = 0
    while targets and targets not in seen and length < limit:
        seen[targets] = length
        length += 1
        level = {src for dst in targets for src in letters_into[dst]}
        for state in level:
            bits[state] |= 1 << length
        targets = frozenset(src for dst in level for src in keeps_into[dst])
    if targets and targets in seen and length < limit:
        start = seen[targets] + 1  # level start + i is level start + period + i
        period = length + 1 - start
        for state, known in enumerate(bits):
            block = known >> start
            if block:
                width = period
                while width <= limit - start:
                    block |= block << width
                    width *= 2
                bits[state] = known | ((block << start) & ((2 << limit) - 1))
    return bits


def _set_bits(bits: int):
    """The indices of the set bits of ``bits``, in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _selection_form(vsa: VSA, selections) -> tuple[list, NormalForm]:
    """The selections as pairs, and the input's normal form; raises on a
    selection variable the automaton does not have."""
    selections = [(x, y) for x, y in selections]
    unknown = {var for pair in selections for var in pair} - vsa.variables
    if unknown:
        raise ValueError(f"selection variables not in automaton: {sorted(unknown)}")
    return selections, normal_form(vsa)


def _waiting_classes(form: NormalForm, slots: list, n_classes: int) -> list[list]:
    """Per state of the form, each class with a member still waiting to
    open, as ``(class, after)``: ``after`` holds the open members that some
    waiting member of the class can open only once they have closed, as no
    state reachable from here has that member out of WAITING while they are
    OPEN.  One backward reachability pass over the form's edges gathers, per
    state, the bits ``w * len(slots) + o`` of the pairs (w out of WAITING, o
    OPEN) that some reachable state has."""
    width = len(slots)
    open_bits = [sum(1 << o for o, (_, c) in enumerate(slots) if config[c] == OPEN)
                 for config in form.configs]
    pairs = [sum(bits << w * width for w, (_, c) in enumerate(slots) if config[c] != WAITING)
             for config, bits in zip(form.configs, open_bits)]
    into: list[list[int]] = [[] for _ in range(form.n_states)]
    for src, _, dst in form.edges:
        into[dst].append(src)
    todo = list(range(form.n_states))
    while todo:
        dst = todo.pop()
        for src in into[dst]:
            if pairs[dst] & ~pairs[src]:
                pairs[src] |= pairs[dst]
                todo.append(src)
    every = (1 << width) - 1
    members_of = [[w for w, (k, _) in enumerate(slots) if k == j] for j in range(n_classes)]
    waiting = []
    for config, reached, opened in zip(form.configs, pairs, open_bits):
        classes = []
        for k, members in enumerate(members_of):
            waits = [w for w in members if config[slots[w][1]] == WAITING]
            if waits:
                followed = every  # the members each waiting one may open beside
                for w in waits:
                    followed &= reached >> w * width
                classes.append((k, tuple(_set_bits(opened & ~followed))))
        waiting.append(classes)
    return waiting


def _equality_search(form: NormalForm, selections: list, doc: str,
                     path_budget: int | None):
    """The one equality search of :func:`apply_selections` and
    :func:`equality_graph` over ``form``, which has configurations.

    It creates only the states that read a letter next (source copies) and
    the final state, and steps from source copy to source copy: a letter's
    target (form state, ids, ends) is a transient key, whose marker moves
    are expanded once, however many sources read into it.  Returns
    ``(origin, steps, final)``.  ``origin[s]`` is the form state of created
    state s.  ``steps[i]``, for position i+1, is ``(reads, targets, entered,
    created)``: ``reads`` are the letters ``(source, label, key)`` read at
    position i into this position's keys (none at position 1, whose one key
    is the initial state), ``targets[j]`` is key j's form state,
    ``entered[j]`` the states its kept marker moves enter, each once, and
    ``created`` the range of states created here.  ``final`` is the final
    state, or None when the search did not reach it.
    """
    classes = [[form.ordered_variables.index(var) for var in members]
               for members in _equality_classes(selections)]
    slots = [(k, c) for k, members in enumerate(classes) for c in members]
    form_configs = form.configs
    doc_len = len(doc)
    closable = [_closing_lengths(form, c, doc_len) for _, c in slots]
    waiting = _waiting_classes(form, slots, len(classes))

    # a substring id is (first begin, length, last begin) in doc
    ids_at: dict[tuple[int, int], tuple[int, int, int]] = {}  # (begin, length) -> id

    def lengths(open_: tuple, ids: tuple, room: int):
        """The lengths, as an iterator, that the member ``open_`` may open
        with, given the ids held and the lengths that fit."""
        _, k, shut, bits, _ = open_
        if shut:
            return iter((0,))
        if ids[k] is not None:
            return iter((ids[k][1],) if (room & bits) >> ids[k][1] & 1 else ())
        return _set_bits(room & bits)

    def opened(opens: list, ids: tuple, ends: tuple, position: int, room: int):
        """Each admissible (ids, ends) once ``opens`` open here, lazily, depth
        first with shorter lengths first; ``room`` has the bits of the
        lengths that fit before the end."""
        stack = [(ids, ends, lengths(opens[0], ids, room))]
        while stack:
            ids, ends, choices = stack[-1]
            length = next(choices, None)
            if length is None:
                stack.pop()
                continue
            m, k, shut, _, after = opens[len(stack) - 1]
            sid = ids_at.get((position, length))
            if sid is None:
                text = doc[position - 1:position - 1 + length]
                sid = ids_at[position, length] = (doc.find(text) + 1, length,
                                                  doc.rfind(text) + 1)
            if ids[k] not in (None, sid):
                continue
            held = ids[:k] + (sid,) + ids[k + 1:]
            ends = ends[:m] + (None if shut else position + length,) + ends[m + 1:]
            if after is not None and sid[2] < max(
                    [position + 1] + [ends[o] for o in after if ends[o] is not None]):
                stack.pop()  # a longer substring begins last no later, and
                continue     # the bound only rises with its end
            if len(stack) == len(opens):
                yield held, ends
            else:
                stack.append((held, ends, lengths(opens[len(stack)], held, room)))

    # per form state and the members a move closes, its marker moves into a
    # source copy and those into the final state, each with the members it
    # opens (closed too?, the lengths the form can close them after, the
    # members a waiting one of its class follows), the classes it finishes
    # and the classes still waiting
    inner: list[dict] = [{} for _ in range(form.n_states)]
    into_final: list[dict] = [{} for _ in range(form.n_states)]
    # (a repeated move is taken once, so a key enters each state once)
    for q, dst in dict.fromkeys((q, dst) for q, label, dst in form.edges if label is None):
        before, after = form_configs[q], form_configs[dst]
        follow = dict(waiting[dst])
        opens = [(m, k, after[c] == CLOSED, closable[m][dst], follow.get(k))
                 for m, (k, c) in enumerate(slots) if before[c] == WAITING != after[c]]
        closes = tuple(m for m, (_, c) in enumerate(slots)
                       if before[c] == OPEN and after[c] == CLOSED)
        done = {k for k, members in enumerate(classes)
                if all(after[c] == CLOSED for c in members)}
        (into_final if dst == form.final else inner)[q].setdefault(closes, []).append(
            (dst, opens, done, waiting[dst]))

    letters_of: dict = {}  # symbol -> per form state, its letter edges (label, target)
    origin: list[int] = []
    steps: list[tuple] = []
    nothing_held = ((None,) * len(classes), (None,) * len(slots))
    keys: dict[tuple, int] = {(form.initial, *nothing_held): 0}
    reads: list[tuple] = []
    for position in range(1, doc_len + 2):
        moves = into_final if position == doc_len + 1 else inner
        room = (2 << doc_len + 1 - position) - 1  # lengths that fit from here
        first = len(origin)
        sources: dict[tuple, int] = {}
        expanded = []
        for q, ids, ends in keys:
            entered = []
            expanded.append(entered)
            if position in ends:  # kept moves close these members
                due = tuple(m for m, end in enumerate(ends) if end == position)
                ends = tuple(None if end == position else end for end in ends)
            else:
                due = ()
            for dst, opens, done, wait in moves[q].get(due, ()):
                for held, open_ends in (opened(opens, ids, ends, position, room)
                                        if opens else ((ids, ends),)):
                    if done:
                        held = tuple(None if k in done else sid
                                     for k, sid in enumerate(held))
                    for k, after in wait:
                        sid = held[k]
                        if sid is not None and sid[2] < (
                                max([open_ends[o] for o in after]) if after else position + 1):
                            break
                    else:
                        key = (dst, held, open_ends)
                        state = sources.get(key)
                        if state is None:
                            origin.append(dst)
                            if path_budget is not None and len(origin) > path_budget:
                                raise EqualityBudgetError(len(origin), path_budget)
                            state = sources[key] = len(origin) - 1
                        entered.append(state)
        steps.append((reads, [key[0] for key in keys], expanded, range(first, len(origin))))
        if moves is into_final:
            break
        symbol = doc[position - 1]
        letters = letters_of.get(symbol)
        if letters is None:
            letters = letters_of[symbol] = [
                [(symbol, dst) for dst in form.sym_out[q].get(symbol, ())]
                + [(ANY, dst) for dst in form.any_out[q]] for q in range(form.n_states)]
        keys = {}
        reads = []
        for (q, ids, ends), state in sources.items():
            for label, dst in letters[q]:
                key = (dst, ids, ends)
                j = keys.get(key)
                if j is None:
                    j = keys[key] = len(keys)
                reads.append((state, label, j))

    return origin, steps, sources.get((form.final, *nothing_held))


def _sweep(origin: list, steps: list, final: int):
    """Which created states reach the search's final state, per step the
    live states each key enters, and each live source's live successors (a
    letter, then a marker move): the key's own list when it reads into one
    key, else a set.  One reverse sweep over the steps, as a key's states
    are created at its position and the letters into it read at the one
    before."""
    live = [False] * len(origin)
    live[final] = True
    live_keys = [None] * len(steps)
    successors: dict[int, list | set] = {}
    for i in range(len(steps) - 1, -1, -1):
        reads, _, expanded, _ = steps[i]
        live_keys[i] = ahead = [[state for state in entered if live[state]]
                                for entered in expanded]
        for src, _, j in reads:
            entered = ahead[j]
            if entered:
                live[src] = True
                have = successors.get(src)
                successors[src] = entered if have is None else {*have, *entered}
    return live, live_keys, successors


def apply_selections(vsa: VSA, selections, doc: str, *,
                     path_budget: int | None = None) -> NormalForm:
    """Filter the automaton's tuples on this document by substring equality
    of each selected variable pair.

    One forward search over the input's normal form along ``doc``
    (:func:`_equality_search`).  A state is (position, form state, the
    substring id each equality class holds, the end of each open class
    member).  A marker move of the form is kept when it closes exactly the
    open members that end here, and each member it opens with length L
    fixes its class's id to that substring (first begin, length) or matches
    the id held.  A class forgets its id once all its members are closed.

    Two rules keep the search from creating states that cannot reach the
    final state; each drops dead states alone, so the output is the same as
    without them.  Earliest begin: a member that waits to open can open only
    after the position it is at, and after the end of each open member that
    the form lets it open only once closed (:func:`_waiting_classes`), so a
    state is dropped when the substring its class holds has no begin in
    ``doc`` at or after the latest of those bounds.  Closing length: a
    member opens with length L only if the form can close it exactly L
    letters after the state the opening move enters
    (:func:`_closing_lengths`).  The search creates only the source copies
    and the final state; this result, a trimmed normal form with the input's
    configurations, adds the initial state and one target copy per live
    letter target.  Creating more than ``path_budget`` states raises
    :class:`EqualityBudgetError`.
    :func:`equality_graph` hands the same search's states to the enumerator.
    """
    selections, form = _selection_form(vsa, selections)
    if not selections or form.configs is None:
        return form
    origin, steps, final = _equality_search(form, selections, doc, path_budget)
    if final is None:
        return empty_vsa(form.variables)
    live, live_keys, _ = _sweep(origin, steps, final)
    # number and link the live states in the order the search met them: per
    # position, the target copies (the initial state at position 1), then
    # the sources the copies' moves enter
    number = [0] * len(origin)
    configs, edges = [], []
    for (reads, targets, _, created), ahead in zip(steps, live_keys):
        copies = []
        for q, entered in zip(targets, ahead):
            copies.append(len(configs) if entered else None)
            if entered:
                configs.append(form.configs[q])
        edges += [(number[src], label, copies[j]) for src, label, j in reads if ahead[j]]
        for state in created:
            if live[state]:
                number[state] = len(configs)
                configs.append(form.configs[origin[state]])
        for copy, entered in zip(copies, ahead):
            edges += [(copy, None, number[state]) for state in entered]
    return NormalForm(form.variables, len(configs), 0, number[final], edges, configs)


def equality_graph(vsa: VSA, selections, doc: str, keep, *,
                   path_budget: int | None = None) -> MatchGraph:
    """The match graph of :func:`apply_selections`' result on ``doc``,
    projected onto the variables in ``keep``, taken from the equality search
    itself.

    The search creates only the states that read a letter next and the
    final one, each at one position, so its kept states are already the
    graph's layers: layer i holds the live states that read letter i+1 next,
    and the final state ends the last one.  One reverse sweep over the
    search's steps finds the live states and, for each live state of a
    layer, its live successors in the next one (a letter, then a marker
    move), which the graph's step returns.  Letters are the configurations
    cut to the kept columns.  The same rows, order, graph size and
    enumeration counters as ``build_match_graph(project(apply_selections(...),
    keep), doc)``, with no automaton built in between.
    """
    selections, form = _selection_form(vsa, selections)
    keep = frozenset(keep)
    extra = keep - form.variables
    if extra:
        raise ValueError(f"projection variables not in automaton: {sorted(extra)}")
    variables = tuple(sorted(keep))
    if form.configs is None:
        return empty_graph(doc, variables)
    origin, steps, final = _equality_search(form, selections, doc, path_budget)
    if final is None:
        return empty_graph(doc, variables)
    live, _, successors = _sweep(origin, steps, final)
    alive = [frozenset([state for state in created if live[state]])
             for _, _, _, created in steps]
    columns = [i for i, var in enumerate(form.ordered_variables) if var in keep]
    letters = [tuple([config[i] for i in columns]) for config in form.configs]
    config_of = {state: letters[origin[state]] for state in successors}
    config_of[final] = letters[origin[final]]
    edge_count = len(alive[0]) + sum(map(len, successors.values()))
    return layered_graph(doc, variables, alive, lambda state, _: successors[state],
                         config_of, edge_count)


def build_equality_automaton(doc: str, selections, *,
                             path_budget: int | None = None) -> NormalForm:
    """An automaton that accepts, on this document only, exactly the tuples
    over the selection variables whose equated variables span equal
    substrings: :func:`apply_selections` on the join of one ``.* v{.*} .*``
    per variable."""
    selections = [(x, y) for x, y in selections]
    if not selections:
        raise ValueError("no selections; caller should skip the construction")
    anything = Star(Any())
    everything = join_many(compile_regex(Cat(anything, Cat(Bind(var, anything), anything)))
                           for var in sorted({var for pair in selections for var in pair}))
    return apply_selections(everything, selections, doc, path_budget=path_budget)

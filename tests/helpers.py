"""Shared generators and oracles for the test suite.

Everything here is deliberately independent of the engine internals: random
formula trees are built straight from the AST constructors, relations are
recomputed with plain set algebra over materialized tuples, and ref-word
languages are unrolled from the grammar with a bounded star depth.
"""

import itertools
import random
from dataclasses import dataclass

from spanex.compiler import check_functional
from spanex.formula import (
    Alt, Any, Bind, Cat, Empty, Epsilon, Formula, Star, Sym, formula_nodes,
    formula_variables,
)
from spanex.model import (
    CLOSED, OP_CLOSE, OP_OPEN, OPEN, WAITING, Span, SpanTuple, all_spans,
    open_op, close_op,
)
from spanex.vsa import (
    ANY, VSA, NormalForm, NotFunctionalAutomaton, cached_step, normal_form, trim,
)
from spanex.enumerator import enumerate_spans

from oracle import is_valid_ref_word


# ---------------------------------------------------------------------------
# Random formula trees
# ---------------------------------------------------------------------------


def random_formula(rng: random.Random, depth: int = 4,
                   variables=("x", "y"), alphabet="ab") -> Formula:
    """A random formula tree of the given maximum depth.

    Bindings draw from ``variables`` without replacement along a branch, so
    shallow trees are usually functional, but no functionality is enforced.
    """
    return _random_node(rng, depth, list(variables), alphabet)


def _random_node(rng, depth, pool, alphabet):
    if depth <= 0:
        kind = rng.choice(("sym", "sym", "sym", "eps", "any", "empty"))
        if kind == "sym":
            return Sym(rng.choice(alphabet))
        if kind == "eps":
            return Epsilon()
        if kind == "any":
            return Any()
        return Empty()
    kind = rng.choice(("sym", "any", "eps", "alt", "cat", "cat", "star", "bind", "bind"))
    if kind == "sym":
        return Sym(rng.choice(alphabet))
    if kind == "any":
        return Any()
    if kind == "eps":
        return Epsilon()
    if kind == "alt":
        return Alt(_random_node(rng, depth - 1, pool, alphabet),
                   _random_node(rng, depth - 1, pool, alphabet))
    if kind == "cat":
        return Cat(_random_node(rng, depth - 1, pool, alphabet),
                   _random_node(rng, depth - 1, pool, alphabet))
    if kind == "star":
        return Star(_random_node(rng, depth - 1, pool, alphabet))
    if pool:
        var = rng.choice(pool)
        rest = [v for v in pool if v != var]
        return Bind(var, _random_node(rng, depth - 1, rest, alphabet))
    return _random_node(rng, depth - 1, pool, alphabet)


def random_functional_formula(rng: random.Random, depth: int = 4,
                              variables=("x", "y"), alphabet="ab",
                              require_nonempty: bool = True,
                              require_vars: bool = False) -> Formula:
    """Rejection-sample random trees until one passes the functionality check."""
    while True:
        formula = random_formula(rng, depth, variables, alphabet)
        if not check_functional(formula):
            continue
        if require_vars and not formula_variables(formula):
            continue
        if require_nonempty and _is_empty_language(formula):
            continue
        return formula


def _is_empty_language(node: Formula) -> bool:
    if isinstance(node, Empty):
        return True
    if isinstance(node, (Epsilon, Sym, Any)):
        return False
    if isinstance(node, Alt):
        return _is_empty_language(node.left) and _is_empty_language(node.right)
    if isinstance(node, Cat):
        return _is_empty_language(node.left) or _is_empty_language(node.right)
    if isinstance(node, Star):
        return False
    return _is_empty_language(node.inner)


def random_doc(rng: random.Random, max_len: int = 6, alphabet="ab") -> str:
    length = rng.randint(0, max_len)
    return "".join(rng.choice(alphabet) for _ in range(length))


def all_docs(alphabet: str, max_len: int):
    """Every document over the alphabet up to the given length, short first."""
    for length in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            yield "".join(letters)


# ---------------------------------------------------------------------------
# Ref-word language unrolling (independent of the Glushkov matcher)
# ---------------------------------------------------------------------------


def ref_words_up_to(node: Formula, star_cap: int = 2, limit: int = 4000):
    """The ref-word language of a formula, stars unrolled at most star_cap
    times.  Returns a set of tuples; raises if the cap yields > limit words.
    Violations of functionality always show up within two unrollings of any
    star, so the truncated language is enough for cross-checking verdicts.
    """
    words = _unroll(node, star_cap, limit)
    return words


def _unroll(node, cap, limit):
    if isinstance(node, Empty):
        return set()
    if isinstance(node, Epsilon):
        return {()}
    if isinstance(node, Sym):
        return {(node.char,)}
    if isinstance(node, Any):
        return {("a",), ("b",)}
    if isinstance(node, Alt):
        out = _unroll(node.left, cap, limit) | _unroll(node.right, cap, limit)
        _check_budget(out, limit)
        return out
    if isinstance(node, Cat):
        lefts = _unroll(node.left, cap, limit)
        rights = _unroll(node.right, cap, limit)
        out = {l + r for l in lefts for r in rights}
        _check_budget(out, limit)
        return out
    if isinstance(node, Star):
        inner = _unroll(node.inner, cap, limit)
        out = {()}
        layer = {()}
        for _ in range(cap):
            layer = {w + x for w in layer for x in inner}
            out |= layer
            _check_budget(out, limit)
        return out
    out = {(open_op(node.var),) + w + (close_op(node.var),)
           for w in _unroll(node.inner, cap, limit)}
    _check_budget(out, limit)
    return out


def _check_budget(words, limit):
    if len(words) > limit:
        raise AssertionError(f"unrolled language too large ({len(words)} words)")


def brute_force_functional(node: Formula, star_cap: int = 2) -> bool:
    """True when every (bounded) ref-word of the formula is valid for its
    syntactic variable set."""
    variables = formula_variables(node)
    return all(is_valid_ref_word(word, variables)
               for word in ref_words_up_to(node, star_cap))


# ---------------------------------------------------------------------------
# Relational oracles over materialized relations
# ---------------------------------------------------------------------------


def relation_of(automaton: VSA, doc: str) -> set[SpanTuple]:
    return set(enumerate_spans(automaton, doc))


def project_rows(rows, keep) -> set[SpanTuple]:
    keep = frozenset(keep)
    return {row.restrict(keep) for row in rows}


def join_rows(left_rows, right_rows) -> set[SpanTuple]:
    out = set()
    for left in left_rows:
        left_map = left.as_dict()
        for right in right_rows:
            right_map = right.as_dict()
            if all(left_map[v] == right_map[v]
                   for v in left_map.keys() & right_map.keys()):
                out.add(left.merge(right))
    return out


def filter_rows(rows, selections, doc: str) -> set[SpanTuple]:
    def text(span: Span) -> str:
        return doc[span.begin - 1:span.end - 1]

    return {row for row in rows
            if all(text(row[a]) == text(row[b]) for a, b in selections)}


def brute_force_key(automaton: VSA, var: str, docs) -> bool:
    """A variable is a key when no document has two tuples sharing its span."""
    for doc in docs:
        seen: dict[Span, SpanTuple] = {}
        for row in enumerate_spans(automaton, doc):
            value = row[var]
            if value in seen and seen[value] != row:
                return False
            seen[value] = row
    return True


def brute_force_graph_size(automaton: VSA, doc: str) -> tuple[int, int]:
    """The match graph's (node count, edge count) from a plain sweep, state
    by state: forward over the reachable states, then backward keeping those
    with a step into the next kept layer.  The virtual start node counts as a
    node, with its edges into layer 0; (0, 0) when nothing matches."""
    form = normal_form(automaton)
    if form.configs is None:
        return 0, 0
    step = cached_step(form)
    layers = [set(form.moves_out[form.initial])]
    for symbol in doc:
        layers.append({nxt for state in layers[-1] for nxt in step(state, symbol)})
    if form.final not in layers[-1]:
        return 0, 0
    kept = [{form.final}]  # the kept layers, last one first
    edges = 0
    for layer, symbol in zip(reversed(layers[:-1]), reversed(doc)):
        here = set()
        for state in layer:
            reach = step(state, symbol) & kept[-1]
            if reach:
                here.add(state)
                edges += len(reach)
        kept.append(here)
    edges += len(kept[-1])
    return 1 + sum(map(len, kept)), edges


# ---------------------------------------------------------------------------
# Fixtures used across modules
# ---------------------------------------------------------------------------


def marker_automaton() -> VSA:
    """Three states: a-loop, open x, a-loop, close x, a-loop."""
    return VSA({"x"}, 3, 0, 2, [
        (0, "a", 0),
        (0, frozenset([open_op("x")]), 1),
        (1, "a", 1),
        (1, frozenset([close_op("x")]), 2),
        (2, "a", 2),
    ])


def diamond_automaton() -> VSA:
    """Exponentially many accepting paths, all denoting x = whole document."""
    return VSA({"x"}, 4, 0, 3, [
        (0, frozenset([open_op("x")]), 1),
        (0, frozenset([open_op("x")]), 2),
        (1, "a", 1),
        (1, "a", 2),
        (2, "a", 1),
        (2, "a", 2),
        (1, frozenset([close_op("x")]), 3),
        (2, frozenset([close_op("x")]), 3),
    ])


def loop_automaton() -> VSA:
    """Single state with open/close/a loops: accepts invalid ref-words."""
    return VSA({"x"}, 1, 0, 0, [
        (0, frozenset([open_op("x")]), 0),
        (0, frozenset([close_op("x")]), 0),
        (0, "a", 0),
    ])


def thompson_automaton(formula: Formula) -> VSA:
    """The Thompson construction of a formula (Thompson, CACM 1968): its
    normal form is the reference for the one ``compile_regex`` reads off the
    syntax tree, and it gives tests of :func:`~spanex.vsa.normal_form` an
    automaton with ε-moves.  Every node but a concatenation gets a fresh
    start and end state, allocated in preorder, and ε-moves wire a node to
    its children.  Bindings are open and close
    marker edges around the body.  Untrimmed."""
    transitions = []
    n_states = 0
    built = []  # (start, end) of each finished node
    # (node, None) is still to build; otherwise its children are built and it
    # wires them, between its own states (s, e) unless it is a Cat
    stack = [(formula, None)]
    while stack:
        node, ends = stack.pop()
        if ends is not None:
            bs, be = built.pop()
            if isinstance(node, Cat):
                ls, le = built.pop()
                transitions.append((le, None, bs))
                built.append((ls, be))
                continue
            s, e = ends
            if isinstance(node, Alt):
                ls, le = built.pop()
                transitions.extend(((s, None, ls), (s, None, bs),
                                   (le, None, e), (be, None, e)))
            elif isinstance(node, Star):
                transitions.extend(((s, None, e), (s, None, bs),
                                   (be, None, e), (be, None, bs)))
            else:  # Bind
                transitions.append((s, frozenset((open_op(node.var),)), bs))
                transitions.append((be, frozenset((close_op(node.var),)), e))
            built.append((s, e))
            continue
        if isinstance(node, Cat):
            stack.extend(((node, ()), (node.right, None), (node.left, None)))
            continue
        s, e = n_states, n_states + 1
        n_states += 2
        if isinstance(node, Alt):
            stack.extend(((node, (s, e)), (node.right, None), (node.left, None)))
        elif isinstance(node, (Star, Bind)):
            stack.extend(((node, (s, e)), (node.inner, None)))
        else:
            if isinstance(node, Sym):
                transitions.append((s, node.char, e))
            elif isinstance(node, Any):
                transitions.append((s, ANY, e))
            elif isinstance(node, Epsilon):
                transitions.append((s, None, e))
            built.append((s, e))
    (start, end), = built
    return VSA(formula_variables(formula), n_states, start, end, transitions)


def compute_state_configs(vsa: VSA) -> list[tuple[int, ...]]:
    """Unique per-state variable configuration of a trimmed automaton, by a
    breadth-first search of its own from the initial state, out-edges in
    transition order: the reference for the configurations ``normal_form``
    finds.  Within a marker set opens act before closes, each kind in the
    set's order.  Raises :class:`NotFunctionalAutomaton` as the engine's
    check does if two paths disagree on some state's configuration, or an
    operation comes out of order; ValueError if a state is unreachable."""
    ordered = sorted(vsa.variables)
    out_edges = [[] for _ in range(vsa.n_states)]
    for src, label, dst in vsa.transitions:
        out_edges[src].append((label, dst))
    configs = [None] * vsa.n_states
    configs[vsa.initial] = (WAITING,) * len(ordered)
    queue = [vsa.initial]
    for state in queue:  # the queue grows while it is read
        for label, dst in out_edges[state]:
            config = list(configs[state])
            if isinstance(label, frozenset):
                for kind, before, after, reason in (
                        (OP_OPEN, WAITING, OPEN, "variable opened twice"),
                        (OP_CLOSE, OPEN, CLOSED, "variable closed while not open")):
                    for op, var in label:
                        if op == kind:
                            i = ordered.index(var)
                            if config[i] != before:
                                raise NotFunctionalAutomaton(reason, state, var)
                            config[i] = after
            config = tuple(config)
            if configs[dst] is None:
                configs[dst] = config
                queue.append(dst)
            elif configs[dst] != config:
                bad = next(var for var, was, now in zip(ordered, configs[dst], config)
                           if was != now)
                raise NotFunctionalAutomaton("conflicting configurations", dst, bad)
    missing = [state for state, config in enumerate(configs) if config is None]
    if missing:
        raise ValueError(f"automaton not trimmed; unreachable states {missing}")
    return configs


def assert_normal_form(form: VSA) -> None:
    """Source copies carry only letter edges into target copies; the initial
    state and target copies carry only marker or ε edges into source copies
    or the final state; the final state has no out-edges.  The form carries
    the configurations a search from its initial state finds, the final one
    closes every variable, and ``normal_form`` gives the form back as is."""
    assert isinstance(form, NormalForm)
    assert normal_form(form) is form
    assert form.configs == compute_state_configs(form)
    assert set(form.configs[form.final]) <= {CLOSED}
    letters = [(src, dst) for src, label, dst in form.transitions
               if label is ANY or isinstance(label, str)]
    sources = {src for src, _ in letters}
    targets = {dst for _, dst in letters}
    assert not sources & targets
    assert not {form.initial, form.final} & (sources | targets)
    for src, label, dst in form.transitions:
        assert src != form.final
        if src not in sources:
            assert src == form.initial or src in targets
            assert dst in sources or dst == form.final


def two_pass_normal_form(automaton: VSA) -> tuple[VSA, list | None]:
    """The normal form built the long way, as a reference for
    :func:`normal_form`: trim the automaton into a copy, search the copy for
    its configurations, then walk the marker closure of the initial state
    and of each letter target and label the move to every state reached.
    Returns a plain automaton with those labels, so they are not the ones a
    :class:`NormalForm` derives, and the configurations (None for an empty
    language).  Raises :class:`NotFunctionalAutomaton` as the one check
    does."""
    trimmed = trim(automaton)
    if isinstance(trimmed, NormalForm):  # only an empty language trims to one
        return trimmed, None
    configs = compute_state_configs(trimmed)
    ordered = trimmed.ordered_variables
    for var, state in zip(ordered, configs[trimmed.final]):
        if state != CLOSED:
            raise NotFunctionalAutomaton("variable not closed at the final state",
                                         trimmed.final, var)
    letters = [(src, label, dst) for src, label, dst in trimmed.transitions
               if label is ANY or isinstance(label, str)]
    sources = sorted({src for src, _, _ in letters})
    targets = sorted({dst for _, _, dst in letters})
    source_id = {state: 2 + i for i, state in enumerate(sources)}
    target_id = {state: 2 + len(sources) + i for i, state in enumerate(targets)}
    transitions = [(source_id[src], label, target_id[dst])
                   for src, label, dst in letters]
    markers = [[] for _ in range(trimmed.n_states)]
    for src, label, dst in trimmed.transitions:
        if label is None or isinstance(label, frozenset):
            markers[src].append(dst)
    for here, start in [(0, trimmed.initial)] + [(target_id[t], t) for t in targets]:
        reached, stack = {start}, [start]
        while stack:
            for nxt in markers[stack.pop()]:
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        for state in reached:
            ends = [source_id[state]] if state in source_id else []
            if state == trimmed.final:
                ends.append(1)
            moves = list(zip(ordered, configs[start], configs[state]))
            ops = frozenset([(OP_OPEN, var) for var, was, now in moves if was == WAITING != now]
                            + [(OP_CLOSE, var) for var, was, now in moves if was != CLOSED == now])
            transitions.extend((here, ops or None, end) for end in ends)
    form_configs = ([configs[trimmed.initial], configs[trimmed.final]]
                    + [configs[state] for state in sources + targets])
    return (VSA(trimmed.variables, len(form_configs), 0, 1, transitions),
            form_configs)


def is_functional(automaton: VSA) -> bool:
    """The functionality check run on the automaton's edges alone, so the
    configurations a :class:`NormalForm` carries are not taken on trust."""
    plain = VSA(automaton.variables, automaton.n_states, automaton.initial,
                automaton.final, automaton.transitions)
    return check_functional(plain).ok


def span_set(rows, var: str = "x") -> set[tuple[int, int]]:
    return {(row[var].begin, row[var].end) for row in rows}


# ---------------------------------------------------------------------------
# Views of engine data that only the tests use
# ---------------------------------------------------------------------------


def formula_size(formula: Formula) -> int:
    """Number of syntax-tree nodes."""
    return sum(1 for _ in formula_nodes(formula))


def is_valid_span(span: Span, doc_len: int) -> bool:
    return 1 <= span.begin <= span.end <= doc_len + 1


def tuple_to_state_sequence(tup: SpanTuple, doc_len: int, variables) -> list[tuple[int, ...]]:
    """Per-position variable states, one tuple per position 1..doc_len+1,
    each in ``sorted(variables)`` order; inverse of
    :func:`state_sequence_to_tuple`."""
    columns = []
    for var in sorted(variables):
        span = tup[var]
        columns.append([WAITING] * (span.begin - 1) + [OPEN] * (span.end - span.begin)
                       + [CLOSED] * (doc_len + 2 - span.end))
    return list(zip(*columns)) if columns else [()] * (doc_len + 1)


def state_sequence_to_tuple(seq: list[tuple[int, ...]], variables) -> SpanTuple:
    """The span tuple of a per-position state sequence.

    ``seq[p-1]`` holds the states before reading symbol p; a variable's span
    begins at the first position where it is no longer WAITING and ends at
    the first position where it is CLOSED.
    """
    ordered = sorted(variables)
    spans = {}
    for idx, var in enumerate(ordered):
        begin = end = None
        for pos0, entry in enumerate(seq):
            state = entry[idx]
            if begin is None and state != WAITING:
                begin = pos0 + 1
            if end is None and state == CLOSED:
                end = pos0 + 1
                break
        if begin is None or end is None:
            raise ValueError(f"state sequence never closes variable {var!r}")
        spans[var] = Span(begin, end)
    return SpanTuple(spans)


def canonical_key(tup: SpanTuple, doc_len: int, variables) -> tuple:
    """Sort key of the enumeration's canonical order: the per-position state
    sequence, compared position by position, each position's states in
    variable-name order with WAITING < OPEN < CLOSED."""
    return tuple(tuple_to_state_sequence(tup, doc_len, variables))


def assert_canonical_order(rows: list, doc_len: int, variables) -> None:
    """The stream is duplicate-free and sorted by ``canonical_key``."""
    assert len(rows) == len(set(rows))
    assert rows == sorted(rows, key=lambda row: canonical_key(row, doc_len, variables))


def is_valid_state_sequence(seq: list[tuple[int, ...]]) -> bool:
    """Monotone per variable (w* o* c*), ending all-CLOSED."""
    if not seq:
        return False
    for idx in range(len(seq[0])):
        prev = WAITING
        for entry in seq:
            state = entry[idx]
            if state < prev:
                return False
            prev = state
        if prev != CLOSED:
            return False
    return True


def config_to_str(config) -> str:
    return "(" + ",".join("woc"[s] for s in config) + ")"


@dataclass(frozen=True)
class RelationalAtom:
    name: str
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class RelationalSkeleton:
    atoms: tuple[RelationalAtom, ...]
    projection: tuple[str, ...]
    equalities: tuple[tuple[str, str], ...]

    @property
    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for atom in self.atoms:
            out |= frozenset(atom.attributes)
        return out


def map_to_relational(cq) -> RelationalSkeleton:
    """The conjunctive query's shape as a relational CQ: one fresh relation
    symbol per atom, attributes = the atom's variables."""
    atoms = tuple(
        RelationalAtom(f"R{i + 1}", tuple(sorted(formula_variables(atom))))
        for i, atom in enumerate(cq.atoms))
    return RelationalSkeleton(atoms, cq.projection, cq.equalities)

"""Ordered, polynomial-delay enumeration of a functional automaton's results.

The evaluation of a functional automaton on a fixed document is flattened
into a layered acyclic graph: layer ``i`` holds the states of its normal
form reachable right before reading symbol ``i+1`` (a step reads a letter,
then one marker move), a virtual start node fans into layer 0, and the last
layer is restricted to the final state and pruned backwards.  Every path
has the same length, and labelling each node with its state's configuration
turns paths into exactly the per-position state sequences of the result
tuples — one path label string per result, no duplicates.

Enumeration then walks that string language in ascending order (letters are
configurations ordered as tuples, WAITING < OPEN < CLOSED, variables in name
order; strings compared position by position).  A stack of node sets keeps
the frontier for every prefix of the current string, the next string is
found by scanning from the tail for the first position that can be bumped to
a larger letter, and the suffix is refilled minimally.  The per-result delay
is polynomial in the document and automaton sizes, independent of how many
results were already produced.

Representation choices for speed: configurations are interned to integer
ranks (so letter comparison is int comparison), node sets are interned per
layer with memoized (set, letter) successors, and tuple decoding binary
searches the monotone per-variable state sequence.
"""

from __future__ import annotations

from .model import CLOSED, WAITING, Span, SpanTuple
from .vsa import VSA, cached_step, marker_moves, normal_form

_START = -1  # virtual start node's "state" id

# Elementary-operation allowance for pre-warming frontier-set transitions
# before the first result is emitted.  Within the allowance, every set the
# enumeration can reach has its successors memoized up front, so mid-stream
# delays stay uniform; past it (pathological subset growth), transitions are
# computed lazily and delays may spike but stay polynomial.
_PREWARM_OPS = 1 << 19


class EnumerationStats:
    """Counters a caller can pass in to observe the enumeration's work."""

    __slots__ = ("tuples", "max_node_set", "scan_steps", "fill_steps",
                 "cold_transitions")

    def __init__(self):
        self.tuples = 0
        self.max_node_set = 0
        self.scan_steps = 0
        self.fill_steps = 0
        self.cold_transitions = 0


class MatchGraph:
    """The layered evaluation graph of one (automaton, document) pair."""

    __slots__ = ("empty", "doc_len", "variables", "config_by_rank", "final_letter",
                 "slab_letters", "slab_trans", "node_count", "edge_count")

    def __init__(self, empty: bool, doc_len: int, variables: tuple[str, ...],
                 config_by_rank: list[tuple[int, ...]], final_letter: int,
                 slab_letters, slab_trans, node_count: int, edge_count: int):
        self.empty = empty
        self.doc_len = doc_len
        self.variables = variables
        self.config_by_rank = config_by_rank
        self.final_letter = final_letter
        # slab i (0 <= i < doc_len) is where letter i is chosen:
        #   slab 0 holds the virtual start, slab i holds layer i-1 states.
        # slab_letters[i]: state -> sorted tuple of available letter ranks
        # slab_trans[i]:   (state, letter) -> tuple of layer-i states
        self.slab_letters = slab_letters
        self.slab_trans = slab_trans
        self.node_count = node_count
        self.edge_count = edge_count


def _empty_graph(doc_len: int, variables: tuple[str, ...]) -> MatchGraph:
    return MatchGraph(True, doc_len, variables, [], 0, [], [], 0, 0)


def build_match_graph(automaton: VSA, doc: str) -> MatchGraph:
    """Layer the automaton along the document and prune dead branches.

    Raises if the automaton is not functional; an automaton with no results
    on this document yields a graph flagged empty.
    """
    form = normal_form(automaton)
    configs = form.configs
    variables = form.ordered_variables
    doc_len = len(doc)
    if configs is None:
        return _empty_graph(doc_len, variables)
    step = cached_step(form)

    # forward sweep: layers[i] = states reachable before reading symbol i+1
    layers: list[set[int]] = [set(marker_moves(form, form.initial))]
    for i in range(doc_len):
        nxt: set[int] = set()
        for state in layers[i]:
            nxt |= step(state, doc[i])
        layers.append(nxt)
    if form.final not in layers[doc_len]:
        return _empty_graph(doc_len, variables)

    # backward prune to nodes that still reach the accepting node
    alive: list[set[int]] = [set() for _ in range(doc_len + 1)]
    alive[doc_len] = {form.final}
    for i in range(doc_len - 1, -1, -1):
        keep = set()
        for state in layers[i]:
            if step(state, doc[i]) & alive[i + 1]:
                keep.add(state)
        alive[i] = keep
    if not alive[0]:
        return _empty_graph(doc_len, variables)

    # letter universe: configurations of surviving nodes, in canonical order
    letter_set = {configs[state] for layer in alive for state in layer}
    config_by_rank = sorted(letter_set)
    rank = {config: i for i, config in enumerate(config_by_rank)}
    final_letter = rank[configs[form.final]]

    node_count = 1 + sum(len(layer) for layer in alive)
    edge_count = 0

    slab_letters: list[dict] = []
    slab_trans: list[dict] = []
    for slab in range(doc_len):
        letters: dict[int, tuple[int, ...]] = {}
        targets: dict[tuple[int, int], tuple[int, ...]] = {}
        if slab == 0:
            sources = (_START,)
        else:
            sources = tuple(sorted(alive[slab - 1]))
        for src in sources:
            if slab == 0:
                reach = alive[0]
            else:
                reach = step(src, doc[slab - 1]) & alive[slab]
            by_letter: dict[int, list[int]] = {}
            for state in reach:
                by_letter.setdefault(rank[configs[state]], []).append(state)
            if not by_letter:
                continue
            letters[src] = tuple(sorted(by_letter))
            for letter, states in by_letter.items():
                targets[(src, letter)] = tuple(sorted(states))
                edge_count += len(states)
        slab_letters.append(letters)
        slab_trans.append(targets)
    # the forced last step (into the accepting node) is not tabulated,
    # but its edges exist in the graph; count them for reporting
    if doc_len > 0:
        for state in alive[doc_len - 1]:
            edge_count += len(step(state, doc[doc_len - 1]) & alive[doc_len])

    return MatchGraph(False, doc_len, variables, config_by_rank, final_letter,
                      slab_letters, slab_trans, node_count, edge_count)


def enumerate_graph(graph: MatchGraph, stats: EnumerationStats | None = None):
    """Yield the graph's span tuples in canonical configuration order.

    The hot loops below are written flat on purpose: the worst-case delay of
    one result is a scan plus a refill across every slab, so each per-slab
    step is kept to a couple of int-keyed dict probes and list indexings.
    """
    if graph.empty:
        return
    doc_len = graph.doc_len
    variables = graph.variables
    n_vars = len(variables)
    config_by_rank = graph.config_by_rank
    slab_letters = graph.slab_letters
    slab_trans = graph.slab_trans
    n_ranks = len(config_by_rank)

    letters = [0] * (doc_len + 1)
    letters[doc_len] = graph.final_letter

    def decode() -> SpanTuple:
        assignment = {}
        for v in range(n_vars):
            lo, hi = 0, doc_len
            while lo < hi:  # first position where the variable is past WAITING
                mid = (lo + hi) >> 1
                if config_by_rank[letters[mid]][v] != WAITING:
                    hi = mid
                else:
                    lo = mid + 1
            begin = lo + 1
            hi = doc_len
            while lo < hi:  # first position where the variable is CLOSED
                mid = (lo + hi) >> 1
                if config_by_rank[letters[mid]][v] == CLOSED:
                    hi = mid
                else:
                    lo = mid + 1
            assignment[variables[v]] = Span(begin, lo + 1)
        return SpanTuple(assignment)

    if doc_len == 0:
        # one-letter language: the accepting configuration alone
        if stats is not None:
            stats.tuples += 1
            stats.max_node_set = 1
        yield decode()
        return

    # interned node sets, per slab, as parallel lists indexed by set id:
    #   min_letter[slab][sid]  = least available letter of the set
    #   next_letter[slab][sid] = letter -> next larger available letter
    #   trans_memo[slab]       = sid*n_ranks+letter -> next slab's set id
    set_ids: list[dict[frozenset, int]] = [dict() for _ in range(doc_len)]
    members: list[list[frozenset]] = [[] for _ in range(doc_len)]
    min_letter: list[list[int]] = [[] for _ in range(doc_len)]
    next_letter: list[list[dict[int, int]]] = [[] for _ in range(doc_len)]
    trans_memo: list[dict[int, int]] = [dict() for _ in range(doc_len)]

    def intern(slab: int, node_set: frozenset) -> int:
        table = set_ids[slab]
        sid = table.get(node_set)
        if sid is None:
            sid = len(members[slab])
            table[node_set] = sid
            members[slab].append(node_set)
            letter_lists = slab_letters[slab]
            available: set[int] = set()
            for state in node_set:
                lst = letter_lists.get(state)
                if lst:
                    available.update(lst)
            merged = sorted(available)
            min_letter[slab].append(merged[0])
            next_letter[slab].append(dict(zip(merged, merged[1:])))
            if stats is not None and len(node_set) > stats.max_node_set:
                stats.max_node_set = len(node_set)
        return sid

    def cold_transition(slab: int, sid: int, letter: int) -> int:
        if stats is not None:
            stats.cold_transitions += 1
        targets: set[int] = set()
        table = slab_trans[slab]
        for state in members[slab][sid]:
            hit = table.get((state, letter))
            if hit:
                targets.update(hit)
        nxt = intern(slab + 1, frozenset(targets))
        trans_memo[slab][sid * n_ranks + letter] = nxt
        return nxt

    stack = [intern(0, frozenset((_START,)))]
    stack_append = stack.append
    stack_pop = stack.pop
    last = doc_len - 1
    scan_total = 0
    fill_total = 0
    base_scan = stats.scan_steps if stats is not None else 0
    base_fill = stats.fill_steps if stats is not None else 0

    # pre-warm: walk the reachable frontier sets once, memoizing every
    # (set, letter) successor, so enumeration almost never computes a
    # transition mid-stream
    budget = _PREWARM_OPS
    pending = [(0, stack[0])]
    while pending and budget > 0:
        slab, sid = pending.pop()
        if slab >= last:  # transitions out of the final slab are never taken
            continue
        size = len(members[slab][sid])
        nxt_map = next_letter[slab][sid]
        memo = trans_memo[slab]
        grown = members[slab + 1]
        letter = min_letter[slab][sid]
        while letter is not None:
            budget -= size
            if memo.get(sid * n_ranks + letter) is None:
                before = len(grown)
                nsid = cold_transition(slab, sid, letter)
                if len(grown) > before:
                    pending.append((slab + 1, nsid))
            letter = nxt_map.get(letter)

    j = 0  # first slab to fill; 0 gives the overall minimal string
    while True:
        # fill the tail from slab j with least letters
        while j < doc_len:
            sid = stack[j]
            lt = min_letter[j][sid]
            letters[j] = lt
            if j < last:
                nxt = trans_memo[j].get(sid * n_ranks + lt)
                if nxt is None:
                    nxt = cold_transition(j, sid, lt)
                stack_append(nxt)
            j += 1
            fill_total += 1
        if stats is not None:
            stats.tuples += 1
            stats.scan_steps = base_scan + scan_total
            stats.fill_steps = base_fill + fill_total
        yield decode()

        # scan from the tail for the deepest slab that can take a larger
        # letter, dropping exhausted frontier entries along the way
        i = last
        while i >= 0:
            scan_total += 1
            sid = stack[i]
            nl = next_letter[i][sid].get(letters[i])
            if nl is None:
                stack_pop()
                i -= 1
                continue
            letters[i] = nl
            if i < last:
                nxt = trans_memo[i].get(sid * n_ranks + nl)
                if nxt is None:
                    nxt = cold_transition(i, sid, nl)
                stack_append(nxt)
            break
        if i < 0:
            if stats is not None:
                stats.scan_steps = base_scan + scan_total
                stats.fill_steps = base_fill + fill_total
            return
        j = i + 1


def enumerate_spans(automaton: VSA, doc: str,
                    stats: EnumerationStats | None = None):
    """Evaluate a functional automaton on a document, streaming span tuples
    in the canonical order.  Preprocessing happens on the first ``next()``."""
    yield from enumerate_graph(build_match_graph(automaton, doc), stats)

"""Ordered enumeration of a functional automaton's results, with a delay that
does not depend on the document's length.

The evaluation of a functional automaton on a fixed document is flattened
into a layered acyclic graph: layer ``i`` holds the states of its normal
form reachable right before reading symbol ``i+1`` (a step reads a letter,
then one marker move), a virtual start node fans into layer 0, and the last
layer is restricted to the final state and pruned backwards.  Every path
has the same length, and labelling each node with its state's configuration
turns paths into exactly the per-position state sequences of the result
tuples — one path label string per result, no duplicates.  The graph keeps
only its layers; both sweeps memoize a step by the layer's content, so a
repetitive document costs dictionary lookups, not per-state work.

Enumeration walks that string language in ascending order (letters are
configurations ordered as tuples, WAITING < OPEN < CLOSED, variables in name
order; strings compared position by position).  Configurations only grow
along a path, so a string is a sequence of at most 2·|variables| + 1 *runs*
(stretches of one letter), and it is told apart from the strings sharing
its prefix by where its current run ends and which letter comes next.
Staying on a letter sorts before changing it, so the later a run's change
point the earlier its strings: a run's change points are visited latest
first, each with its next letters in ascending order.

The frontier node sets a run can reach are determinized once, before the
first result (within a fixed allowance), straight from the automaton's
step, and a *run index* over them lists any run's change points latest
first, each in time that does not depend on the run's length (a binary
search over the runs that merge there, where several do).  The walk keeps
one frame per run, so between two results it does work bounded by the
number of variables and the automaton, not by the document.

Representation choices for speed: configurations are interned to integer
ranks (so letter comparison is int comparison), node sets are interned per
slab, their splits by letter memoized by content across slabs, and each
variable's span is written when a run that changes it is entered.
"""

from __future__ import annotations

from bisect import bisect_right

from .model import CLOSED, WAITING, Span, SpanTuple
from .vsa import VSA, cached_step, marker_moves, normal_form

_START = -1  # virtual start node's "state" id

# Elementary-operation allowance for determinizing frontier sets before the
# first result.  Within it, every set the enumeration can reach has its
# successors computed up front and the run index covers every run; past it
# (pathological subset growth), sets are computed lazily and each run lists
# its change points on entry, so delays may spike but stay polynomial.
_PREWARM_OPS = 1 << 19


class EnumerationStats:
    """Counters a caller can pass in to observe the enumeration's work.

    ``fill_steps`` counts the runs entered (the runs of the emitted strings,
    those of a shared prefix once) and ``scan_steps`` the moves from an
    exhausted change point to the next one of its run, or out of the run
    when none is left.  Both grow with the number of results and variables,
    not with the document's length.  ``cold_transitions`` counts the
    frontier-set transitions computed, ``max_node_set`` the size of the
    largest frontier set.
    """

    __slots__ = ("tuples", "max_node_set", "scan_steps", "fill_steps",
                 "cold_transitions")

    def __init__(self):
        self.tuples = 0
        self.max_node_set = 0
        self.scan_steps = 0
        self.fill_steps = 0
        self.cold_transitions = 0


class MatchGraph:
    """The layered evaluation graph of one (automaton, document) pair.

    ``alive[i]`` (0 <= i <= doc_len) is layer i: the states of the normal
    form reachable before reading symbol i+1 that still reach the accepting
    state after the document, as a frozenset; equal layers are one object.
    Edges are not stored: a virtual start node fans into layer 0, and a node
    of layer i-1 steps over ``doc[i-1]`` with ``step`` (the form's memoized
    step) into its successors in layer i.  ``letter_of`` maps each node's
    state to the rank of its configuration in ``config_by_rank``.
    """

    __slots__ = ("empty", "doc", "doc_len", "variables", "config_by_rank",
                 "alive", "step", "letter_of", "node_count", "edge_count")

    def __init__(self, empty: bool, doc: str, variables: tuple[str, ...],
                 config_by_rank: list[tuple[int, ...]], alive: list[frozenset],
                 step, letter_of: dict[int, int], node_count: int, edge_count: int):
        self.empty = empty
        self.doc = doc
        self.doc_len = len(doc)
        self.variables = variables
        self.config_by_rank = config_by_rank
        self.alive = alive
        self.step = step
        self.letter_of = letter_of
        self.node_count = node_count
        self.edge_count = edge_count


def _empty_graph(doc: str, variables: tuple[str, ...]) -> MatchGraph:
    return MatchGraph(True, doc, variables, [], [], None, {}, 0, 0)


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
        return _empty_graph(doc, variables)
    step = cached_step(form)

    # forward sweep: layers[i] = states reachable before reading symbol i+1;
    # a (layer, symbol) pair is stepped once, however often it recurs
    layer = frozenset(marker_moves(form, form.initial))
    layers = [layer]
    moves: dict = {}
    for symbol in doc:
        nxt = moves.get((layer, symbol))
        if nxt is None:
            nxt = frozenset().union(*[step(state, symbol) for state in layer])
            nxt = moves.setdefault(nxt, nxt)  # equal layers become one object
            moves[layer, symbol] = nxt
        layer = nxt
        layers.append(layer)
    moves.clear()
    if form.final not in layer:
        return _empty_graph(doc, variables)

    # backward prune to nodes that reach the accepting node, with the edges
    # between layers; memoized and interned as in the forward sweep
    alive: list = [None] * (doc_len + 1)
    here = alive[doc_len] = frozenset((form.final,))
    pruned: dict = {}
    edge_count = 0
    for i in range(doc_len - 1, -1, -1):
        key = (layers[i], doc[i], here)
        hit = pruned.get(key)
        if hit is None:
            reach = {state: len(step(state, doc[i]) & here) for state in layers[i]}
            kept = frozenset(state for state, edges in reach.items() if edges)
            hit = pruned[key] = (pruned.setdefault(kept, kept), sum(reach.values()))
        here, edges = hit
        alive[i] = here
        edge_count += edges
    edge_count += len(here) if doc_len else 0  # the virtual start's edges

    # letter universe: configurations of surviving nodes, in canonical order
    states = frozenset().union(*set(alive))
    config_by_rank = sorted({configs[state] for state in states})
    rank = {config: i for i, config in enumerate(config_by_rank)}
    letter_of = {state: rank[configs[state]] for state in states}
    node_count = 1 + sum(map(len, alive))
    return MatchGraph(False, doc, variables, config_by_rank, alive, step, letter_of,
                      node_count, edge_count)


class _Frontiers:
    """The frontier node sets of one enumeration, interned per slab, numbered
    globally, with memoized successors.

    Slab i (0 <= i < doc_len) is where the letter of a layer-i node is
    chosen.  A set at slab j >= 1 holds layer j-1 nodes that share one
    letter, the letter chosen at slab j-1; the set at slab 0 is the virtual
    start, with letter -1.  Per set g:
      choices[g]: the letters that end a run at g, ascending: at the last
                  slab every available letter, else every available letter
                  but the set's own (g is a change point when non-empty)
      stay[g]:    the set a run continues with on g's letter; -1 for none,
                  -2 while not yet computed
    ``split_of[g]`` is g's split (see ``split``) and ``succ`` maps
    ``g * n_ranks + letter`` to the next slab's set.  Members are sorted.
    """

    def __init__(self, graph: MatchGraph, stats: EnumerationStats | None):
        self.graph = graph
        self.stats = stats
        self.last = graph.doc_len - 1
        self.n_ranks = len(graph.config_by_rank)
        self.set_ids: list[dict[tuple, int]] = [dict() for _ in range(graph.doc_len)]
        self.members: list[tuple[int, ...]] = []
        self.slab_of: list[int] = []
        self.letter_of: list[int] = []
        self.choices: list[tuple[int, ...]] = []
        self.stay: list[int] = []
        self.split_of: list[tuple] = []
        self.succ: dict[int, int] = {}
        self.splits: dict[tuple, tuple] = {}
        self.start = self.intern(0, (_START,), -1)

    def split(self, slab: int, node_set: tuple[int, ...]) -> tuple:
        """``(letters, letters but the first, nodes per letter)`` for the
        layer-``slab`` nodes that ``node_set`` steps into."""
        graph = self.graph
        layer = graph.alive[slab]
        key = (node_set, graph.doc[slab - 1], layer) if slab else layer
        hit = self.splits.get(key)
        if hit is None:
            if slab:
                layer = layer & frozenset().union(
                    *[graph.step(state, key[1]) for state in node_set])
            letter_of = graph.letter_of
            by_letter: dict[int, list[int]] = {}
            for state in layer:
                by_letter.setdefault(letter_of[state], []).append(state)
            letters = tuple(sorted(by_letter))
            hit = self.splits[key] = (letters, letters[1:], tuple(
                tuple(sorted(by_letter[letter])) for letter in letters))
        return hit

    def intern(self, slab: int, node_set: tuple[int, ...], letter: int) -> int:
        table = self.set_ids[slab]
        g = table.get(node_set)
        if g is None:
            g = len(self.members)
            table[node_set] = g
            self.members.append(node_set)
            self.slab_of.append(slab)
            self.letter_of.append(letter)
            letters, rest, _ = split = self.split(slab, node_set)
            self.split_of.append(split)
            stays = slab < self.last and letters[0] == letter
            self.choices.append(rest if stays else letters)
            self.stay.append(-2 if stays else -1)
            stats = self.stats
            if stats is not None and len(node_set) > stats.max_node_set:
                stats.max_node_set = len(node_set)
        return g

    def step(self, g: int, letter: int) -> int:
        key = g * self.n_ranks + letter
        nxt = self.succ.get(key)
        if nxt is None:
            if self.stats is not None:
                self.stats.cold_transitions += 1
            letters, _, nodes = self.split_of[g]
            nxt = self.intern(self.slab_of[g] + 1, nodes[letters.index(letter)], letter)
            self.succ[key] = nxt
            if letter == self.letter_of[g]:
                self.stay[g] = nxt
        return nxt

    def prewarm(self, budget: int) -> bool:
        """Compute the successors of every reachable set, at a cost of one
        operation per member per letter; False when the budget ran out."""
        slab_of, members, letter_of = self.slab_of, self.members, self.letter_of
        choices, stay, succ, n_ranks = self.choices, self.stay, self.succ, self.n_ranks
        pending = [self.start]
        while pending and budget > 0:
            g = pending.pop()
            if slab_of[g] >= self.last:  # no transitions out of the last slab
                continue
            size = len(members[g])
            for letter in (letter_of[g], *choices[g]) if stay[g] != -1 else choices[g]:
                budget -= size
                if succ.get(g * n_ranks + letter) is None:
                    before = len(members)
                    nxt = self.step(g, letter)
                    if len(members) > before:
                        pending.append(nxt)
        return not pending


def _index_runs(sets: _Frontiers):
    """The run index over fully computed frontier sets.

    The change points of a run entered at set y are the sets with choices on
    y's stay chain, latest first.  Stay chains merge but never split, so
    linking each such set to the next one on its chain gives a forest whose
    roots end their chains, and a run's change points are the forest path
    from ``top[first[y]]`` down to ``first[y]``.  Where chains merge, a set
    has several children; preorder numbers pick the one on that path.

    Returns ``(first, top, down, preorder)``: ``down[g]`` is g's only child,
    or its children with their preorder numbers, ascending.
    """
    choices, stay = sets.choices, sets.stay
    n_sets = len(choices)
    first = [0] * n_sets
    top = [0] * n_sets
    down: list = [None] * n_sets
    kids: dict[int, list[int]] = {}
    roots: list[int] = []
    for slab in range(sets.last, -1, -1):  # a set's stay successor first
        for g in sets.set_ids[slab].values():
            nxt = stay[g]
            if not choices[g]:
                first[g] = first[nxt]
                continue
            first[g] = g
            if nxt < 0:
                top[g] = g
                roots.append(g)
            else:
                up = first[nxt]
                top[g] = top[up]
                kids.setdefault(up, []).append(g)
    preorder = [0] * n_sets
    counter = 0
    walk = roots
    while walk:
        g = walk.pop()
        preorder[g] = counter
        counter += 1
        below = kids.get(g)
        if below:
            walk.extend(reversed(below))
    for g, below in kids.items():
        down[g] = below[0] if len(below) == 1 else (below, [preorder[k] for k in below])
    return first, top, down, preorder


def enumerate_graph(graph: MatchGraph, stats: EnumerationStats | None = None):
    """Yield the graph's span tuples in canonical configuration order.

    The walk keeps one frame per run of the current string: the run's letter,
    its first change point and the change point it is at.  Between two
    results it leaves and enters at most one run per configuration change,
    so the delay does not depend on the document's length.
    """
    if graph.empty:
        return
    doc_len = graph.doc_len
    variables = graph.variables
    n_vars = len(variables)
    if doc_len == 0:
        # one-letter language: the accepting configuration alone
        if stats is not None:
            stats.tuples += 1
            stats.max_node_set = max(stats.max_node_set, 1)
        yield SpanTuple({var: Span(1, 1) for var in variables})
        return
    last = doc_len - 1

    sets = _Frontiers(graph, stats)
    indexed = sets.prewarm(_PREWARM_OPS)
    if indexed:
        # every successor is known: the walk needs no splits or node sets
        sets.splits = sets.split_of = sets.members = None
        first, top, down, preorder = _index_runs(sets)
        sets.set_ids = None
    choices, slab_of, succ, stay = sets.choices, sets.slab_of, sets.succ, sets.stay
    step = sets.step
    n_ranks = sets.n_ranks

    def enter_unindexed(letter: int, y: int) -> list:
        """A frame for the run entered at set ``y``, its change points listed
        by walking the run (the budget ran out before the index was built)."""
        path = []
        g = y
        while g >= 0:
            if choices[g]:
                path.append(g)
            nxt = stay[g]
            g = step(g, letter) if nxt == -2 else nxt
        return [letter, path[0], path.pop(), 0, path]

    # begin[v] / end[v]: the 1-based positions where variable v leaves
    # WAITING / becomes CLOSED on the current string.  A run writes the
    # entries of the variables its letter changes, at its first slab; each
    # string changes each variable once, so entries left by runs no longer
    # on the stack are always overwritten before the next result.
    begin = [0] * n_vars
    end = [0] * n_vars
    config_of = graph.config_by_rank + [(WAITING,) * n_vars]  # letter -1: before the document
    final_pos = doc_len + 1
    scan_total = 0
    fill_total = 0
    base_scan = stats.scan_steps if stats is not None else 0
    base_fill = stats.fill_steps if stats is not None else 0

    # a frame: [run letter, first change point, current change point,
    #           next choice there, unindexed change points still to visit]
    frame = [-1, sets.start, sets.start, 0, None if indexed else []]
    frames = [frame]
    while True:
        at = frame[2]
        options = choices[at]
        if slab_of[at] == last:
            # every choice completes a result: the last slab's letter, then
            # the accepting configuration after the document
            before = config_of[frame[0]]
            for letter in options:
                after = config_of[letter]
                for v in range(n_vars):
                    was = before[v]
                    if was != CLOSED:
                        now = after[v]
                        if was == WAITING:
                            begin[v] = doc_len if now != WAITING else final_pos
                        end[v] = doc_len if now == CLOSED else final_pos
                if stats is not None:
                    stats.tuples += 1
                    stats.scan_steps = base_scan + scan_total
                    stats.fill_steps = base_fill + fill_total
                yield SpanTuple(zip(variables, map(Span, begin, end)))
        else:
            i = frame[3]
            if i < len(options):
                # change letter here: enter the run that starts with it
                letter = options[i]
                frame[3] = i + 1
                position = slab_of[at] + 1
                before = config_of[frame[0]]
                after = config_of[letter]
                for v in range(n_vars):
                    was = before[v]
                    now = after[v]
                    if was != now:
                        if was == WAITING:
                            begin[v] = position
                        if now == CLOSED:
                            end[v] = position
                fill_total += 1
                y = succ.get(at * n_ranks + letter)
                if y is None:
                    y = step(at, letter)
                if indexed:
                    goal = first[y]
                    frame = [letter, goal, top[goal], 0, None]
                else:
                    frame = enter_unindexed(letter, y)
                frames.append(frame)
                continue
        # this change point is done: go to the run's next one, or leave it
        scan_total += 1
        if at == frame[1]:
            frames.pop()
            if not frames:
                if stats is not None:
                    stats.scan_steps = base_scan + scan_total
                    stats.fill_steps = base_fill + fill_total
                return
            frame = frames[-1]
            continue
        path = frame[4]
        if path is None:
            below = down[at]
            if type(below) is tuple:
                kids_of, order = below
                below = kids_of[bisect_right(order, preorder[frame[1]]) - 1]
            frame[2] = below
        else:
            frame[2] = path.pop()
        frame[3] = 0


def enumerate_spans(automaton: VSA, doc: str,
                    stats: EnumerationStats | None = None):
    """Evaluate a functional automaton on a document, streaming span tuples
    in the canonical order.  Preprocessing happens on the first ``next()``."""
    yield from enumerate_graph(build_match_graph(automaton, doc), stats)

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
repetitive document costs dictionary lookups, not per-state work.  The
equality search walks the document already, so it hands over the layers
it kept instead (:func:`~spanex.compiler.equality_graph`).  A union's graph
lays its parts' graphs side by side under one virtual start
(:func:`union_graph`), and the frontier sets merge a row that several give.

Enumeration walks that string language in ascending order (letters are
configurations ordered as tuples, WAITING < OPEN < CLOSED, variables in name
order; strings compared position by position).  Configurations only grow
along a path, so a string is a sequence of at most 2·|variables| + 1 *runs*
(stretches of one letter), and it is told apart from the strings sharing
its prefix by where its current run ends and which letter comes next.
Staying on a letter sorts before changing it, so the later a run's change
point the earlier its strings: a run's change points are visited latest
first, each with its next letters in ascending order.  The same order can
be read off a row alone (:func:`enumeration_key`): the span of the variable
with index ``i`` (of ``v``, in name order) is the two events ``begin·v + i``
and ``end·v + i``, and the stream is the descending order of the rows'
sorted event lists.

The frontier node sets a run can reach are determinized straight from the
automaton's step, and a *run index* over their change points lists any
run's change points latest first, each in time that does not depend on the
run's length (a binary search over the runs that merge there, where several
do).  Both are built in full before the first result, so the first result
waits for work that grows with the number of distinct frontier sets, which
subset growth in the automaton can make large.  The walk keeps one frame
per run, so between two results it does work bounded by the number of
variables and the automaton, not by the document.

Representation choices for speed: configurations are interned to integer
ranks (so letter comparison is int comparison); node sets, and each
position's whole frontier of them, are numbered by content, not by
position, and their steps memoized by (content, symbol, alive layer), so a
position whose frontier recurs costs one lookup; only change points get a
number of their own, and positions where nothing changes are skipped when
the index is built; each change point carries the entries its letter
changes write, so the walk reads no configuration; a result is the stream's
one tuple of variable names and a copy of one flat list of bounds, a tuple
of ints with no sort and no span object (a row makes those when read).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain

from .model import CLOSED, WAITING, SpanTuple
from .vsa import VSA, cached_step, normal_form

_START = -1  # virtual start node's "state" id

class EnumerationStats:
    """Counters a caller can pass in to observe the enumeration's work.

    ``fill_steps`` counts the runs entered (the runs of the emitted strings,
    those of a shared prefix once) and ``scan_steps`` the moves from an
    exhausted change point to the next one of its run, or out of the run
    when none is left.  Both grow with the number of results and variables,
    not with the document's length.  ``cold_transitions`` counts the
    frontier-set steps computed (each one set over one symbol into one
    alive layer), ``max_node_set`` the size of the largest frontier set.
    All frontier-set steps are computed while the run index is built,
    before the first result, so ``cold_transitions`` does not move after
    it.
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

    ``alive[i]`` (0 <= i <= doc_len) is layer i: the states reachable
    before reading symbol i+1 that still reach the accepting state after the
    document, as a frozenset.  Edges are not stored: a virtual start node
    fans into layer 0, and a node of layer i-1 steps over ``doc[i-1]`` with
    ``step(state, symbol)`` into successors that include its successors in
    layer i.  ``letter_of`` maps each node's state to the rank of its
    configuration in ``config_by_rank``.  :func:`build_match_graph` lays out
    a normal form along the document, its step the form's memoized step and
    equal layers one object; the equality search
    (:func:`~spanex.compiler.equality_graph`) hands over the layers it kept,
    each state tied to one position and its step the successors it kept.
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


def empty_graph(doc: str, variables: tuple[str, ...]) -> MatchGraph:
    """The graph of an automaton with no results on ``doc``."""
    return MatchGraph(True, doc, variables, [], [], None, {}, 0, 0)


def layered_graph(doc: str, variables: tuple[str, ...], alive: list[frozenset],
                  step, config_of: dict, edge_count: int) -> MatchGraph:
    """The graph over the given layers, its letters the configurations that
    ``config_of`` gives each node's state (over ``variables``, so possibly
    projected), ranked in canonical order."""
    config_by_rank = sorted(set(config_of.values()))
    rank = {config: i for i, config in enumerate(config_by_rank)}
    letter_of = {state: rank[config] for state, config in config_of.items()}
    node_count = 1 + sum(map(len, alive))
    return MatchGraph(False, doc, variables, config_by_rank, alive, step, letter_of,
                      node_count, edge_count)


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
        return empty_graph(doc, variables)
    step = cached_step(form)

    # forward sweep: layers[i] = states reachable before reading symbol i+1;
    # a (layer, symbol) pair is stepped once, however often it recurs
    layer = frozenset(form.moves_out[form.initial])
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
        return empty_graph(doc, variables)

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
    edge_count += len(here)  # the virtual start's edges

    states = frozenset().union(*set(alive))
    return layered_graph(doc, variables, alive, step,
                         {state: configs[state] for state in states}, edge_count)


def union_graph(doc: str, variables: tuple[str, ...], graphs: list[MatchGraph]) -> MatchGraph:
    """One graph whose results are the union of the graphs' results on
    ``doc``, over ``variables``: the non-empty ones side by side under one
    virtual start, a lone one as it is.  State s of part k is ``s·n + k``
    for n parts, and layer i the union of the parts' layer i."""
    parts = [graph for graph in graphs if not graph.empty]
    if len(parts) < 2:
        return parts[0] if parts else empty_graph(doc, variables)
    n = len(parts)

    def step(state, symbol):
        s, k = divmod(state, n)
        return [t * n + k for t in parts[k].step(s, symbol)]

    columns: dict = {}  # equal columns of the parts' layers give one object
    alive = []
    for layers in zip(*[part.alive for part in parts]):
        layer = columns.get(layers)
        if layer is None:
            layer = columns[layers] = frozenset(
                [s * n + k for k, states in enumerate(layers) for s in states])
        alive.append(layer)
    config_of = {s * n + k: part.config_by_rank[letter]
                 for k, part in enumerate(parts) for s, letter in part.letter_of.items()}
    return layered_graph(doc, variables, alive, step, config_of,
                         sum(part.edge_count for part in parts))


def _number(ids: dict, items: list, item) -> int:
    """``item``'s index in ``items``, appended on first sight."""
    n = ids.setdefault(item, len(items))
    if n == len(items):
        items.append(item)
    return n


class _Frontiers:
    """The frontier node sets of one enumeration, numbered by content, and
    the change points among them.

    Slab i (0 <= i < doc_len) is where the letter of a layer-i node is
    chosen.  A set at slab j >= 1 holds layer j-1 nodes that share one
    letter, the letter chosen at slab j-1; the set at slab 0 is the virtual
    start, with letter -1.  A set's number depends on its members alone
    (they fix its letter), not on its slab, and its step at a slab is
    memoized on (set, symbol read, alive layer): ``split`` gives
    ``(choices, targets, stay, own, letters, nexts)``, where ``own`` is the
    set's letter, ``letters`` the letters of the layer-slab nodes the set
    steps into, ascending, ``nexts`` the sets of those nodes per letter, and
      choices: the letters that end a run at the set, at every slab but the
               last: every available letter but the set's own (at the last
               slab every available letter ends one);
      targets: the sets those choices enter;
      stay:    the set a run continues with on the set's own letter, or None.
    A set with choices at its slab is a *change point* there (``writes``).

    A slab's frontier, the sets the enumeration reaches there, is numbered
    by content too, and ``prewarm`` steps it once per distinct (frontier,
    symbol, alive layer), so a slab whose frontier recurs costs one lookup.
    Every slab is stepped before the first result: one lookup per slab,
    and one split per distinct (set, symbol, alive layer), so the number of
    distinct sets, not their size, sets the cost.
    """

    def __init__(self, graph: MatchGraph, stats: EnumerationStats | None):
        self.graph = graph
        self.stats = stats
        self.last = graph.doc_len - 1
        self.set_ids: dict[tuple[int, ...], int] = {}
        self.members: list[tuple[int, ...]] = []
        self.splits: dict[tuple, tuple] = {}
        self.frontier_ids: dict[tuple[int, ...], int] = {}
        self.frontiers: list[tuple[int, ...]] = []
        self.start = _number(self.set_ids, self.members, (_START,))
        self.config_of = graph.config_by_rank + [(WAITING,) * len(graph.variables)]
        self.changes: dict[tuple, tuple] = {}

    def writes(self, own: int, letters: tuple[int, ...], end: int = 0) -> tuple:
        """Per letter, memoized, the flat-bound entries a change from letter
        ``own`` to it writes: a begin as its variable leaves WAITING, an end
        as it becomes CLOSED.  At the last slab (``end`` = doc_len) each entry
        left is ``(entry, value)``: ``end`` if the letter writes it, else
        ``end + 1``, for the accepting configuration after the document."""
        key = (own, letters, end)
        hit = self.changes.get(key)
        if hit is None:
            before = self.config_of[own]
            rows = []
            for letter in letters:
                row = []
                for v, (was, now) in enumerate(zip(before, self.config_of[letter])):
                    if was == WAITING:
                        row.append((2 * v, end if now != WAITING else end + 1))
                    if was != CLOSED:
                        row.append((2 * v + 1, end if now == CLOSED else end + 1))
                rows.append(tuple(row) if end else tuple([e for e, value in row if value == end]))
            hit = self.changes[key] = tuple(rows)
        return hit

    def split(self, c: int, symbol, layer: frozenset) -> tuple:
        """Set ``c``'s step over ``symbol`` (None at slab 0) into ``layer``,
        memoized."""
        key = (c, symbol, layer)
        hit = self.splits.get(key)
        if hit is None:
            graph = self.graph
            members = self.members[c]
            if symbol is not None:
                layer = layer & frozenset().union(
                    *[graph.step(state, symbol) for state in members])
            letter_of = graph.letter_of
            by_letter: dict[int, list[int]] = {}
            for state in layer:
                by_letter.setdefault(letter_of[state], []).append(state)
            letters = tuple(sorted(by_letter))
            nexts = tuple([_number(self.set_ids, self.members, tuple(sorted(nodes)))
                           for nodes in map(by_letter.get, letters)])
            own = letter_of.get(members[0], -1)
            if letters[0] == own:
                hit = (letters[1:], nexts[1:], nexts[0], own, letters, nexts)
            else:
                hit = (letters, nexts, None, own, letters, nexts)
            self.splits[key] = hit
            stats = self.stats
            if stats is not None:
                stats.cold_transitions += 1
                if len(members) > stats.max_node_set:
                    stats.max_node_set = len(members)
        return hit

    def step_frontier(self, f: int, symbol, layer: frozenset) -> tuple:
        """``(next frontier, work)`` for frontier ``f`` at a slab that is not
        the last.  ``work`` is None when the slab is passive (no set has
        choices and each stays itself), else ``(change points, moves)``: a
        change point as ``(set, writes, targets, stay)``, and a move as
        ``(set, stay)`` for each other set that turns into another."""
        reached: set[int] = set()
        points = []
        moves = []
        for c in self.frontiers[f]:
            choices, targets, stay, own, _, nexts = self.split(c, symbol, layer)
            reached.update(nexts)
            if choices:
                points.append((c, self.writes(own, choices), targets, stay))
            elif stay != c:
                moves.append((c, stay))
        nxt = _number(self.frontier_ids, self.frontiers, tuple(sorted(reached)))
        return nxt, (tuple(points), tuple(moves)) if points or moves else None

    def prewarm(self) -> tuple[int, list, list]:
        """Step every slab's frontier.  Returns the virtual start's set, the
        slabs that are not passive, as ``(slab, work)``, and the last slab's
        sets with their writes."""
        graph = self.graph
        steps: dict[tuple, tuple] = {}
        f = _number(self.frontier_ids, self.frontiers, (self.start,))
        busy = []
        symbols = chain((None,), graph.doc)
        for slab, symbol, layer in zip(range(self.last), symbols, graph.alive):
            key = (f, symbol, layer)
            hit = steps.get(key)
            if hit is None:
                hit = steps[key] = self.step_frontier(f, symbol, layer)
            f, work = hit
            if work is not None:
                busy.append((slab, work))
        symbol = graph.doc[self.last - 1] if self.last else None
        layer = graph.alive[self.last]
        ends = [(c, self.writes(*self.split(c, symbol, layer)[3:5], graph.doc_len))
                for c in self.frontiers[f]]
        return self.start, busy, ends


def _index_runs(last: int, start: int, busy: list, ends: list):
    """Number the change points and build the run index over them.

    The change points of a run entered at a set are the change points on its
    stay chain, latest first.  Stay chains merge but never split, so
    linking each change point to the next one on its chain gives a forest
    whose roots end their chains, and a run's change points are the forest
    path from ``top`` of its first change point down to that one.  Where
    chains merge, a change point has several children; preorder numbers
    pick the one on that path.  A backward sweep over the slabs that are
    not passive finds each set's first change point; a passive slab's sets
    have the same ones as the next slab's.

    Takes the last slab and ``_Frontiers.prewarm``'s result.  Returns
    ``(first, n_last, slab_of, writes, goals, top, down, preorder)``:
    ``first`` is the virtual start's first change point, and the last slab's
    are numbered first, below ``n_last``.  Indexed by change point g:
    ``slab_of[g]`` is g's slab, ``writes[g]`` per choice its bound writes,
    ``goals[g]`` per choice the first change point of the run it enters,
    and ``down[g]`` g's only child, or its children with their preorder
    numbers, ascending.
    """
    slab_of: list[int] = []
    writes: list[tuple] = []
    goals: list[tuple[int, ...]] = []
    top: list[int] = []
    kids: dict[int, list[int]] = {}
    roots: list[int] = []
    ahead = {}  # set -> its first change point, at the slab after the current
    for c, written in ends:
        g = ahead[c] = len(slab_of)
        slab_of.append(last)
        writes.append(written)
        goals.append(())
        top.append(g)
        roots.append(g)
    for slab, (points, moves) in reversed(busy):
        # a set that stays itself keeps its entry; the other entries are
        # all read before any is replaced
        moved = [(c, ahead[stay]) for c, stay in moves]
        for c, written, targets, stay in points:
            g = len(slab_of)
            slab_of.append(slab)
            writes.append(written)
            goals.append(tuple([ahead[t] for t in targets]))
            if stay is None:
                top.append(g)
                roots.append(g)
            else:
                up = ahead[stay]
                top.append(top[up])
                kids.setdefault(up, []).append(g)
            moved.append((c, g))
        ahead.update(moved)
    preorder = [0] * len(slab_of)
    counter = 0
    walk = roots
    while walk:
        g = walk.pop()
        preorder[g] = counter
        counter += 1
        below = kids.get(g)
        if below:
            walk.extend(reversed(below))
    down: list = [None] * len(slab_of)
    for g, below in kids.items():
        down[g] = below[0] if len(below) == 1 else (below, [preorder[k] for k in below])
    return ahead[start], len(ends), slab_of, writes, goals, top, down, preorder


def enumerate_graph(graph: MatchGraph, stats: EnumerationStats | None = None):
    """Yield the graph's span tuples in canonical configuration order.

    The run index is built on the first ``next()``, before the first
    result.  The walk then keeps a 3-slot frame per run of the current
    string: its first change point, the one it is at and the next choice
    there; a run whose only change point is at the last slab gets none.
    Between two results it leaves and enters at most one run per
    configuration change, writing the bounds its change point lists, so
    the delay does not depend on the document's length.
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
        yield SpanTuple._ordered(variables, (1, 1) * n_vars)
        return

    # the walk needs no sets, splits or configurations: they are freed
    # before the index is built over their change points
    start, n_last, slab_of, writes, goals, top, down, preorder = _index_runs(
        doc_len - 1, *_Frontiers(graph, stats).prewarm())

    # bounds[2v] / bounds[2v + 1], the row's flat bounds: the 1-based
    # positions where variable v leaves WAITING / becomes CLOSED on the
    # current string.  Entering a run writes the entries its change point
    # lists for it; each string changes each variable once, so entries left
    # by runs no longer on the stack are overwritten in time.
    bounds = [0] * (2 * n_vars)
    scan_total = 0
    fill_total = 0
    base_scan = stats.scan_steps if stats is not None else 0
    base_fill = stats.fill_steps if stats is not None else 0
    make_row = SpanTuple._ordered

    # a frame: [first change point, current change point, next choice there]
    frame = [start, start, 0]
    frames = [frame]
    at = start
    while True:
        if at < n_last:
            # every choice completes a result: the last slab's letter, then
            # the accepting configuration after the document
            for pairs in writes[at]:
                for entry, value in pairs:
                    bounds[entry] = value
                if stats is not None:
                    stats.tuples += 1
                    stats.scan_steps = base_scan + scan_total
                    stats.fill_steps = base_fill + fill_total
                yield make_row(variables, tuple(bounds))
            scan_total += 1
            if at != frame[1]:  # a frameless run: back to the run that entered it
                at = frame[1]
                continue
        else:
            i = frame[2]
            options = writes[at]
            if i < len(options):
                # change letter here: enter the run that starts with it
                frame[2] = i + 1
                position = slab_of[at] + 1
                for entry in options[i]:
                    bounds[entry] = position
                fill_total += 1
                at = goals[at][i]
                if at >= n_last:  # else its only change point is at the last slab
                    frame = [at, top[at], 0]
                    frames.append(frame)
                    at = frame[1]
                continue
            scan_total += 1
        # this change point is done: go to the run's next one, or leave it
        if at == frame[0]:
            frames.pop()
            if not frames:
                if stats is not None:
                    stats.scan_steps = base_scan + scan_total
                    stats.fill_steps = base_fill + fill_total
                return
            frame = frames[-1]
            at = frame[1]
            continue
        below = down[at]
        if type(below) is tuple:
            kids_of, order = below
            below = kids_of[bisect_right(order, preorder[frame[0]]) - 1]
        frame[1] = at = below
        frame[2] = 0


def enumeration_key(row: SpanTuple) -> list[int]:
    """The row's sorted events, ``begin·v + i`` and ``end·v + i`` for the
    span of its ``i``-th variable of ``v``.  A smaller first difference is
    a configuration that grows sooner, or at the same position in a variable
    earlier in name order, so a larger string: the enumerator streams rows
    in descending order of this key, and equal keys mean equal rows."""
    bounds = row._bounds
    v = len(bounds) // 2
    events = [bound * v + i // 2 for i, bound in enumerate(bounds)]
    events.sort()
    return events


def enumerate_spans(automaton: VSA, doc: str,
                    stats: EnumerationStats | None = None):
    """Evaluate a functional automaton on a document, streaming span tuples
    in the canonical order.  Preprocessing happens on the first ``next()``."""
    yield from enumerate_graph(build_match_graph(automaton, doc), stats)

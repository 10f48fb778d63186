"""Variable-set automata: NFAs over documents extended with capture markers.

States are ints ``0..n-1`` with a single initial and a single final state.
Transition labels are one of

* ``None`` — an ε-move,
* a 1-character string — consume that document symbol,
* :data:`ANY` — consume any one document symbol (kept symbolic so compiled
  automata stay independent of any particular document alphabet),
* a nonempty ``frozenset`` of variable operations ``("open"|"close", var)`` —
  perform all of them at once without consuming input.

An automaton is *functional* when every accepted marker sequence opens and
closes every variable exactly once.  For trimmed automata this is equivalent
to a local condition: every state is reached with one well-defined tuple of
per-variable states (its *configuration*), and the final state's
configuration has closed everything.  The marker set between two states is
then fixed by their configurations, which gives every functional automaton
an ε-free *normal form* of at most ``2n + 2`` states in which a run
alternates one marker move and one letter.  A :class:`NormalForm` stores
its moves and configurations and reads the marker sets off them; only
automata from outside (:class:`VSA`, :func:`load_vsa`) are checked edge by
edge.  :func:`normal_form` builds one once from any such automaton and
checks its functionality: every non-functional input raises
:class:`NotFunctionalError` with the reason and the variable.  A formula
gets its normal form, and its verdict, from the compiler, straight from its
syntax tree, and builds no automaton with ε-moves.
The join reads the form's adjacency lists, the match graph steps it through
:func:`cached_step`, and the enumerator's output alphabet is its
configurations.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .model import CLOSED, OPEN, OP_CLOSE, OP_OPEN, WAITING


class _AnySymbol:
    """Singleton wildcard label."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"


ANY = _AnySymbol()

Ops = frozenset
Transition = tuple  # (src, label, dst)


class VSA:
    """A variable-set automaton.  Treat instances as immutable."""

    __slots__ = ("variables", "ordered_variables", "n_states", "initial", "final",
                 "transitions")

    def __init__(self, variables: Iterable[str], n_states: int, initial: int,
                 final: int, transitions: Iterable[Transition]):
        self.variables = frozenset(variables)
        self.ordered_variables = tuple(sorted(self.variables))
        self.n_states = n_states
        self.initial = initial
        self.final = final
        self.transitions = tuple(transitions)
        if not (0 <= initial < n_states and 0 <= final < n_states):
            raise ValueError("initial/final state out of range")
        for src, label, dst in self.transitions:
            if not (0 <= src < n_states and 0 <= dst < n_states):
                raise ValueError(f"transition endpoint out of range: {(src, label, dst)}")
            if isinstance(label, frozenset):
                if not label:
                    raise ValueError("empty operation set; use an eps transition")
                for kind, var in label:
                    if kind not in (OP_OPEN, OP_CLOSE) or var not in self.variables:
                        raise ValueError(f"bad operation {(kind, var)}")
            elif isinstance(label, str):
                if len(label) != 1:
                    raise ValueError(f"terminal label must be one symbol: {label!r}")
            elif label is not None and label is not ANY:
                raise ValueError(f"bad label: {label!r}")

    def __repr__(self) -> str:
        return (f"VSA(vars={sorted(self.variables)}, n={self.n_states}, "
                f"init={self.initial}, final={self.final}, "
                f"{len(self.transitions)} transitions)")


class NormalForm(VSA):
    """An automaton in the shape :func:`normal_form` gives, stored as its
    moves: ``edges`` labels a letter edge with its symbol or :data:`ANY` and
    a marker move with None, and :attr:`transitions` derives a move's
    operations from ``configs``, the configuration of each state (None only
    for the canonical empty automaton).  Per state, in edge order,
    ``moves_out`` lists marker-move targets, ``sym_out`` maps a symbol to
    letter targets and ``any_out`` lists wildcard targets (built on first
    use).  The engine builds one and vouches for it: nothing checks it, and
    :func:`normal_form` and the functionality check take it as it is."""

    __slots__ = ("configs", "edges", "moves_out", "sym_out", "any_out", "_labelled")

    def __init__(self, variables: Iterable[str], n_states: int, initial: int,
                 final: int, edges: Iterable[Transition],
                 configs: list[tuple[int, ...]] | None):
        self.variables = frozenset(variables)
        self.ordered_variables = tuple(sorted(self.variables))
        self.n_states, self.initial, self.final = n_states, initial, final
        self.edges, self.configs, self._labelled = tuple(edges), configs, None

    def __getattr__(self, name: str):
        """Build the adjacency lists on first use: a product trimmed at once has none."""
        if name not in ("moves_out", "sym_out", "any_out"):
            raise AttributeError(name)
        self.moves_out = moves = [[] for _ in range(self.n_states)]
        self.sym_out = sym = [{} for _ in range(self.n_states)]
        self.any_out = anyy = [[] for _ in range(self.n_states)]
        for src, label, dst in self.edges:
            if label is None:
                moves[src].append(dst)
            elif label is ANY:
                anyy[src].append(dst)
            else:
                sym[src].setdefault(label, []).append(dst)
        return getattr(self, name)

    @property
    def transitions(self) -> tuple[Transition, ...]:
        """The edges, each marker move labelled with its operation set or None."""
        if self._labelled is None:
            configs, ordered = self.configs, self.ordered_variables
            labels = {pair: _marker_set(*pair, ordered) or None
                      for pair in {(configs[src], configs[dst])
                                   for src, label, dst in self.edges if label is None}}
            self._labelled = tuple(
                (src, labels[configs[src], configs[dst]] if label is None else label, dst)
                for src, label, dst in self.edges)
        return self._labelled


def empty_vsa(variables: Iterable[str]) -> NormalForm:
    """The canonical automaton with an empty ref-word language."""
    return NormalForm(variables, 2, 0, 1, (), None)


def _reach(start: int, succ) -> set[int]:
    """States reachable from ``start`` along ``succ``, ``start`` included."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in succ[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# Trimming
# ---------------------------------------------------------------------------


def trim(vsa: VSA) -> VSA:
    """Restrict to states that lie on some initial→final path.

    If the initial or final state would die, the language is empty and the
    canonical empty automaton (over the same variables) is returned.  A
    :class:`NormalForm` stays one, with the configurations of its kept states.
    """
    normal = isinstance(vsa, NormalForm)
    edges = vsa.edges if normal else vsa.transitions
    forward = [[] for _ in range(vsa.n_states)]
    backward = [[] for _ in range(vsa.n_states)]
    for src, _, dst in edges:
        forward[src].append(dst)
        backward[dst].append(src)
    alive = _reach(vsa.initial, forward) & _reach(vsa.final, backward)
    if vsa.initial not in alive or vsa.final not in alive:
        return empty_vsa(vsa.variables)
    if len(alive) == vsa.n_states:
        return vsa
    kept = [state for state in range(vsa.n_states) if state in alive]
    remap = {state: i for i, state in enumerate(kept)}
    edges = [(remap[src], label, remap[dst]) for src, label, dst in edges
             if src in alive and dst in alive]
    shape = (vsa.variables, len(kept), remap[vsa.initial], remap[vsa.final], edges)
    if normal:
        return NormalForm(*shape, [vsa.configs[state] for state in kept])
    return VSA(*shape)


# ---------------------------------------------------------------------------
# Configurations and functionality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """Why an automaton is not functional, and the variable at fault."""

    reason: str
    variable: str | None = None


@dataclass(frozen=True)
class FunctionalityReport:
    ok: bool
    violation: Violation | None = None

    def __bool__(self) -> bool:
        return self.ok


class NotFunctionalError(ValueError):
    """Raised on a formula or automaton that is not functional."""

    def __init__(self, violation: Violation):
        detail = violation.reason
        if violation.variable is not None:
            detail += f" (variable {violation.variable!r})"
        super().__init__("not functional: " + detail)
        self.violation = violation


class NotFunctionalAutomaton(NotFunctionalError):
    """The check's own error, which also names the state at fault."""

    def __init__(self, reason: str, state: int | None = None,
                 variable: str | None = None):
        super().__init__(Violation(reason, variable))
        self.reason = reason
        self.state = state
        self.variable = variable


def apply_ops(config: tuple[int, ...], ops: Ops, var_index: dict[str, int],
              state: int | None = None) -> tuple[int, ...]:
    """Apply an operation set to a configuration; opens act before closes so
    a set containing both markers of a variable steps it straight w→c."""
    out = list(config)
    opens = [var for kind, var in ops if kind == OP_OPEN]
    closes = [var for kind, var in ops if kind == OP_CLOSE]
    for var in opens:
        i = var_index[var]
        if out[i] != WAITING:
            raise NotFunctionalAutomaton("variable opened twice", state, var)
        out[i] = OPEN
    for var in closes:
        i = var_index[var]
        if out[i] != OPEN:
            raise NotFunctionalAutomaton("variable closed while not open", state, var)
        out[i] = CLOSED
    return tuple(out)


def _search_configs(vsa: VSA, out_edges: list[list], live) -> list:
    """The configuration of each state reached from the initial one along
    ``out_edges`` (each state's ``(label, dst)`` pairs in transition order)
    through ``live`` states, None elsewhere.  Raises
    :class:`NotFunctionalAutomaton` if two paths disagree on some state's
    configuration, or an operation is applied out of order."""
    ordered = vsa.ordered_variables
    var_index = {var: i for i, var in enumerate(ordered)}
    configs: list[tuple[int, ...] | None] = [None] * vsa.n_states
    configs[vsa.initial] = (WAITING,) * len(ordered)
    queue = deque([vsa.initial])
    while queue:
        state = queue.popleft()
        config = configs[state]
        for label, dst in out_edges[state]:
            if dst not in live:
                continue
            if isinstance(label, frozenset):
                target = apply_ops(config, label, var_index, state)
            else:
                target = config
            if configs[dst] is None:
                configs[dst] = target
                queue.append(dst)
            elif configs[dst] != target:
                bad = next(ordered[i] for i in range(len(ordered))
                           if configs[dst][i] != target[i])
                raise NotFunctionalAutomaton("conflicting configurations", dst, bad)
    return configs


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


def _marker_set(before: tuple[int, ...], after: tuple[int, ...],
                ordered: tuple[str, ...]) -> Ops:
    """The operations that advance configuration ``before`` to ``after``."""
    steps = list(zip(ordered, before, after))
    return frozenset([(OP_OPEN, var) for var, was, now in steps if was == WAITING != now]
                     + [(OP_CLOSE, var) for var, was, now in steps if was != CLOSED == now])


def normal_form(vsa: VSA) -> NormalForm:
    """The ε-free ("extended") form of a functional automaton, with its
    state configurations; a :class:`NormalForm` is returned as it is.

    States: the initial state, the final state, one *source copy* of each
    state with a letter edge and one *target copy* of each letter-edge
    target (a state can be both).  Letter edges run from source to target
    copies.  Every other edge is one marker move: from the initial state or
    a target copy to a source copy or the final state, which performs the
    operations between the two configurations (none for an ε-move).  So a
    run alternates one marker move and one letter, and the form has at most
    ``2n + 2`` states.  The letters come first, in transition order, then
    the moves of the initial state and of each target copy, in the order of
    the states they reach.  The canonical empty automaton stands for an
    empty language.  Only states on an initial→final path count: one search
    through them finds the configurations, and no trimmed copy is built.

    It checks functionality: it raises :class:`NotFunctionalAutomaton` on
    conflicting configurations or on a variable left unclosed at the final
    state, naming the variable.
    """
    if isinstance(vsa, NormalForm):
        return vsa
    out_edges: list[list] = [[] for _ in range(vsa.n_states)]
    into: list[list[int]] = [[] for _ in range(vsa.n_states)]
    markers: list[list[int]] = [[] for _ in range(vsa.n_states)]
    letters = []
    for edge in vsa.transitions:
        src, label, dst = edge
        out_edges[src].append((label, dst))
        into[dst].append(src)
        if label is ANY or isinstance(label, str):
            letters.append(edge)
        else:
            markers[src].append(dst)  # a dead state it enters ends no move
    live = _reach(vsa.final, into)
    if vsa.initial not in live:
        return empty_vsa(vsa.variables)
    configs = _search_configs(vsa, out_edges, live)
    for var, state in zip(vsa.ordered_variables, configs[vsa.final]):
        if state != CLOSED:
            raise NotFunctionalAutomaton("variable not closed at the final state",
                                         vsa.final, var)
    letters = [(src, label, dst) for src, label, dst in letters
               if configs[src] is not None and dst in live]
    sources = sorted({src for src, _, _ in letters})
    targets = sorted({dst for _, _, dst in letters})
    source_id = {state: 2 + i for i, state in enumerate(sources)}
    target_id = {state: 2 + len(sources) + i for i, state in enumerate(targets)}
    edges = [(source_id[src], label, target_id[dst]) for src, label, dst in letters]
    for here, start in [(0, vsa.initial)] + [(target_id[t], t) for t in targets]:
        for state in sorted(_reach(start, markers)):
            if state in source_id:
                edges.append((here, None, source_id[state]))
            if state == vsa.final:
                edges.append((here, None, 1))
    form_configs = ([configs[vsa.initial], configs[vsa.final]]
                    + [configs[state] for state in sources + targets])
    return NormalForm(vsa.variables, len(form_configs), 0, 1, edges, form_configs)


def cached_step(form: NormalForm) -> Callable[[int, object], frozenset[int]]:
    """The step of a normal form, memoized per (state, symbol): from a
    source copy, read ``symbol`` over a concrete or wildcard edge, then take
    that target's marker moves.  The symbol :data:`ANY` follows wildcard
    edges only."""
    cache: dict[tuple[int, object], frozenset[int]] = {}

    def step(state: int, symbol) -> frozenset[int]:
        key = (state, symbol)
        hit = cache.get(key)
        if hit is None:
            dsts = form.sym_out[state].get(symbol, []) + form.any_out[state]
            hit = frozenset().union(*(form.moves_out[dst] for dst in dsts))
            cache[key] = hit
        return hit

    return step


# ---------------------------------------------------------------------------
# Text dump format
# ---------------------------------------------------------------------------
#
#   vsa v=<name,name,...> n=<states>
#   init <q>
#   final <q>
#   <from> <label> <to>      with label: eps | sym:<symbol> | any | ops:[...]
#
# Operation lists use ⊢x for open and ⊣x for close, opens first, each group
# sorted by variable name.  A backslash or non-printable symbol is written
# as its Python escape (\\, \n, \x0c, \u2028, ...), so every symbol stays
# on its line.

_OPEN_MARK = "⊢"
_SYMBOL_ESCAPE = re.compile(r"\\(?:[\\tnr]|x[0-9a-f]{2}|u[0-9a-f]{4}|U[0-9a-f]{8})")
_CLOSE_MARK = "⊣"


def _ops_label(ops: Ops) -> str:
    opens = sorted(var for kind, var in ops if kind == OP_OPEN)
    closes = sorted(var for kind, var in ops if kind == OP_CLOSE)
    parts = [_OPEN_MARK + var for var in opens] + [_CLOSE_MARK + var for var in closes]
    return "ops:[" + ",".join(parts) + "]"


def _label_sort_key(label) -> tuple:
    if label is None:
        return (0, "")
    if isinstance(label, str):
        return (1, label)
    if label is ANY:
        return (2, "")
    return (3, _ops_label(label))


def dump_vsa(vsa: VSA) -> str:
    lines = [f"vsa v={','.join(vsa.ordered_variables)} n={vsa.n_states}",
             f"init {vsa.initial}",
             f"final {vsa.final}"]
    for src, label, dst in sorted(
            vsa.transitions, key=lambda t: (t[0], _label_sort_key(t[1]), t[2])):
        if label is None:
            text = "eps"
        elif label is ANY:
            text = "any"
        elif isinstance(label, str):
            text = "sym:" + (label if label.isprintable() and label != "\\"
                             else label.encode("unicode_escape").decode("ascii"))
        else:
            text = _ops_label(label)
        lines.append(f"{src} {text} {dst}")
    return "\n".join(lines) + "\n"


class VsaFormatError(ValueError):
    pass


def _parse_label(text: str):
    if text == "eps":
        return None
    if text == "any":
        return ANY
    if text.startswith("sym:"):
        symbol = text[4:]
        if len(symbol) == 1:
            return symbol
        if not _SYMBOL_ESCAPE.fullmatch(symbol):
            raise ValueError(f"bad symbol label: {text!r}")
        return symbol.encode("ascii").decode("unicode_escape")
    if text.startswith("ops:[") and text.endswith("]"):
        ops = set()
        for item in text[5:-1].split(",") if text[5:-1] else []:
            if item[:1] not in (_OPEN_MARK, _CLOSE_MARK):
                raise ValueError(f"bad operation: {item!r}")
            ops.add((OP_OPEN if item[0] == _OPEN_MARK else OP_CLOSE, item[1:]))
        return frozenset(ops)
    raise ValueError(f"bad label: {text!r}")


def load_vsa(text: str) -> VSA:
    """Parse :func:`dump_vsa` output; any malformed input raises
    :class:`VsaFormatError`."""
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines or not lines[0].startswith("vsa "):
        raise VsaFormatError("missing 'vsa' header")
    fields = dict(part.split("=", 1) for part in lines[0].split()[1:] if "=" in part)
    if "n" not in fields or "v" not in fields:
        raise VsaFormatError("header needs v=<vars> and n=<states>")
    ends: dict[str, int] = {}
    transitions = []
    for line in lines[1:]:
        try:
            if line.startswith(("init ", "final ")):
                kind, state = line.split()
                ends[kind] = int(state)
                continue
            src, rest = line.split(" ", 1)
            label, dst = rest.rsplit(" ", 1)
            transitions.append((int(src), _parse_label(label), int(dst)))
        except ValueError as err:
            raise VsaFormatError(f"{err} (in line {line!r})") from None
    if len(ends) < 2:
        raise VsaFormatError("missing init/final lines")
    try:
        return VSA([v for v in fields["v"].split(",") if v], int(fields["n"]),
                   ends["init"], ends["final"], transitions)
    except ValueError as err:
        raise VsaFormatError(str(err)) from None

"""Core data model: documents, spans, span tuples, variable states.

A *document* is a plain string; positions are 1-based.  A *span* ``(i, j)``
with ``1 <= i <= j <= len(doc) + 1`` selects the half-open slice between
positions ``i`` and ``j`` (so ``(i, i)`` is the empty span sitting in front of
position ``i``, and ``(1, len(doc) + 1)`` covers the whole document).

A *span tuple* assigns a span to every variable of a fixed variable set.

Each variable has an open and a close marker.  Automaton edges carry sets of
these markers, and the scan of a document tracks each variable's state
(waiting, open, closed) between symbols, which the helpers at the end of
this module turn back into span tuples.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

# ---------------------------------------------------------------------------
# Variable states
# ---------------------------------------------------------------------------

# The life cycle of a capture variable while scanning a document: it waits,
# is opened once, and is closed once.  Kept as small ints so that state
# sequences order and compare fast; WAITING < OPEN < CLOSED is the canonical
# order used by the enumerator.
WAITING = 0
OPEN = 1
CLOSED = 2

# Variable operations, as they appear on automaton transitions and inside
# ref-words: ("open", x) marks the start of x's span, ("close", x) its end.
OP_OPEN = "open"
OP_CLOSE = "close"


def open_op(var: str) -> tuple[str, str]:
    return (OP_OPEN, var)


def close_op(var: str) -> tuple[str, str]:
    return (OP_CLOSE, var)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Span(NamedTuple):
    """Half-open 1-based span ``(begin, end)`` with ``begin <= end``."""

    begin: int
    end: int

    def __str__(self) -> str:
        return f"{self.begin}..{self.end}"


def span_text(doc: str, span: Span) -> str:
    """The substring of ``doc`` selected by ``span`` (empty for ``(i, i)``)."""
    return doc[span.begin - 1 : span.end - 1]


def all_spans(doc_len: int) -> Iterator[Span]:
    """All spans of a document of the given length, (l+1)(l+2)/2 of them."""
    for begin in range(1, doc_len + 2):
        for end in range(begin, doc_len + 2):
            yield Span(begin, end)


# ---------------------------------------------------------------------------
# Span tuples
# ---------------------------------------------------------------------------


class SpanTuple:
    """An immutable assignment from variable names to spans.

    The values must be :class:`Span` objects; they are kept as given.
    Hashable and comparable so result sets behave like relations; ordering is
    by the (variable, span) items sorted by variable name.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, assignment: dict[str, Span] | Iterable[tuple[str, Span]]):
        if isinstance(assignment, dict):
            assignment = assignment.items()
        self._items: tuple[tuple[str, Span], ...] = tuple(sorted(assignment))
        self._hash = hash(self._items)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(var for var, _ in self._items)

    def items(self) -> tuple[tuple[str, Span], ...]:
        return self._items

    def as_dict(self) -> dict[str, Span]:
        return dict(self._items)

    def __getitem__(self, var: str) -> Span:
        for name, span in self._items:
            if name == var:
                return span
        raise KeyError(var)

    def __contains__(self, var: str) -> bool:
        return any(name == var for name, _ in self._items)

    def restrict(self, variables: Iterable[str]) -> "SpanTuple":
        keep = set(variables)
        return SpanTuple([(v, s) for v, s in self._items if v in keep])

    def merge(self, other: "SpanTuple") -> "SpanTuple":
        """Union of two tuples; overlapping variables must agree."""
        combined = dict(self._items)
        for var, span in other.items():
            if var in combined and combined[var] != span:
                raise ValueError(f"conflicting span for variable {var!r}")
            combined[var] = span
        return SpanTuple(combined)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SpanTuple) and self._items == other._items

    def __lt__(self, other: "SpanTuple") -> bool:
        return self._items < other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={s}" for v, s in self._items)
        return f"SpanTuple({inner})"


EMPTY_TUPLE = SpanTuple({})


# ---------------------------------------------------------------------------
# Variable state sequences <-> span tuples
# ---------------------------------------------------------------------------
#
# Scanning a document of length l, the situation of a variable just before
# reading symbol number p (p = 1..l+1, the last "position" sits after the
# final symbol) is WAITING, OPEN or CLOSED.  A span tuple corresponds to
# exactly one such state sequence per variable, and vice versa — this
# bijection is what makes span tuples enumerable as strings.


def state_sequence_to_tuple(
    seq: list[tuple[int, ...]], variables: Iterable[str]
) -> SpanTuple:
    """The span tuple of a per-position state sequence.

    ``seq[p-1]`` holds the states before reading symbol p; a variable's span
    begins at the first position where it is no longer WAITING and ends at
    the first position where it is CLOSED.
    """
    ordered = sorted(variables)
    assignment = {}
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
        assignment[var] = Span(begin, end)
    return SpanTuple(assignment)

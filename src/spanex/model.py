"""Core data model: documents, spans, span tuples, variable states.

A *document* is a plain string; positions are 1-based.  A *span* ``(i, j)``
with ``1 <= i <= j <= len(doc) + 1`` selects the half-open slice between
positions ``i`` and ``j`` (so ``(i, i)`` is the empty span sitting in front of
position ``i``, and ``(1, len(doc) + 1)`` covers the whole document).

A *span tuple* assigns a span to every variable of a fixed variable set.

Each variable has an open and a close marker.  Automaton edges carry sets of
these markers, and the scan of a document tracks each variable's state
(waiting, open, closed) between symbols.
"""

from __future__ import annotations

from operator import itemgetter
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

    The values are pairs ``(begin, end)``, :class:`Span` objects or plain
    tuples, and each name may occur once.  A tuple is stored as the
    variable names in order and one flat tuple of their bounds in the same
    order, ``(begin₁, end₁, begin₂, end₂, …)``; a value is read back as a
    :class:`Span` equal to the one given, made on access.  The enumerator
    hands every tuple of one stream the same names tuple.  Hashable, by the
    bounds (equal tuples have equal bounds), so result sets behave like
    relations.  Tuples are not ordered: the enumerator's order is
    :func:`spanex.enumerator.enumeration_key`.
    """

    __slots__ = ("_names", "_bounds")

    def __init__(self, assignment: dict[str, Span] | Iterable[tuple[str, Span]]):
        if isinstance(assignment, dict):
            assignment = assignment.items()
        items = sorted(assignment, key=itemgetter(0))
        names = tuple([var for var, _ in items])
        if len(set(names)) < len(names):
            raise ValueError(f"repeated variable name in {names}")
        self._names: tuple[str, ...] = names
        self._bounds: tuple[int, ...] = tuple([
            bound for _, (begin, end) in items for bound in (begin, end)])

    @classmethod
    def _ordered(cls, names: tuple[str, ...], bounds: tuple[int, ...]) -> "SpanTuple":
        """The tuple of ``names``, already in order, and their flat
        ``bounds``; both are kept as given."""
        self = object.__new__(cls)
        self._names = names
        self._bounds = bounds
        return self

    @property
    def variables(self) -> tuple[str, ...]:
        return self._names

    def items(self) -> tuple[tuple[str, Span], ...]:
        bounds = self._bounds
        return tuple(zip(self._names, map(Span, bounds[::2], bounds[1::2])))

    def as_dict(self) -> dict[str, Span]:
        return dict(self.items())

    def __getitem__(self, var: str) -> Span:
        try:
            i = 2 * self._names.index(var)
        except ValueError:
            raise KeyError(var) from None
        return Span(self._bounds[i], self._bounds[i + 1])

    def __contains__(self, var: str) -> bool:
        return var in self._names

    def restrict(self, variables: Iterable[str]) -> "SpanTuple":
        keep = set(variables)
        kept = [i for i, var in enumerate(self._names) if var in keep]
        bounds = self._bounds
        return SpanTuple._ordered(tuple([self._names[i] for i in kept]),
                                  tuple([b for i in kept for b in bounds[2 * i:2 * i + 2]]))

    def merge(self, other: "SpanTuple") -> "SpanTuple":
        """Union of two tuples; overlapping variables must agree."""
        combined = dict(zip(self._names, zip(self._bounds[::2], self._bounds[1::2])))
        for var, span in zip(other._names, zip(other._bounds[::2], other._bounds[1::2])):
            if combined.setdefault(var, span) != span:
                raise ValueError(f"conflicting span for variable {var!r}")
        return SpanTuple(combined)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanTuple):
            return NotImplemented
        return self._bounds == other._bounds and self._names == other._names

    def __hash__(self) -> int:
        return hash(self._bounds)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={s}" for v, s in self.items())
        return f"SpanTuple({inner})"


EMPTY_TUPLE = SpanTuple._ordered((), ())

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

    # a span tuple is a tuple too, which the tuple base would compare by its
    # items: the span tuple decides
    def __eq__(self, other: object) -> bool:
        return NotImplemented if isinstance(other, SpanTuple) else tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return NotImplemented if isinstance(other, SpanTuple) else tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


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


_item = tuple.__getitem__


def bounds_of(row: "SpanTuple") -> tuple[int, ...]:
    """The row's flat bounds ``(begin₁, end₁, begin₂, end₂, …)``, in name
    order, as a plain tuple."""
    return _item(row, slice(None))


def _pairs(row: "SpanTuple") -> Iterator[tuple[str, tuple[int, int]]]:
    """The row's variables, each with its ``(begin, end)``."""
    return zip(row.variables, zip(_item(row, slice(0, None, 2)), _item(row, slice(1, None, 2))))


class SpanTuple(tuple):
    """An immutable assignment from variable names to spans.

    The values are pairs ``(begin, end)``, :class:`Span` objects or plain
    tuples, and each name may occur once.  A row is a ``tuple`` whose items
    are its flat bounds in name order, ``(begin₁, end₁, begin₂, end₂, …)``,
    so ``isinstance(row, tuple)`` holds and a row is one object for the
    cyclic collector.  The names sit on the row's type, ``variables``: one
    subclass per names tuple, made once (:func:`row_type`), as
    :func:`collections.namedtuple` does.  A value is read back as a
    :class:`Span` equal to the one given, made on access.

    Apart from that a row is not a sequence: ``len`` and iteration raise
    ``TypeError``, and ``row[name]`` reads a variable's span.  Hashable by
    its bounds (equal rows have equal bounds and one type), so result sets
    behave like relations; a row never equals a tuple that is not a row of
    the same names, its bounds' plain tuple included.  Rows are not
    ordered: the enumerator's order is
    :func:`spanex.enumerator.enumeration_key`.
    """

    __slots__ = ()
    variables: tuple[str, ...] = ()

    def __new__(cls, assignment: dict[str, Span] | Iterable[tuple[str, Span]]):
        if isinstance(assignment, dict):
            assignment = assignment.items()
        items = sorted(assignment, key=itemgetter(0))
        names = tuple([var for var, _ in items])
        if len(set(names)) < len(names):
            raise ValueError(f"repeated variable name in {names}")
        return SpanTuple._ordered(
            names, [bound for _, (begin, end) in items for bound in (begin, end)])

    @staticmethod
    def _ordered(names: tuple[str, ...], bounds: Iterable[int]) -> "SpanTuple":
        """The row of ``names``, already in order, and their flat
        ``bounds``."""
        return tuple.__new__(row_type(names), bounds)

    def items(self) -> tuple[tuple[str, Span], ...]:
        return tuple([(var, Span(begin, end)) for var, (begin, end) in _pairs(self)])

    def as_dict(self) -> dict[str, Span]:
        return dict(self.items())

    def __getitem__(self, var: str) -> Span:
        try:
            i = 2 * self.variables.index(var)
        except ValueError:
            raise KeyError(var) from None
        return Span(_item(self, i), _item(self, i + 1))

    def __contains__(self, var: str) -> bool:
        return var in self.variables

    def restrict(self, variables: Iterable[str]) -> "SpanTuple":
        keep = set(variables)
        kept = [i for i, var in enumerate(self.variables) if var in keep]
        return SpanTuple._ordered(tuple([self.variables[i] for i in kept]),
                                  [b for i in kept for b in _item(self, slice(2 * i, 2 * i + 2))])

    def merge(self, other: "SpanTuple") -> "SpanTuple":
        """Union of two tuples; overlapping variables must agree."""
        combined = dict(_pairs(self))
        for var, span in _pairs(other):
            if combined.setdefault(var, span) != span:
                raise ValueError(f"conflicting span for variable {var!r}")
        return SpanTuple(combined)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        # the tuple base would compare a plain tuple by its items
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        if type(other) is type(self):
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__

    def _unordered(self, other: object):
        raise TypeError("span tuples are not ordered; sort by spanex.enumerator.enumeration_key")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __len__(self):
        raise TypeError("a span tuple has no length; see its variables")

    def __iter__(self):
        raise TypeError("a span tuple is not iterable; see its items()")

    def __bool__(self) -> bool:
        return True

    def __reduce__(self):
        # a row's type is made at run time, so it is rebuilt from its names
        return SpanTuple._ordered, (self.variables, bounds_of(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={s}" for v, s in self.items())
        return f"SpanTuple({inner})"


_ROW_TYPES: dict[tuple[str, ...], type[SpanTuple]] = {}


def row_type(names: tuple[str, ...]) -> type[SpanTuple]:
    """The row type of the variable names ``names``, in name order: one
    subclass of :class:`SpanTuple` per names tuple, made on first use."""
    cls = _ROW_TYPES.get(names)
    if cls is None:
        cls = _ROW_TYPES.setdefault(
            names, type("SpanTuple", (SpanTuple,), {"__slots__": (), "variables": names}))
    return cls


EMPTY_TUPLE = SpanTuple._ordered((), ())

"""Regex formulas: regular expressions extended with capture-variable bindings.

The abstract syntax is the usual regex algebra (empty language, empty string,
single symbol, any-symbol wildcard, alternation, concatenation, star) plus a
binding form ``x{inner}`` that wraps whatever ``inner`` matches in the open
and close markers of variable ``x``.  A formula therefore describes a set of
ref-words, strings over the document symbols and the variables' markers;
applied to a document it yields the span tuples of all its ref-words whose
marker-free projection equals the document.

A formula is *functional* when every ref-word it generates opens and closes
every variable of the formula exactly once — only those formulas denote
total span tuples.  This module is syntax only: the compiler decides
functionality on the tree, once ∅ is pruned, and names the reason
(:func:`spanex.compiler.check_functional`).

Concrete syntax (used by ``parse_formula`` and the ``.spq`` query files):

* juxtaposition concatenates, ``|`` (or ``∨``) alternates, ``*``/``+`` are
  postfix repetition, parentheses group;
* ``name{...}`` binds variable ``name`` (``[A-Za-z0-9_]+`` directly followed
  by ``{``);
* ``.`` or ``Σ`` match any single symbol, ``ε`` matches the empty string,
  ``∅`` matches nothing;
* a backslash escapes any character (needed for ``{ } ( ) | * + . \\`` and
  for a literal space — unescaped whitespace is ignored).
"""

from __future__ import annotations

from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Empty(Formula):
    """Matches nothing at all."""


@dataclass(frozen=True)
class Epsilon(Formula):
    """Matches the empty string."""


@dataclass(frozen=True)
class Sym(Formula):
    char: str


@dataclass(frozen=True)
class Any(Formula):
    """Matches any single document symbol (never a variable marker)."""


@dataclass(frozen=True)
class Alt(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Cat(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Star(Formula):
    inner: Formula


@dataclass(frozen=True)
class Bind(Formula):
    var: str
    inner: Formula


def formula_nodes(formula: Formula) -> list[Formula]:
    """Every node of the formula, each before its children (breadth first),
    without recursion."""
    nodes = [formula]
    for node in nodes:  # the list grows while it is read
        kind = type(node)
        if kind is Cat or kind is Alt:
            nodes += node.left, node.right
        elif kind is Star or kind is Bind:
            nodes.append(node.inner)
    return nodes


def formula_variables(formula: Formula) -> frozenset[str]:
    """All variable names occurring syntactically in the formula."""
    return frozenset([node.var for node in formula_nodes(formula) if type(node) is Bind])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_SPECIALS = set("{}()|*+.\\") | {"∨", "Σ", "ε", "∅"}
_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")
_PUNCTUATION = {"|": ("alt",), "∨": ("alt",), "*": ("star",), "+": ("plus",),
                "(": ("lparen",), ")": ("rparen",), ".": ("any",), "Σ": ("any",),
                "ε": ("eps",), "∅": ("empty",), "}": ("rbrace",)}


class FormulaSyntaxError(ValueError):
    pass


def _tokenize(text: str) -> list[tuple]:
    tokens: list[tuple] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\":
            if i + 1 >= n:
                raise FormulaSyntaxError("dangling backslash")
            tokens.append(("sym", text[i + 1]))
            i += 2
            continue
        if ch.isspace():
            i += 1
            continue
        token = _PUNCTUATION.get(ch)
        if token is not None:
            tokens.append(token)
        elif ch == "{":
            raise FormulaSyntaxError("'{' must follow a variable name (or be escaped)")
        elif ch in _IDENT_CHARS:
            j = i + 1
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            if j < n and text[j] == "{":
                tokens.append(("bind", text[i:j]))
                i = j + 1
            else:
                tokens.extend(("sym", letter) for letter in text[i:j])
                i = j
            continue
        else:
            tokens.append(("sym", ch))
        i += 1
    return tokens


_ATOMS = {"any": Any(), "eps": Epsilon(), "empty": Empty()}


def _group(left: Formula | None, parts: list[Formula]) -> Formula:
    """The concatenation of ``parts``, after the alternation ``left`` when
    there is one; both associate to the left."""
    if not parts:
        raise FormulaSyntaxError("empty (sub)formula; write ε for the empty string")
    node = parts[0]
    for part in parts[1:]:
        node = Cat(node, part)
    return node if left is None else Alt(left, node)


def parse_formula(text: str) -> Formula:
    # one loop over the tokens; each open group, ``(`` or ``x{``, waits on
    # the stack with its opening token, the alternation of its finished
    # alternatives (None before the first ``|``) and the parts of the
    # alternative it is in
    opener, left, parts = None, None, []
    stack: list[tuple] = []
    for tok in _tokenize(text):
        kind = tok[0]
        if kind == "sym":
            parts.append(Sym(tok[1]))
        elif kind in _ATOMS:
            parts.append(_ATOMS[kind])
        elif kind in ("star", "plus") and parts:
            node = Star(parts[-1])
            parts[-1] = node if kind == "star" else Cat(parts[-1], node)
        elif kind in ("lparen", "bind"):
            stack.append((opener, left, parts))
            opener, left, parts = tok, None, []
        elif kind == "alt":
            left, parts = _group(left, parts), []
        elif kind in ("rparen", "rbrace"):
            node = _group(left, parts)
            if opener is None:
                raise FormulaSyntaxError(f"trailing input at token {tok}")
            if opener[0] == "lparen" and kind != "rparen":
                raise FormulaSyntaxError("expected ')'")
            if opener[0] == "bind":
                if kind != "rbrace":
                    raise FormulaSyntaxError(
                        "expected '}' closing binding of " + opener[1])
                node = Bind(opener[1], node)
            opener, left, parts = stack.pop()
            parts.append(node)
        else:
            raise FormulaSyntaxError(f"unexpected token {tok}")
    node = _group(left, parts)
    if opener is not None:
        raise FormulaSyntaxError("unexpected end of formula")
    return node


def formula_to_source(formula: Formula) -> str:
    """Render a formula back to concrete syntax; parses back to an equal tree."""

    def escape(ch: str) -> str:
        if ch in _SPECIALS or ch.isspace():
            return "\\" + ch
        return ch

    def fuses(left: str, right: str) -> bool:
        # would "<left><right>" re-tokenize the seam as one bind name?
        if not left or left[-1] not in _IDENT_CHARS:
            return False
        i = 0
        while i < len(right) and right[i] in _IDENT_CHARS:
            i += 1
        return 0 < i < len(right) and right[i] == "{"

    # precedence: alternation 0, concatenation 1, postfix 2, atoms 3; an
    # atom never needs parentheses.  An inner node is popped twice: first to
    # push itself again and then its children, each with the precedence it
    # needs; then, once they are rendered, to join them.
    atoms = {Any: ".", Epsilon: "ε", Empty: "∅"}
    done: list[str] = []  # rendered nodes, a parent's children on top
    stack: list[tuple[Formula, int, bool]] = [(formula, 0, False)]
    while stack:
        node, min_prec, ready = stack.pop()
        kind = type(node)
        if kind is Sym:
            done.append(escape(node.char))
        elif kind in atoms:
            done.append(atoms[kind])
        elif not ready:
            stack.append((node, min_prec, True))
            if kind is Cat:
                stack += ((node.right, 2, False), (node.left, 1, False))
            elif kind is Alt:
                stack += ((node.right, 1, False), (node.left, 0, False))
            elif kind is Star:
                stack.append((node.inner, 3, False))
            elif kind is Bind:
                stack.append((node.inner, 0, False))
            else:  # pragma: no cover
                raise TypeError(f"not a formula node: {node!r}")
        elif kind is Bind:
            done.append(node.var + "{" + done.pop() + "}")
        else:
            if kind is Cat:
                right = done.pop()
                left = done.pop()
                text, prec = left + (" " if fuses(left, right) else "") + right, 1
            elif kind is Alt:
                right = done.pop()
                text, prec = done.pop() + "|" + right, 0
            else:  # Star
                text, prec = done.pop() + "*", 2
            done.append("(" + text + ")" if prec < min_prec else text)
    return done.pop()

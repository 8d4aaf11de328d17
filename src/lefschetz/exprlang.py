"""Text expression language for the variety catalog.

Grammar, with '+' for disjoint union and '*' for product, '*' binding
tighter, both left-associative::

    expr  := atom (op atom)*                 op: '+' or '*'
    atom  := '(' expr ')' | constructor
    constructor :=
        'point'
      | 'P' '(' INT ')'                      projective space
      | 'Q' '(' INT ')'                      smooth quadric
      | 'Gr' '(' INT ',' INT ')'             Grassmannian
      | 'toric' '[' INT (',' INT)* ']'       cone counts by dimension
      | 'blowup' '(' expr ';' expr ';' INT ')'
      | 'projbundle' '(' expr ';' INT ')'
      | 'M0' '(' INT ')'                     genus-zero moduli
      | 'fano' '(' INT ';' flag ')'
    flag  := ('odd_trivial' '=')? ('true' | 'false')

INT is a run of ASCII digits 0-9, at most ``MAX_INT_DIGITS`` (100) of
them; a longer run is a syntax error at its first digit.  The tokenizer
checks the run itself, to report that offset, against the cap that
``tate.integer`` reads too.  This module holds no table of constructors
or operators: each node class in ``varieties``
carries its ``syntax``, its head, its canonical text template with one
``%s`` per field and, for an operator, its binding.  The punctuation the
tokenizer accepts is read off those heads and templates.  ``_CONSTRUCTORS``
and ``_OPERATORS``, built once from ``varieties._KINDS``, map each head to
its class and its steps after the head: a punctuation character to expect,
or a field of the class's ``_fields`` to read by its type (an expression, an
INT, a list of INTs, or a flag written ``name=true`` or ``name=false``).
After an operator's head comes its right operand.  There is no branch per
constructor or operator.  ``render_expr`` fills the template.

A token is a bare string, an INT if it starts with an ASCII digit and a
name if with a letter or '_', all read by one pattern, ``_TOKEN``, with
``findall``; an error reads its token's byte offset off the text.
``_parse`` is one loop on explicit stacks, Dijkstra's shunting-yard
algorithm with the templates on the stack beside the operators, so nothing
recurses.  It emits the post-order labels that pickles hold
(``varieties._labels``), which ``varieties._from_labels`` builds, as for
JSON and pickles.  The whole text is parsed before any node is built, so a
syntax error wins over a semantic one.
``render_expr`` runs ``varieties._expand`` with one step, ``_render``,
which lists a node's text with each child in its place, in parentheses
when the child binds less tightly than its place asks.

Syntax problems raise ParseError carrying the byte offset into the UTF-8
encoded input; out-of-range parameters raise SemanticError carrying the node
path (like ``$.right.center``) so a caller can point at the offending
subexpression; both are ``tate.InputError``s.  ``offset`` and ``path`` are
exact, while the message echoes a token or a path through ``tate.elided``,
so a long one keeps only its head and tail.  ``render_expr`` is the inverse
of ``parse_expr`` up to whitespace.
"""

from __future__ import annotations

import re
from itertools import islice

from .tate import INT_TOO_LONG, MAX_INT_DIGITS, InputError, elided
from .varieties import InvalidParameterError, VarietyExpr, _KINDS, _expand, _from_labels, _node


class ParseError(InputError):
    """Syntax error; ``offset`` is the byte position in the UTF-8 input."""

    def __init__(self, message: str, offset: int):
        super().__init__("syntax error at byte %d: %s" % (offset, elided(message)), offset=offset)


class SemanticError(InputError):
    """Parameter out of range; ``path`` points at the node, root is ``$``."""

    def __init__(self, message: str, path: str):
        super().__init__("semantic error at %s: %s" % (elided(path), message), path=path)


# Head -> (node class, its steps after the head: each character of the
# template but spaces, with a ``(name, type)`` field for each slot, and its
# binding), read off each class's ``syntax``; a group is a constructor with
# no node.  The tokenizer's punctuation is '=' of a flag, the grouping
# parentheses and every character of a head or template that is not a
# letter, digit, space or field slot.
_CONSTRUCTORS, _OPERATORS, _PUNCT = {"(": (None, ((None, VarietyExpr), ")"), None)}, {}, set("=()")
for _cls in _KINDS.values():
    _head, _template, _binding = _cls.syntax
    _before, _, _rest = _template.replace("%s", "%").replace(" ", "").partition(_head)
    _slots = iter(_cls._fields[len(_before):])
    _steps = tuple(next(_slots) if ch == "%" else ch for ch in _rest)
    (_CONSTRUCTORS if _binding is None else _OPERATORS)[_head] = (_cls, _steps, _binding)
    _PUNCT.update(ch for ch in _head + _rest if not (ch.isalnum() or ch == "%"))

# After any spaces, ASCII digits, ``\w`` (``str.isalnum`` or '_') or one other
# character.  A text is valid as read if ``_SUSPECT`` finds no character in
# it that is not an ASCII space, word character or punctuation, and it is
# too short to hold an INT too long.
_TOKEN = re.compile(r"\s*([0-9]+|\w+|\S)")
_SUSPECT = re.compile(r"[^\s\w%s]" % re.escape("".join(_PUNCT)), re.ASCII)


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _error(toks: list, pos: int, message: str):
    """Raise ParseError ``message`` at token ``pos``, whose byte offset is
    read off the text that ends ``toks``."""
    at = next(islice(_TOKEN.finditer(toks[-1]), pos, None), None)
    raise ParseError(message, len(toks[-1][: at.start(1) if at else None].encode("utf-8")))


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, ``""`` for the end of input, then ``text``.

    The first INT over ``MAX_INT_DIGITS`` digits, or token that starts with
    no letter, '_', ASCII digit or punctuation, raises ParseError.
    """
    toks = _TOKEN.findall(text) + ["", text]
    if len(text) > MAX_INT_DIGITS or _SUSPECT.search(text):
        for pos, tok in enumerate(toks[:-2]):
            # an INT is a token whose first character is an ASCII digit
            if not (_is_name(tok) or tok in _PUNCT or "0" <= tok < ":" and len(tok) <= MAX_INT_DIGITS):
                _error(toks, pos, INT_TOO_LONG if "0" <= tok < ":" else "unexpected character %r" % tok[0])
    return toks


def _expect(toks: list, pos: int, what: str):
    """Raise: ``toks[pos]`` is not ``what``; a punctuation token names itself."""
    _error(toks, pos, "expected %s, got %s" % (what, repr(toks[pos]) if toks[pos] else "end of input"))


def _field(toks: list, pos: int, name: str, typ: type) -> tuple:
    """``(value, position after it)`` for a field that holds no expression."""
    if typ is bool:
        # (name '=')? ('true' | 'false')
        if toks[pos] == name:
            if toks[pos + 1] != "=":
                _expect(toks, pos + 1, "'='")
            pos += 2
        elif not _is_name(toks[pos]):
            _expect(toks, pos, "%r or a boolean" % name)
        if toks[pos] not in ("true", "false"):
            _expect(toks, pos, "'true' or 'false'")
        return toks[pos] == "true", pos + 1
    # an int is one INT, a tuple INT (',' INT)*
    counts = []
    while True:
        if not "0" <= toks[pos] < ":":
            _expect(toks, pos, "an integer")
        counts.append(int(toks[pos]))
        if typ is not tuple or toks[pos + 1] != ",":
            return (tuple(counts) if typ is tuple else counts[0]), pos + 1
        pos += 2


def _parse(toks: list[str]) -> list:
    """The ``varieties._labels`` of the expression that ``toks`` spell.

    One loop reads an operand, a constructor or a group, and follows its
    steps; a group's are an expression field and ')'.  At an expression
    field the template waits on ``waiting`` with the least binding that an
    operator needs to take the operand read there as its left one: 1, any
    operator, in a constructor's field or a group, and one more than its
    own in an operator's right operand, so both operators associate to the
    left.  After an operand, an operator that may take it starts its own
    steps; any other token ends the operand of the field that waits last,
    and that template goes on.  The whole text waits at the bottom, as None.
    """
    out = []
    waiting = [(1, None)]
    pos = 0
    while True:
        entry = _CONSTRUCTORS.get(toks[pos])
        if entry is None:
            # neither a group nor a constructor
            if not _is_name(toks[pos]):
                _expect(toks, pos, "an expression")
            _error(toks, pos, "unknown constructor %r" % toks[pos])
        frame = (entry[0], iter(entry[1]), [], 1)
        pos += 1
        while frame:
            cls, steps, items, floor = frame
            for step in steps:
                if step.__class__ is str:
                    if toks[pos] != step:
                        _expect(toks, pos, repr(step))
                    pos += 1
                    continue
                name, typ = step
                if typ is VarietyExpr:
                    items.append((name, typ, None))
                    waiting.append((floor, frame))
                    frame = None
                    break
                if typ is int and "0" <= toks[pos] < ":":  # an INT; else ``_field`` raises
                    items.append((name, typ, int(toks[pos])))
                    pos += 1
                    continue
                value, pos = _field(toks, pos, name, typ)
                items.append((name, typ, value))
            else:
                if cls is not None:
                    out.append((cls, *items))
                tok = toks[pos]
                if tok in _OPERATORS and _OPERATORS[tok][2] >= waiting[-1][0]:
                    # the operand read last is the operator's left one
                    cls, steps, binding = _OPERATORS[tok]
                    frame = (cls, iter(steps), [(*cls._fields[0], None)], binding + 1)
                    pos += 1
                    continue
                frame = waiting.pop()[1]
                if frame is None:
                    if tok:
                        _error(toks, pos, "unexpected trailing input %r" % tok)
                    return out


def parse_expr(text: str) -> VarietyExpr:
    """Parse a catalog expression (grammar above); a non-``str`` raises TypeError."""
    if not isinstance(text, str):
        raise TypeError("expression text must be a str, not %r" % type(text).__name__)
    try:
        return _from_labels(_parse(_tokenize(text)))
    except InvalidParameterError as exc:
        raise SemanticError(str(exc), exc.path) from exc


def _render(e: VarietyExpr, need: int) -> list:
    """Expansion step: the template of ``e`` with a piece in each slot.

    A child goes in as ``(child, need)``: an operator asks its left operand
    to bind at least as tightly as itself and its right operand more
    tightly, since both operators are left-associative, and a constructor's
    own delimiters ask nothing.  ``e`` is in parentheses when it binds less
    tightly than its parent asks.  Every node is a catalog entry, so its
    class has a ``syntax``; ``render_expr`` refuses a root that is no node.
    """
    _, template, strength = e.syntax
    literals = template.split("%s")
    pieces = ["(" if strength is not None and strength < need else "", literals[0]]
    for i, (name, typ) in enumerate(e._fields):
        value = getattr(e, name)
        if typ is VarietyExpr:
            value = (value, 0 if strength is None else strength + i)
        elif typ is bool:
            value = "%s=%s" % (name, "true" if value else "false")
        elif typ is tuple:
            value = ",".join(str(c) for c in value)
        else:
            value = "%d" % value
        pieces += (value, literals[i + 1])
    return pieces + [")"] if pieces[0] else pieces


def render_expr(e: VarietyExpr) -> str:
    """Canonical text for an expression; ``parse_expr`` inverts it exactly."""
    return _expand(_node(e), _render)

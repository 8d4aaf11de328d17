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

Tokens are plain ``(kind, text, byte offset)`` tuples.  ``_parse`` is one
loop on explicit stacks, Dijkstra's shunting-yard algorithm with the
templates on the stack beside the operators, so nothing recurses and
nesting is bounded by memory alone, which grows linearly with the text.
It emits the flat post-order labels that pickles hold
(``varieties._labels``), and ``varieties._from_labels`` builds the tree
from them, as it does for JSON and pickles.  The whole text is parsed
before any node is built, so a syntax error wins over a semantic one.
``render_expr`` runs ``varieties._expand`` with one step, ``_render``,
which lists a node's text with each child in its place, in parentheses
when the child binds less tightly than its place asks.

Syntax problems raise ParseError carrying the byte offset into the UTF-8
encoded input; out-of-range parameters raise SemanticError carrying the node
path (like ``$.right.center``) so a caller can point at the offending
subexpression; both are ``tate.InputError``s.  ``render_expr`` is the
inverse of ``parse_expr`` up to whitespace.
"""

from __future__ import annotations

from .tate import INT_TOO_LONG, MAX_INT_DIGITS, InputError
from .varieties import InvalidParameterError, VarietyExpr, _KINDS, _expand, _from_labels, _node


class ParseError(InputError):
    """Syntax error; ``offset`` is the byte position in the UTF-8 input."""

    def __init__(self, message: str, offset: int):
        super().__init__("syntax error at byte %d: %s" % (offset, message), offset=offset)


class SemanticError(InputError):
    """Parameter out of range; ``path`` points at the node, root is ``$``."""

    def __init__(self, message: str, path: str):
        super().__init__("semantic error at %s: %s" % (path, message), path=path)


# Head -> (node class, its steps after the head: each character of the
# template but spaces, with a ``(name, type)`` field for each slot), read
# off each class's ``syntax``.  The tokenizer's punctuation is '=' of a
# flag, the grouping parentheses and every character of a head or template
# that is not a letter, digit, space or field slot.
_CONSTRUCTORS, _OPERATORS, _PUNCT = {}, {}, set("=()")
for _cls in _KINDS.values():
    _head, _template, _binding = _cls.syntax
    _before, _, _rest = _template.replace("%s", "%").replace(" ", "").partition(_head)
    _slots = iter(_cls._fields[len(_before):])
    _steps = tuple(next(_slots) if ch == "%" else ch for ch in _rest)
    (_CONSTRUCTORS if _binding is None else _OPERATORS)[_head] = (_cls, _steps)
    _PUNCT.update(ch for ch in _head + _rest if not (ch.isalnum() or ch == "%"))
_DIGITS = set("0123456789")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, byte offset)`` per token, ending with an ``eof`` token."""
    toks = []
    i = 0
    n = len(text)
    at = 0  # UTF-8 byte offset of text[i]
    while i < n:
        ch = text[i]
        j = i + 1
        if ch in _DIGITS:
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > MAX_INT_DIGITS:
                raise ParseError(INT_TOO_LONG, at)
            toks.append(("num", text[i:j], at))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], at))
        elif ch in _PUNCT:
            toks.append((ch, ch, at))
        elif not ch.isspace():
            raise ParseError("unexpected character %r" % ch, at)
        at += len(text[i:j].encode("utf-8"))
        i = j
    toks.append(("eof", "", at))
    return toks


def _expect(toks: list, pos: int, kind: str, what: str = "") -> int:
    """The position after ``toks[pos]``, which must be of ``kind``."""
    tok = toks[pos]
    if tok[0] != kind:
        # a punctuation token names itself in the error message
        got = repr(tok[1]) if tok[0] != "eof" else "end of input"
        raise ParseError("expected %s, got %s" % (what or "'%s'" % kind, got), tok[2])
    return pos + 1


def _field(toks: list, pos: int, name: str, typ: type) -> tuple:
    """``(value, position after it)`` for a field that holds no expression."""
    if typ is bool:
        # (name '=')? ('true' | 'false')
        pos = _expect(toks, pos, "name", "%r or a boolean" % name)
        if toks[pos - 1][1] == name:
            pos = _expect(toks, _expect(toks, pos, "="), "name", "'true' or 'false'")
        _, text, offset = toks[pos - 1]
        if text not in ("true", "false"):
            raise ParseError("expected 'true' or 'false', got %r" % text, offset)
        return text == "true", pos
    # an int is one INT, a tuple INT (',' INT)*
    pos = _expect(toks, pos, "num", "an integer")
    counts = [int(toks[pos - 1][1])]
    while typ is tuple and toks[pos][0] == ",":
        pos = _expect(toks, pos + 1, "num", "an integer")
        counts.append(int(toks[pos - 1][1]))
    return (tuple(counts) if typ is tuple else counts[0]), pos


def _parse(toks: list[tuple[str, str, int]]) -> list:
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
        kind, text, offset = toks[pos]
        if kind != "(" and (kind != "name" or text not in _CONSTRUCTORS):
            # neither a group nor a constructor: only a name gets this far
            _expect(toks, pos, "name", "an expression")
            raise ParseError("unknown constructor %r" % text, offset)
        # a group is an expression field and ')', with no node
        cls, steps = _CONSTRUCTORS.get(text, (None, ((None, VarietyExpr), ")")))
        frame = (cls, iter(steps), [], 1)
        pos += 1
        while frame:
            cls, steps, items, floor = frame
            for step in steps:
                if isinstance(step, str):
                    pos = _expect(toks, pos, step)
                    continue
                name, typ = step
                if typ is VarietyExpr:
                    items.append((name, typ, None))
                    waiting.append((floor, frame))
                    frame = None
                    break
                value, pos = _field(toks, pos, name, typ)
                items.append((name, typ, value))
            else:
                if cls is not None:
                    out.append((cls, *items))
                kind, text, offset = toks[pos]
                if kind in _OPERATORS and _OPERATORS[kind][0].syntax[2] >= waiting[-1][0]:
                    # the operand read last is the operator's left one
                    cls, steps = _OPERATORS[kind]
                    frame = (cls, iter(steps), [(*cls._fields[0], None)], cls.syntax[2] + 1)
                    pos += 1
                    continue
                frame = waiting.pop()[1]
                if frame is None:
                    if kind != "eof":
                        raise ParseError("unexpected trailing input %r" % text, offset)
                    return out


def parse_expr(text: str) -> VarietyExpr:
    """Parse a catalog expression; see the module docstring for the grammar."""
    labels = _parse(_tokenize(text))
    try:
        return _from_labels(labels)
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

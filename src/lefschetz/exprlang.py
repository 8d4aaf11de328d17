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
them; a longer run is a syntax error at its first digit.  This module holds
no table of constructors or operators: each node class in ``varieties``
carries its ``syntax``, its head, its canonical text template with one
``%s`` per field and, for an operator, its binding.  The punctuation the
tokenizer accepts is read off those heads and templates.  ``expr`` is one
precedence loop over ``_OPERATORS`` (head -> class, for the classes with a
binding): it joins operands with every operator that binds at least as
tightly as its floor and reads each right operand at one above the
operator's binding, so both operators associate to the left.  The parser
looks a constructor head up in ``_CONSTRUCTORS``, also built once from
``varieties._KINDS``, and has no branch per constructor: it expects each
punctuation character of the template in turn and reads each field in the
class's ``_fields`` by its type (an expression, an INT, a list of INTs, or
a flag written ``name=true`` or ``name=false``).  ``render_expr`` fills
the template.

Tokens are plain ``(kind, text, byte offset)`` tuples.  The parser emits
the JSON form of the expression and ``varieties.expr_from_json`` types it,
so text and JSON input share one builder.  The parser's depth of recursion
grows only with parentheses (a right operand adds at most one level per
binding), and nesting deeper than the interpreter's recursion limit is the
ParseError ``expression nested too deeply``.  ``render_expr`` runs
``varieties._fold`` with one step, ``_render``, which builds a node's text
from its children's.

Syntax problems raise ParseError carrying the byte offset into the UTF-8
encoded input; out-of-range parameters raise SemanticError carrying the node
path (like ``$.right.center``) so a caller can point at the offending
subexpression.  ``render_expr`` is the inverse of ``parse_expr`` up to
whitespace.
"""

from __future__ import annotations

from .tate import MAX_INT_DIGITS
from .varieties import InvalidParameterError, VarietyExpr, _KINDS, _fold, expr_from_json


class ParseError(ValueError):
    """Syntax error; ``offset`` is the byte position in the UTF-8 input."""

    def __init__(self, message: str, offset: int):
        super().__init__("syntax error at byte %d: %s" % (offset, message))
        self.offset = offset


class SemanticError(ValueError):
    """Parameter out of range; ``path`` points at the node, root is ``$``."""

    def __init__(self, message: str, path: str):
        super().__init__("semantic error at %s: %s" % (path, message))
        self.path = path


# Each character of a head or template that is not a letter, digit, space
# or field slot, plus '=' of a flag and the grouping parentheses.
_PUNCT = set("=()").union(
    ch
    for cls in _KINDS.values()
    for ch in cls.syntax[0] + cls.syntax[1]
    if not (ch.isalnum() or ch.isspace() or ch == "%")
)
_DIGITS = set("0123456789")
INT_TOO_LONG = "integer literal too long (more than %d digits)" % MAX_INT_DIGITS


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


class _Parser:
    """Recursive descent into the JSON form; ``expr_from_json`` types it."""

    def __init__(self, toks: list[tuple[str, str, int]]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def expect(self, kind: str, what: str = "") -> tuple[str, str, int]:
        # a punctuation token names itself in the error message
        tok = self.toks[self.pos]
        if tok[0] != kind:
            got = repr(tok[1]) if tok[0] != "eof" else "end of input"
            raise ParseError("expected %s, got %s" % (what or "'%s'" % kind, got), tok[2])
        self.pos += 1
        return tok

    def integer(self) -> int:
        return int(self.expect("num", "an integer")[1])

    def expr(self, floor: int = 1) -> dict:
        """Atoms joined by operators that bind at least ``floor``."""
        out = self.atom()
        while True:
            cls = _OPERATORS.get(self.peek())
            if cls is None or cls.syntax[2] < floor:
                return out
            self.pos += 1
            # a right operand binds tighter, so both operators are left-associative
            right = self.expr(cls.syntax[2] + 1)
            out = {"kind": cls.kind, **dict(zip(cls._children, (out, right)))}

    def atom(self) -> dict:
        if self.peek() == "(":
            self.pos += 1
            inner = self.expr()
            self.expect(")")
            return inner
        _, text, offset = self.expect("name", "an expression")
        entry = _CONSTRUCTORS.get(text)
        if entry is None:
            raise ParseError("unknown constructor %r" % text, offset)
        cls, pattern = entry
        out = {"kind": cls.kind}
        fields = iter(cls._fields)
        for ch in pattern:
            if ch != "%":
                self.expect(ch)
                continue
            name, typ = next(fields)
            if typ is VarietyExpr:
                out[name] = self.expr()
            elif typ is int:
                out[name] = self.integer()
            elif typ is tuple:
                counts = [self.integer()]
                while self.peek() == ",":
                    self.pos += 1
                    counts.append(self.integer())
                out[name] = counts
            else:
                out[name] = self.flag(name)
        return out

    def flag(self, name: str) -> bool:
        """``(name '=')? ('true' | 'false')``"""
        _, text, offset = self.expect("name", "%r or a boolean" % name)
        if text == name:
            self.expect("=")
            _, text, offset = self.expect("name", "'true' or 'false'")
        if text not in ("true", "false"):
            raise ParseError("expected 'true' or 'false', got %r" % text, offset)
        return text == "true"


# Constructor head -> (node class, its template after the head with each
# field slot written '%' and no spaces), read off each class's ``syntax``.
_CONSTRUCTORS = {
    head: (cls, template[len(head):].replace("%s", "%").replace(" ", ""))
    for cls in _KINDS.values()
    for head, template, binding in [cls.syntax]
    if binding is None
}
# Operator head -> node class, for the classes whose ``syntax`` has a binding.
_OPERATORS = {cls.syntax[0]: cls for cls in _KINDS.values() if cls.syntax[2] is not None}


def parse_expr(text: str) -> VarietyExpr:
    """Parse a catalog expression; see the module docstring for the grammar."""
    parser = _Parser(_tokenize(text))
    try:
        data = parser.expr()
    except RecursionError:
        # the parser recurses once per parenthesis
        raise ParseError("expression nested too deeply", parser.toks[parser.pos][2]) from None
    kind, trailing, offset = parser.toks[parser.pos]
    if kind != "eof":
        raise ParseError("unexpected trailing input %r" % trailing, offset)
    try:
        return expr_from_json(data)
    except InvalidParameterError as exc:
        raise SemanticError(str(exc), exc.path) from exc


def _render(e: VarietyExpr, *children: tuple[str, int | None]) -> tuple[str, int | None]:
    """Fold step: the text of ``e`` and how tightly it binds."""
    syntax = type(e).syntax
    if syntax is None:
        raise TypeError("unknown expression node %r" % type(e).__name__)
    _, template, strength = syntax
    args = []
    for name, typ, value in e._items(children):
        if typ is VarietyExpr:
            value, inner = value
            # both operators are left-associative, so a right operand must
            # bind more tightly than its operator; a constructor's own
            # delimiters need no parentheses
            if strength is not None and inner is not None and inner < strength + len(args):
                value = "(%s)" % value
        elif typ is bool:
            value = "%s=%s" % (name, "true" if value else "false")
        elif typ is tuple:
            value = ",".join(str(c) for c in value)
        else:
            value = "%d" % value
        args.append(value)
    return template % tuple(args), strength


def render_expr(e: VarietyExpr) -> str:
    """Canonical text for an expression; ``parse_expr`` inverts it exactly."""
    return _fold(e, _render)[0]

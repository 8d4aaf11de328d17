"""Text expression language for the variety catalog.

Grammar, with '+' for disjoint union and '*' for product, '*' binding
tighter, both left-associative::

    expr  := term ('+' term)*
    term  := atom ('*' atom)*
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

INT is a run of ASCII digits 0-9.  The parser and ``render_expr`` read one
grammar table, ``_SYNTAX``: a constructor is its node class plus one row,
its head and its canonical text template.  The parser has no branch per
constructor: it expects each punctuation character of the template in turn
and reads each dataclass field by its type (an expression, an INT, a list of
INTs, or a flag written ``name=true`` or ``name=false``).

Syntax problems raise ParseError carrying the byte offset into the UTF-8
encoded input; out-of-range parameters raise SemanticError carrying the node
path (like ``$.right.center``) so a caller can point at the offending
subexpression.  ``render_expr`` is the inverse of ``parse_expr`` up to
whitespace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .varieties import (
    Blowup,
    DisjointUnion,
    Fano3fold,
    Grassmannian,
    InvalidParameterError,
    ModuliM0,
    Point,
    Product,
    ProjBundle,
    Projective,
    Quadric,
    Toric,
    VarietyExpr,
)


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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    offset: int


_PUNCT = set("()[],;*+=")
_DIGITS = set("0123456789")


def _tokenize(text: str) -> list[Token]:
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
            toks.append(Token("num", text[i:j], at))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], at))
        elif ch in _PUNCT:
            toks.append(Token(ch, ch, at))
        elif not ch.isspace():
            raise ParseError("unexpected character %r" % ch, at)
        at += len(text[i:j].encode("utf-8"))
        i = j
    toks.append(Token("eof", "", at))
    return toks


class _Parser:
    """Recursive descent into a raw tuple tree; typing happens afterwards."""

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            got = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise ParseError("expected %s, got %s" % (what, got), tok.offset)
        return self.advance()

    def integer(self) -> int:
        return int(self.expect("num", "an integer").text)

    def expr(self):
        out = self.term()
        while self.peek().kind == "+":
            self.advance()
            out = ("+", out, self.term())
        return out

    def term(self):
        out = self.atom()
        while self.peek().kind == "*":
            self.advance()
            out = ("*", out, self.atom())
        return out

    def atom(self):
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")", "')'")
            return inner
        if tok.kind != "name":
            got = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise ParseError("expected an expression, got %s" % got, tok.offset)
        self.advance()
        grammar = _GRAMMAR.get(tok.text)
        if grammar is None:
            raise ParseError("unknown constructor %r" % tok.text, tok.offset)
        opening, fields = grammar
        for ch, what in opening:
            self.expect(ch, what)
        raw = [tok.text]
        for name, typ, closing in fields:
            if typ is VarietyExpr:
                raw.append(self.expr())
            elif typ is int:
                raw.append(self.integer())
            elif typ is tuple:
                counts = [self.integer()]
                while self.peek().kind == ",":
                    self.advance()
                    counts.append(self.integer())
                raw.append(counts)
            else:
                raw.append(self.flag(name))
            for ch, what in closing:
                self.expect(ch, what)
        return tuple(raw)

    def flag(self, name: str) -> bool:
        """``(name '=')? ('true' | 'false')``"""
        tok = self.expect("name", "%r or a boolean" % name)
        if tok.text == name:
            self.expect("=", "'='")
            tok = self.expect("name", "'true' or 'false'")
        if tok.text not in ("true", "false"):
            raise ParseError(
                "expected 'true' or 'false', got %r" % tok.text, tok.offset
            )
        return tok.text == "true"


# The grammar entry of each node class: the head of its raw tuple from the
# parser, its canonical text with one %s per dataclass field, and how tightly
# it binds as an operator ('+' looser than '*'; None for constructors).  A
# bool field is written ``name=true`` or ``name=false``.
_SYNTAX = {
    DisjointUnion: ("+", "%s + %s", 1),
    Product: ("*", "%s * %s", 2),
    Point: ("point", "point", None),
    Projective: ("P", "P(%s)", None),
    Quadric: ("Q", "Q(%s)", None),
    Grassmannian: ("Gr", "Gr(%s,%s)", None),
    Toric: ("toric", "toric[%s]", None),
    Blowup: ("blowup", "blowup(%s; %s; %s)", None),
    ProjBundle: ("projbundle", "projbundle(%s; %s)", None),
    ModuliM0: ("M0", "M0(%s)", None),
    Fano3fold: ("fano", "fano(%s; %s)", None),
}
_CLASSES = {head: cls for cls, (head, _, _) in _SYNTAX.items()}


def _punctuation(text: str) -> tuple:
    """The ``(token kind, what is expected)`` pairs of a template fragment."""
    return tuple((ch, "'%s'" % ch) for ch in text if not ch.isspace())


def _grammar() -> dict:
    """Constructor head -> (punctuation before the first field, fields).

    Each field is ``(name, type, punctuation after it)``, read off the
    template once so the parser walks it per constructor.
    """
    out = {}
    for cls, (head, template, strength) in _SYNTAX.items():
        if strength is None:
            first, *rest = template[len(head):].split("%s")
            fields = tuple(
                (name, typ, _punctuation(after))
                for (name, typ), after in zip(cls._fields, rest)
            )
            out[head] = (_punctuation(first), fields)
    return out


_GRAMMAR = _grammar()


def _build(raw, path: str) -> VarietyExpr:
    """Type a raw tuple; a child's path extends ``path`` by its field name."""
    cls = _CLASSES[raw[0]]
    args = []
    for (name, typ), value in zip(cls._fields, raw[1:]):
        if typ is VarietyExpr:
            value = _build(value, path + "." + name)
        args.append(value)
    try:
        return cls(*args)
    except InvalidParameterError as exc:
        raise SemanticError(str(exc), path) from exc


def parse_expr(text: str) -> VarietyExpr:
    """Parse a catalog expression; see the module docstring for the grammar."""
    parser = _Parser(_tokenize(text))
    raw = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(
            "unexpected trailing input %r" % trailing.text, trailing.offset
        )
    return _build(raw, "$")


def _render(e: VarietyExpr, bind: int) -> str:
    """Text of ``e``, parenthesized if it binds less tightly than ``bind``."""
    entry = _SYNTAX.get(type(e))
    if entry is None:
        raise TypeError("unknown expression node %r" % type(e).__name__)
    _, template, strength = entry
    args = []
    for name, typ in e._fields:
        value = getattr(e, name)
        if typ is VarietyExpr:
            # both operators are left-associative, so a right operand must
            # bind more tightly than its operator; a constructor's own
            # delimiters need no parentheses
            value = _render(value, 0 if strength is None else strength + len(args))
        elif typ is bool:
            value = "%s=%s" % (name, "true" if value else "false")
        elif typ is tuple:
            value = ",".join(str(c) for c in value)
        else:
            value = "%d" % value
        args.append(value)
    text = template % tuple(args)
    return text if strength is None or strength >= bind else "(%s)" % text


def render_expr(e: VarietyExpr) -> str:
    """Canonical text for an expression; ``parse_expr`` inverts it exactly."""
    return _render(e, 0)

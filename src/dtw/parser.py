"""Recursive-descent parser for the concrete formula syntax.

Grammar (whitespace-insensitive; precedence ``~`` > ``&`` > ``|`` > ``->``
> ``<->``, modalities binding like negation)::

    formula := iff
    iff     := impl ("<->" impl)*          left-associative
    impl    := disj ("->" impl)?           right-associative
    disj    := conj ("|" conj)*
    conj    := unary ("&" unary)*
    unary   := "~" unary | "K" coal unary | "Kd" coal unary
             | "B" coal coal unary | "false" | ident | "(" formula ")"
    coal    := "[" (ident ("," ident)*)? "]"

Identifiers match ``[A-Za-z][A-Za-z0-9_]*`` and may not be the keyword
``false``; names with the reserved ``__`` prefix cannot be written (they do
not lex).  ``K``, ``Kd`` and ``B`` act as modality heads only when directly
followed by ``[``; otherwise they are ordinary proposition names.
``B[knowers][actors]``: the first coalition knows, the second one acts.
All derived connectives are desugared during parsing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import EmptyInputError, ParseError
from .formula import (
    Blame,
    Formula,
    Implies,
    Know,
    Not,
    Prop,
    coalition,
    conj,
    disj,
    dual_know,
    falsum,
    iff,
)

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<iff><->)"
    r"|(?P<arrow>->)"
    r"|(?P<punct>[~&|(),\[\]])"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
)

KEYWORDS = frozenset({"false"})
# Operands nested deeper than this are refused: the parser and the printer
# recurse once per level, and deeper input would exhaust the stack.
MAX_NESTING = 100
_MODALITY_HEADS = frozenset({"K", "Kd", "B"})


@dataclass(frozen=True)
class Token:
    kind: str  # one of iff, arrow, punct, ident, false, eof
    text: str
    pos: int  # 1-based character position


def tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(
                f"unexpected character {text[i]!r}",
                pos=i + 1,
                expected="an identifier, operator, bracket, or parenthesis",
            )
        i = m.end()
        if m.lastgroup == "ws":
            continue
        value = m.group()
        if m.lastgroup == "ident":
            kind = "false" if value == "false" else "ident"
        else:
            kind = m.lastgroup if m.lastgroup != "punct" else value
        tokens.append(Token(kind, value, m.start() + 1))
    tokens.append(Token("eof", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str, expected: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                pos=tok.pos,
                expected=expected,
            )
        return self.take()

    def nested(self, tok: Token, parse) -> Formula:
        """``parse()`` the operand of tok one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"formula nested more than {MAX_NESTING} levels deep",
                pos=tok.pos,
                expected="a less deeply nested formula",
            )
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def formula(self) -> Formula:
        out = self.impl()
        while self.peek().kind == "iff":
            self.take()
            out = iff(out, self.impl())
        return out

    def impl(self) -> Formula:
        left = self.disj()
        tok = self.peek()
        if tok.kind == "arrow":
            self.take()
            return Implies(left, self.nested(tok, self.impl))
        return left

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek().kind == "|":
            self.take()
            out = disj(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.unary()
        while self.peek().kind == "&":
            self.take()
            out = conj(out, self.unary())
        return out

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.take()
            return Not(self.nested(tok, self.unary))
        if tok.kind == "(":
            self.take()
            inner = self.nested(tok, self.formula)
            self.expect(")", "')'")
            return inner
        if tok.kind == "false":
            self.take()
            return falsum()
        if tok.kind == "ident":
            if tok.text in _MODALITY_HEADS and self.peek(1).kind == "[":
                self.take()
                if tok.text == "K":
                    return Know(self.coal(), self.nested(tok, self.unary))
                if tok.text == "Kd":
                    return dual_know(self.coal(), self.nested(tok, self.unary))
                return Blame(self.coal(), self.coal(), self.nested(tok, self.unary))
            self.take()
            return Prop(tok.text)
        raise ParseError(
            f"unexpected {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
            pos=tok.pos,
            expected="a formula (identifier, 'false', '~', 'K[', 'Kd[', 'B[', or '(')",
        )

    def coal(self):
        self.expect("[", "'['")
        members = set()
        if self.peek().kind != "]":
            members.add(self.expect("ident", "an agent identifier").text)
            while self.peek().kind == ",":
                self.take()
                members.add(self.expect("ident", "an agent identifier").text)
        self.expect("]", "']' or ','")
        return coalition(members)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into the core AST.

    Raises :class:`ParseError` with a 1-based character position and an
    expected-token hint on malformed input or on operands nested more than
    ``MAX_NESTING`` levels deep (each ``~``, modality, parenthesis and
    right operand of ``->`` is one level), and :class:`EmptyInputError`
    when the input is blank.
    """
    tokens = tokenize(text)
    if tokens[0].kind == "eof":
        raise EmptyInputError()
    parser = _Parser(tokens)
    out = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(
            f"unexpected {trailing.text!r} after formula",
            pos=trailing.pos,
            expected="end of input",
        )
    return out


def parse_coalition_token(text: str):
    """Parse a standalone bracketed coalition such as ``[a,b]`` or ``[]``."""
    tokens = tokenize(text)
    parser = _Parser(tokens)
    out = parser.coal()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(
            f"unexpected {trailing.text!r} after coalition",
            pos=trailing.pos,
            expected="end of input",
        )
    return out

"""The package's formula parser as it was before the flat tokenizer,
frozen so that its replacement can be compared with it: the same grammar,
ASTs and errors.  It recurses once per nesting level and refuses operands
nested deeper than ``_NAIVE_MAX_NESTING``; tests that compare deeper input
raise that limit."""

import re
from dataclasses import dataclass

from dtw.errors import EmptyInputError, ParseError
from dtw.formula import (
    Blame,
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


# ---------------------------------------------------------------------------
# The token-at-a-time recursive-descent parser, frozen: one regex match and
# one Token per token, and one call per grammar level for every operand.
# ---------------------------------------------------------------------------

_NAIVE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<iff><->)"
    r"|(?P<arrow>->)"
    r"|(?P<punct>[~&|(),\[\]])"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
)
_NAIVE_MAX_NESTING = 100
_NAIVE_MODALITY_HEADS = frozenset({"K", "Kd", "B"})


@dataclass(frozen=True)
class _Token:
    kind: str  # one of iff, arrow, punct, ident, false, eof
    text: str
    pos: int  # 1-based character position


def _naive_tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        m = _NAIVE_TOKEN_RE.match(text, i)
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
        tokens.append(_Token(kind, value, m.start() + 1))
    tokens.append(_Token("eof", "", len(text) + 1))
    return tokens


class _NaiveParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def take(self):
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind, expected):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                pos=tok.pos,
                expected=expected,
            )
        return self.take()

    def nested(self, tok, parse):
        if self.depth == _NAIVE_MAX_NESTING:
            raise ParseError(
                f"formula nested more than {_NAIVE_MAX_NESTING} levels deep",
                pos=tok.pos,
                expected="a less deeply nested formula",
            )
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def formula(self):
        out = self.impl()
        while self.peek().kind == "iff":
            self.take()
            out = iff(out, self.impl())
        return out

    def impl(self):
        left = self.disj()
        tok = self.peek()
        if tok.kind == "arrow":
            self.take()
            return Implies(left, self.nested(tok, self.impl))
        return left

    def disj(self):
        out = self.conj()
        while self.peek().kind == "|":
            self.take()
            out = disj(out, self.conj())
        return out

    def conj(self):
        out = self.unary()
        while self.peek().kind == "&":
            self.take()
            out = conj(out, self.unary())
        return out

    def unary(self):
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
            if tok.text in _NAIVE_MODALITY_HEADS and self.peek(1).kind == "[":
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


def naive_parse_formula(text):
    """The package's formula parser as it was before the flat tokenizer:
    same grammar, ASTs, errors and nesting limit."""
    tokens = _naive_tokenize(text)
    if tokens[0].kind == "eof":
        raise EmptyInputError()
    parser = _NaiveParser(tokens)
    out = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(
            f"unexpected {trailing.text!r} after formula",
            pos=trailing.pos,
            expected="end of input",
        )
    return out


def naive_parse_coalition_token(text):
    tokens = _naive_tokenize(text)
    parser = _NaiveParser(tokens)
    out = parser.coal()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(
            f"unexpected {trailing.text!r} after coalition",
            pos=trailing.pos,
            expected="end of input",
        )
    return out

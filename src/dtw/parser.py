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

The input is split into tokens by one ``findall``, and each token is its
own kind: the parser compares token texts, and any token that is not an
operator, bracket or ``false`` is an identifier.  An empty string ends the
list.  Character positions are recomputed only for an error message.
"""

from __future__ import annotations

import re

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

# Each match is optional whitespace and one token; the last alternative
# takes a character that starts no token, so the matches cover the text.
_TOKEN_RE = re.compile(r"\s*(<->|->|[~&|(),\[\]]|[A-Za-z][A-Za-z0-9_]*|\S)")
_EOF = ""
_SYMBOLS = frozenset({"<->", "->", "~", "&", "|", "(", ")", ",", "[", "]", "false", _EOF})

# Operands nested deeper than this are refused, so that parsing cannot
# exhaust the stack: the parser recurses once per level.  Left-associated
# chains such as ``p & p & p`` add no level and can build deeper ASTs; the
# printer, formula equality and the tautology check walk those iteratively.
MAX_NESTING = 100
_MODALITY_HEADS = frozenset({"K", "Kd", "B"})
_FORMULA_START = "a formula (identifier, 'false', '~', 'K[', 'Kd[', 'B[', or '(')"


class _Parser:
    """``toks`` ends in ``_EOF``, and ``i`` indexes the lookahead, which never
    moves past it.  The ``depth`` arguments count the operand's nesting
    level."""

    def __init__(self, text: str):
        self.text = text
        self.toks = toks = _TOKEN_RE.findall(text)
        toks.append(_EOF)
        self.i = 0
        # Identifiers start with an ASCII letter; any other token that is
        # not a symbol is a lone character that starts no token, and the
        # first one is reported.
        bad = [t for t in set(toks) - _SYMBOLS if not (t.isascii() and t[0].isalpha())]
        if bad:
            self.i = min(map(toks.index, bad))
            raise self.error(f"unexpected character {toks[self.i]!r}",
                             "an identifier, operator, bracket, or parenthesis")

    def error(self, message: str, expected: str, at: int | None = None) -> ParseError:
        """A ParseError at token ``at``, by default the lookahead."""
        at = self.i if at is None else at
        starts = [m.start(1) + 1 for m in _TOKEN_RE.finditer(self.text)]
        pos = starts[at] if at < len(starts) else len(self.text) + 1
        return ParseError(message, pos=pos, expected=expected)

    def unexpected(self, expected: str, after: str = "") -> ParseError:
        tok = self.toks[self.i]
        if tok == _EOF:
            return self.error("unexpected end of input", expected)
        return self.error(f"unexpected {tok!r}{after}", expected)

    def too_deep(self, at: int) -> ParseError:
        return self.error(f"formula nested more than {MAX_NESTING} levels deep",
                          "a less deeply nested formula", at)

    def formula(self, depth: int) -> Formula:
        out = self.impl(depth)
        while self.toks[self.i] == "<->":
            self.i += 1
            out = iff(out, self.impl(depth))
        return out

    def impl(self, depth: int) -> Formula:
        """A disjunction of conjunctions, then an optional ``->`` operand."""
        toks = self.toks
        term = self.unary(depth)
        left = None
        while True:
            tok = toks[self.i]
            if tok == "&":
                self.i += 1
                term = conj(term, self.unary(depth))
            elif tok == "|":
                self.i += 1
                left = term if left is None else disj(left, term)
                term = self.unary(depth)
            else:
                break
        if left is not None:
            term = disj(left, term)
        if tok != "->":
            return term
        if depth == MAX_NESTING:
            raise self.too_deep(self.i)
        self.i += 1
        return Implies(term, self.impl(depth + 1))

    def unary(self, depth: int) -> Formula:
        i = self.i
        tok = self.toks[i]
        if tok not in _SYMBOLS:
            self.i = i + 1
            if tok not in _MODALITY_HEADS or self.toks[i + 1] != "[":
                return Prop(tok)
            knowers = self.coal()
            actors = self.coal() if tok == "B" else None
        elif tok == "~" or tok == "(":
            self.i = i + 1
        elif tok == "false":
            self.i = i + 1
            return falsum()
        else:
            raise self.unexpected(_FORMULA_START)
        if depth == MAX_NESTING:
            raise self.too_deep(i)
        if tok == "(":
            inner = self.formula(depth + 1)
            if self.toks[self.i] != ")":
                raise self.unexpected("')'")
            self.i += 1
            return inner
        child = self.unary(depth + 1)
        if tok == "~":
            return Not(child)
        if tok == "K":
            return Know(knowers, child)
        if tok == "Kd":
            return dual_know(knowers, child)
        return Blame(knowers, actors, child)

    def coal(self):
        toks = self.toks
        if toks[self.i] != "[":
            raise self.unexpected("'['")
        self.i += 1
        members = set()
        if toks[self.i] != "]":
            while True:
                if toks[self.i] in _SYMBOLS:
                    raise self.unexpected("an agent identifier")
                members.add(toks[self.i])
                self.i += 1
                if toks[self.i] != ",":
                    break
                self.i += 1
        if toks[self.i] != "]":
            raise self.unexpected("']' or ','")
        self.i += 1
        return coalition(members)

    def end(self, what: str) -> None:
        if self.toks[self.i] != _EOF:
            raise self.unexpected("end of input", f" after {what}")


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into the core AST.

    Raises :class:`ParseError` with a 1-based character position and an
    expected-token hint on malformed input or on operands nested more than
    ``MAX_NESTING`` levels deep (each ``~``, modality, parenthesis and
    right operand of ``->`` is one level), and :class:`EmptyInputError`
    when the input is blank.
    """
    parser = _Parser(text)
    if parser.toks[0] == _EOF:
        raise EmptyInputError()
    out = parser.formula(0)
    parser.end("formula")
    return out


def parse_coalition_token(text: str):
    """Parse a standalone bracketed coalition such as ``[a,b]`` or ``[]``."""
    parser = _Parser(text)
    out = parser.coal()
    parser.end("coalition")
    return out

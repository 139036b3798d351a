"""Operator-precedence parser for the concrete formula syntax.

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
not lex).  ``K``, ``Kd`` and ``B`` act as modality heads only when the next
token is ``[``; otherwise they are ordinary proposition names.
``B[knowers][actors]``: the first coalition knows, the second one acts.
All derived connectives are desugared during parsing.

The input is split into tokens by one ``findall``.  A well-formed modality,
such as ``K[a, b]``, ``Kd []`` or ``B[a] [b]``, is one token, head and
coalitions together; every other token is an operator, a bracket, a comma,
``false`` or an identifier, and the parser compares token texts.  A
modality token is resolved through a dict from its text to its pending
entry, kept on the memo or, without one, on the parser, so a repeated
modality costs one lookup.  An empty string ends the list.  Every error
names the token the grammar stops at, at its position, and positions are
computed only then.  A modality token stands for the grammar's tokens it
merges: at an error's lookahead it is its head, and where a coalition
member is due its head is the member and its first ``[`` is the token the
grammar stops at.  Pending prefix operators, parentheses and infix
operators wait on one explicit stack instead of in Python calls, so
nesting is not limited by the interpreter's stack and any depth costs
linear time and memory.

Texts that repeat their subterms, such as the lines of one proof script,
can be parsed with one :class:`GroupMemo`: a parenthesised group that a
parse with the memo already read is one operand, and the parser jumps past
its ``)``.  Without a memo each text is parsed on its own.
"""

from __future__ import annotations

import re
from functools import partial

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

# Each match is optional whitespace and one token: first a whole
# well-formed modality, whose members are identifiers other than ``false``,
# else one operator, bracket, comma or identifier; the last alternative
# takes a character that starts no token, so the matches cover the text.
_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_REST = rf"<->|->|[~&|(),\[\]]|{_NAME}|\S"
_MEMBER = rf"(?!false[\s,\]]){_NAME}"
_COAL = rf"\[\s*(?:{_MEMBER}(?:\s*,\s*{_MEMBER})*)?\s*\]"
_MODALITY_RE = re.compile(rf"\s*((?:Kd?|B\s*{_COAL})\s*{_COAL}|{_REST})")
_NAME_RE = re.compile(_NAME)
_EOF = ""
_SYMBOLS = frozenset({"<->", "->", "~", "&", "|", "(", ")", ",", "[", "]", "false", _EOF})

_MODALITY_HEADS = frozenset({"K", "Kd", "B"})
_FORMULA_START = "a formula (identifier, 'false', '~', 'K[', 'Kd[', 'B[', or '(')"

# Pending entries are ``(strength, builder, argument)``; applying one to the
# operand that follows it gives ``builder(argument, operand)``, or
# ``builder(operand)`` when the argument is None.  Before an infix operator
# waits, it applies every pending entry at least as strong as its left
# strength; it waits with its right strength.  ``->`` waits one weaker, so
# the next ``->`` leaves it pending: it is right-associative.  A token that
# is no infix operator applies every entry down to the innermost open
# parenthesis, the only entry of strength 0: ``(0, None, group)``, where
# ``group`` is its memo id, or None.
_INFIX = {"<->": (1, 1, iff), "->": (2, 1, Implies), "|": (3, 3, disj), "&": (4, 4, conj)}
_NOT_INFIX = (1, None, None)
_PREFIX = 5
_NOT = (_PREFIX, Not, None)


class _Parser:
    """``toks`` ends in ``_EOF``, and ``i`` indexes the lookahead, which
    never moves past it.  ``modalities`` maps the text of each modality
    token to its pending entry.  With a memo, ``groups``,
    ``ends`` and ``whole`` are what :meth:`GroupMemo.scan` finds in the
    tokens, and ``parsed`` and ``modalities`` are the memo's; without one,
    ``groups`` and ``whole`` are None."""

    def __init__(self, text: str, memo: GroupMemo | None = None):
        self.text = text
        self.toks = toks = _MODALITY_RE.findall(text)
        toks.append(_EOF)
        self.i = 0
        self.modalities = modalities = {} if memo is None else memo.modalities
        # Identifiers and modalities start with an ASCII letter; any other
        # token that is not a symbol is a lone character that starts no
        # token, and the first one is reported.  Only a modality ends in ']'.
        bad = []
        for t in set(toks) - _SYMBOLS:
            if not (t[0].isascii() and t[0].isalpha()):
                bad.append(t)
            elif t[-1] == "]" and t not in modalities:
                modalities[t] = _modality(t)
        if bad:
            self.i = min(map(toks.index, bad))
            raise self.error(f"unexpected character {toks[self.i]!r}",
                             "an identifier, operator, bracket, or parenthesis")
        if memo is None:
            self.groups = self.whole = None
            self.parsed = {}
        else:
            self.groups, self.ends, self.whole = memo.scan(toks)
            self.parsed = memo.parsed

    def error(self, message: str, expected: str, offset: int = 0) -> ParseError:
        """A ParseError at the lookahead, or ``offset`` characters into it."""
        starts = [m.start(1) + 1 for m in _MODALITY_RE.finditer(self.text)]
        pos = starts[self.i] + offset if self.i < len(starts) else len(self.text) + 1
        return ParseError(message, pos=pos, expected=expected)

    def unexpected(self, expected: str, after: str = "") -> ParseError:
        """The grammar's error at the lookahead; a modality token there
        is its head."""
        tok = self.toks[self.i]
        if tok == _EOF:
            return self.error("unexpected end of input", expected)
        if tok in self.modalities:
            tok = _NAME_RE.match(tok)[0]
        return self.error(f"unexpected {tok!r}{after}", expected)

    def formula(self) -> Formula:
        """Operator-precedence parsing over one explicit stack of pending
        entries, so that nesting costs stack entries, not Python calls.
        A group already in ``parsed`` is one operand, read in one step."""
        toks = self.toks
        stack = []
        i = self.i
        groups, parsed, modalities = self.groups, self.parsed, self.modalities
        while True:
            # Operand position: prefix operators and parentheses wait on the
            # stack until an atom comes.
            tok = toks[i]
            i += 1
            if tok not in _SYMBOLS:
                entry = modalities.get(tok)
                if entry is not None:
                    stack.append(entry)
                    continue
                if tok in _MODALITY_HEADS and toks[i] == "[":
                    # A well-formed modality is one token, so one of its
                    # coalitions raises the grammar's error.
                    self.i = i
                    self.coal()
                    self.coal()
                    raise AssertionError(f"modality {tok!r} is well formed but split")
                out = Prop(tok)
            elif tok == "~":
                stack.append(_NOT)
                continue
            elif tok == "(":
                group = None if groups is None else groups[i - 1]
                out = parsed.get(group)
                if out is None:
                    stack.append((0, None, group))
                    continue
                i = self.ends[i - 1] + 1  # past its ')'
            elif tok == "false":
                out = falsum()
            else:
                self.i = i - 1
                raise self.unexpected(_FORMULA_START)
            # Operator position: apply what binds at least as tightly as the
            # next token, then close parentheses until an infix operator.
            while True:
                tok = toks[i]
                left, right, builder = _INFIX.get(tok, _NOT_INFIX)
                while stack and stack[-1][0] >= left:
                    _, apply, arg = stack.pop()
                    out = apply(out) if arg is None else apply(arg, out)
                if builder is not None:
                    stack.append((right, builder, out))
                    i += 1
                    break
                if tok == ")" and stack:
                    group = stack.pop()[2]
                    if group is not None:
                        parsed[group] = out
                    i += 1
                    continue
                self.i = i
                if stack:
                    raise self.unexpected("')'")
                return out

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
                if toks[self.i] in self.modalities:
                    # The grammar reads the head as the member, then '['.
                    raise self.error("unexpected '['", "']' or ','",
                                     toks[self.i].index("["))
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


def _modality(tok: str):
    """The pending entry of a modality token such as ``B[a] [b, c]``."""
    head, *coals = tok.split("[")
    coals = [coalition(_NAME_RE.findall(c)) for c in coals]
    if len(coals) == 2:
        return (_PREFIX, partial(Blame, *coals), None)
    return (_PREFIX, Know if head.rstrip() == "K" else dual_know, coals[0])


class GroupMemo:
    """The parenthesised groups of the texts parsed with one memo: each
    distinct group is parsed once, and all its occurrences are one formula
    object (packrat memoization, Ford 2002, which shares subterms as
    hash-consing does).

    A group's id stands for its token sequence.  Its key is its tokens with
    each inner group replaced by that group's id, so a key holds only the
    group's own tokens, and scanning a text costs time and memory linear
    in its length at any depth.  A whole text is keyed the same way, so a
    line's formula is the same object as that text parenthesised on another
    line.  Only groups that parsed are stored, so every error is the one a
    parse without a memo raises.  A modality is one token, so groups that
    space or order a coalition differently have different keys.
    """

    __slots__ = ("ids", "parsed", "modalities")

    def __init__(self):
        self.ids = {}         # key -> group id
        self.parsed = {}      # group id -> formula, once a parse has closed it
        self.modalities = {}  # modality token -> pending entry

    def scan(self, toks):
        """``(groups, ends, whole)`` in one stack pass: the '(' at index o
        that has a matching ')' opens group ``groups[o]``, closed at
        ``ends[o]``; ``whole`` is the id of the tokens before ``_EOF``."""
        ids = self.ids
        groups, ends = [None] * len(toks), [0] * len(toks)
        opens, starts, key = [], [], []
        for j, tok in enumerate(toks):
            if tok == ")" and opens:
                start = starts.pop()
                group = ids.setdefault(tuple(key[start:]), len(ids))
                del key[start - 1:]  # the group and its '('
                key.append(group)
                o = opens.pop()
                groups[o], ends[o] = group, j
            else:
                key.append(tok)  # an unmatched parenthesis stays in the key
                if tok == "(":
                    opens.append(j)
                    starts.append(len(key))
        return groups, ends, ids.setdefault(tuple(key[:-1]), len(ids))


def parse_formula(text: str, memo: GroupMemo | None = None) -> Formula:
    """Parse concrete syntax into the core AST.

    Raises :class:`ParseError` with a 1-based character position and an
    expected-token hint on malformed input, and :class:`EmptyInputError`
    when the input is blank.  With a memo, a parenthesised group or whole
    text that an earlier parse with the same memo read is not parsed
    again: the earlier formula object is the result's subterm.
    """
    parser = _Parser(text, memo)
    if parser.toks[0] == _EOF:
        raise EmptyInputError()
    out = parser.parsed.get(parser.whole)
    if out is None:
        out = parser.formula()
        parser.end("formula")
        if parser.whole is not None:
            parser.parsed[parser.whole] = out
    return out


def parse_coalition_token(text: str):
    """Parse a standalone bracketed coalition such as ``[a,b]`` or ``[]``."""
    parser = _Parser(text)
    out = parser.coal()
    parser.end("coalition")
    return out

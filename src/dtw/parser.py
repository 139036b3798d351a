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

The input is split into tokens by ``findall``.  A well-formed modality,
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

Every node is built through a node table, which hash-conses: equal
nodes of one parse are one object, and so are the derived connectives'
nodes, desugared one by one.  ``false`` is the one :data:`FALSUM`.

Texts that repeat their subterms, such as the lines of one proof script,
can be parsed with one :class:`GroupMemo`, which keeps one node table for
all of them and maps texts it has parsed, less the white space around
them, to their formulas.  A whole text it holds is not read at all, and a
top-level parenthesised group it holds is one ``(`` token, is one
operand, and is not lexed.  No token holds a parenthesis, so lexing the
text between parentheses gives the tokens that lexing the whole text
gives.  Without a memo each text is lexed and parsed on its own, with a
node table of its own.
"""

from __future__ import annotations

import re

from .errors import EmptyInputError, ParseError
from .formula import FALSUM, Blame, Formula, Implies, Know, Not, Prop, coalition

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
_PARENS_RE = re.compile(r"([()])")
_EOF = ""
_SYMBOLS = frozenset({"<->", "->", "~", "&", "|", "(", ")", ",", "[", "]", "false", _EOF})

_MODALITY_HEADS = frozenset({"K", "Kd", "B"})
_FORMULA_START = "a formula (identifier, 'false', '~', 'K[', 'Kd[', 'B[', or '(')"


class _Nodes(dict):
    """The node table: every node a parse builds comes from here, so equal
    nodes are one object (hash-consing, Filliâtre & Conchon 2006).  A node
    is keyed by its kind and its children's identities: a proposition by
    its name, ``~`` by its child's id, ``->`` by the pair of ids, and a
    modality by its coalitions and its child's id; keys of different kinds
    have different types, so one dict holds them all.  The table holds
    every node it builds, so no id in a key is reused while it lives.  The
    derived connectives are desugared node by node.  Nodes are never false,
    so ``get(key) or setdefault(key, node)`` builds one only for a new key."""

    __slots__ = ()

    def prop(self, name):
        return self.get(name) or self.setdefault(name, Prop(name))

    def neg(self, child):
        return self.get(id(child)) or self.setdefault(id(child), Not(child))

    def implies(self, left, right):
        key = (id(left), id(right))
        return self.get(key) or self.setdefault(key, Implies(left, right))

    def conj(self, left, right):
        return self.neg(self.implies(left, self.neg(right)))

    def disj(self, left, right):
        return self.implies(self.neg(left), right)

    def iff(self, left, right):
        return self.conj(self.implies(left, right), self.implies(right, left))

    def know(self, knowers, child):
        key = (knowers, id(child))
        return self.get(key) or self.setdefault(key, Know(knowers, child))

    def dual_know(self, knowers, child):
        return self.neg(self.know(knowers, self.neg(child)))

    def blame(self, coalitions, child):
        key = (*coalitions, id(child))
        return self.get(key) or self.setdefault(key, Blame(*coalitions, child))


# Pending entries are ``(strength, builder, argument)``; applying one to the
# operand that follows it gives ``builder(nodes, argument, operand)``, or
# ``builder(nodes, operand)`` when the argument is None, where ``nodes`` is
# the parse's node table.  Before an infix operator waits, it applies every
# pending entry at least as strong as its left strength; it waits with its
# right strength.  ``->`` waits one weaker, so the next ``->`` leaves it
# pending: it is right-associative.  A token that is no infix operator
# applies every entry down to the innermost open parenthesis, the only
# entry of strength 0: ``(0, None, group)``, where ``group`` is the memo
# key of a top-level group, or None.
_INFIX = {"<->": (1, 1, _Nodes.iff), "->": (2, 1, _Nodes.implies),
          "|": (3, 3, _Nodes.disj), "&": (4, 4, _Nodes.conj)}
_NOT_INFIX = (1, None, None)
_PREFIX = 5
_NOT = (_PREFIX, _Nodes.neg, None)


class _Parser:
    """``toks`` ends in ``_EOF``, and ``i`` indexes the lookahead, which
    never moves past it.  ``plan`` is what was lexed: texts, whose tokens
    ``toks`` holds in order, and top-level parenthesised groups (see
    :meth:`GroupMemo.scan`); without a memo it is the whole text.  A group
    the memo holds is its one '(' token, whose index ``known`` maps to its
    formula; the '(' of any other group in the plan has its memo key in
    ``groups``.  ``parsed`` maps memo keys to formulas, ``modalities`` maps
    the text of each modality token to its pending entry, and ``nodes`` is
    the node table; all three are the memo's, or this parse's own."""

    def __init__(self, text: str, memo: GroupMemo | None = None):
        self.text = text
        self.groups, self.known = groups, known = {}, {}
        if memo is None:
            self.plan = [text]
            self.parsed, self.modalities, self.nodes = {}, {}, _Nodes()
        else:
            self.plan = memo.scan(text)
            self.parsed, self.modalities = memo.parsed, memo.modalities
            self.nodes = memo.nodes
        self.toks = toks = []
        for item in self.plan:
            if item.__class__ is str:
                toks += _MODALITY_RE.findall(item)
            else:
                key, inner, out = item
                if out is None:
                    groups[len(toks)] = key
                    toks.append("(")
                    toks += _MODALITY_RE.findall(inner)
                    toks.append(")")
                else:
                    known[len(toks)] = out
                    toks.append("(")
        toks.append(_EOF)
        self.i = 0
        # Identifiers and modalities start with an ASCII letter; any other
        # token that is not a symbol is a lone character that starts no
        # token, and the first one is reported.  Only a modality ends in ']'.
        modalities, bad = self.modalities, []
        for t in set(toks) - _SYMBOLS:
            if not (t[0].isascii() and t[0].isalpha()):
                bad.append(t)
            elif t[-1] == "]" and t not in modalities:
                modalities[t] = _modality(t)
        if bad:
            self.i = min(map(toks.index, bad))
            raise self.error(f"unexpected character {toks[self.i]!r}",
                             "an identifier, operator, bracket, or parenthesis")

    def error(self, message: str, expected: str, offset: int = 0) -> ParseError:
        """A ParseError at the lookahead, or ``offset`` characters into it.
        The plan is walked again for the text position of each token; a
        skipped group's '(' starts the text of its group."""
        starts, at = [], 1
        for item in self.plan:
            if item.__class__ is str:
                starts += [at + m.start(1) for m in _MODALITY_RE.finditer(item)]
                at += len(item)
            else:
                _, inner, out = item
                starts.append(at)
                if out is None:
                    starts += [at + 1 + m.start(1) for m in _MODALITY_RE.finditer(inner)]
                    starts.append(at + 1 + len(inner))
                at += len(inner) + 2
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
        A group in ``known`` is one operand, read in one step."""
        toks = self.toks
        stack = []
        i = self.i
        groups, known, parsed = self.groups, self.known, self.parsed
        modalities, nodes = self.modalities, self.nodes
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
                out = nodes.prop(tok)
            elif tok == "~":
                stack.append(_NOT)
                continue
            elif tok == "(":
                out = known.get(i - 1)
                if out is None:
                    stack.append((0, None, groups.get(i - 1)))
                    continue
            elif tok == "false":
                out = FALSUM
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
                    out = (apply(nodes, out) if arg is None
                           else apply(nodes, arg, out))
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
    coals = tuple(coalition(_NAME_RE.findall(c)) for c in coals)
    if len(coals) == 2:
        return (_PREFIX, _Nodes.blame, coals)
    return (_PREFIX, _Nodes.know if head.rstrip() == "K" else _Nodes.dual_know, coals[0])


class GroupMemo:
    """The texts parsed with one memo: each distinct text that a parse with
    the memo read, whole or as a top-level parenthesised group, maps to its
    formula (packrat memoization, Ford 2002, which shares subterms as
    hash-consing does).

    Keys are texts less the white space around them, so a line's formula
    is the same object as that text parenthesised on another line.  A
    whole text the memo holds is not read, and a top-level group it holds
    is neither lexed nor parsed; the groups inside a top-level group the
    memo does not hold are parsed as the groups of a parse without a memo,
    and the node table, which every parse with the memo builds through,
    makes them the objects it built before.  Each character lies in at
    most one top-level group, so scanning a text costs time and memory
    linear in its length at any depth.  The right operand of a line whose
    root is a depth-0 ``->`` is stored too, so the conclusion that ``mp``
    draws from it is one lookup.  Only texts that parsed are stored, so
    every error is the one a parse without a memo raises.  A group spaced
    differently inside, such as ``( p->q )`` after ``(p -> q)``, is parsed
    again, as the same object.
    """

    __slots__ = ("parsed", "modalities", "nodes")

    def __init__(self):
        self.parsed = {}      # text, stripped -> formula, once a parse has read it
        self.modalities = {}  # modality token -> pending entry
        self.nodes = _Nodes()  # the node table of every parse with this memo

    def scan(self, text: str) -> list:
        """The plan of ``text``: what to lex, in order.  Runs of text
        outside every top-level group, and for each top-level group
        ``(key, inner, formula)``: ``inner`` is its text between the
        parentheses, ``key`` that text stripped, and ``formula`` what the
        memo holds for the key, or None.  Each group's text is joined once
        from the parts.  An unmatched parenthesis stays text."""
        parts = _PARENS_RE.split(text)
        parsed = self.parsed
        plan, depth, run = [], 0, 0
        for k in range(1, len(parts), 2):
            if parts[k] == "(":
                depth += 1
                if depth == 1:
                    o = k
            elif depth:
                depth -= 1
                if depth == 0:
                    inner = "".join(parts[o + 1:k])
                    key = inner.strip()
                    plan += ("".join(parts[run:o]), (key, inner, parsed.get(key)))
                    run = k + 1
        plan.append("".join(parts[run:]))
        return plan

    def close(self, text: str, plan: list, out: Formula) -> None:
        """Store ``out``, the formula of ``text``, whose plan is ``plan``.
        If its root is a depth-0 ``->``, store its right operand too, under
        the text after the first depth-0 ``->``, so that the conclusion
        that ``mp`` draws from it is one lookup and the same object.  That
        ``->`` is the root's: ``->`` binds looser than all but ``<->``, and a
        depth-0 ``<->`` would make the root a negation."""
        parsed = self.parsed
        parsed[text.strip()] = out
        if out.__class__ is not Implies:
            return
        at = 0
        for item in plan:  # every parenthesis is matched
            if item.__class__ is str:
                arrow = item.find("->")
                if arrow >= 0:
                    parsed[text[at + arrow + 2:].strip()] = out.right
                    return
                at += len(item)
            else:
                at += len(item[1]) + 2


def parse_formula(text: str, memo: GroupMemo | None = None) -> Formula:
    """Parse concrete syntax into the core AST.

    Raises :class:`ParseError` with a 1-based character position and an
    expected-token hint on malformed input, and :class:`EmptyInputError`
    when the input is blank.  Equal subformulas of the result are one
    object.  With a memo, so are those of every parse with the same memo,
    and a whole text or top-level parenthesised group that an earlier
    parse with it read is not lexed or parsed again.
    """
    if memo is not None:
        out = memo.parsed.get(text.strip())
        if out is not None:
            return out
    parser = _Parser(text, memo)
    if parser.toks[0] == _EOF:
        raise EmptyInputError()
    out = parser.formula()
    parser.end("formula")
    if memo is not None:
        memo.close(text, parser.plan, out)
    return out


def parse_coalition_token(text: str):
    """Parse a standalone bracketed coalition such as ``[a,b]`` or ``[]``."""
    parser = _Parser(text)
    out = parser.coal()
    parser.end("coalition")
    return out

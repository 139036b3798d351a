"""Independent oracles and shared generators for the test suite.

The naive evaluator below is a direct transcription of the satisfaction
clauses with no caching, its own witness search in the documented order,
and its own indistinguishability test; it deliberately shares no code with
the package evaluator so the two can cross-check each other.  The truth
table likewise evaluates one row at a time, independently of the
package's bit-sliced check.  ``naive_models`` and ``naive_parse_formula``
are earlier versions of the package's enumerator and parser, frozen so
that their replacements can be compared with them.
"""

import itertools
import random
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
from dtw.game import ActionProfile, Play, make_game
from dtw.proof import ProofLine, ProofScript
from dtw.semantics import SearchBounds, sample_game


def naive_indist(game, members, alpha, beta):
    for agent in members:
        blocks = game.partitions[agent]
        if not any(alpha in block and beta in block for block in blocks):
            return False
    return True


def naive_holds(game, play, f):
    if isinstance(f, Prop):
        return play in game.valuation.get(f.name, frozenset())
    if isinstance(f, Not):
        return not naive_holds(game, play, f.child)
    if isinstance(f, Implies):
        return (not naive_holds(game, play, f.left)) or naive_holds(
            game, play, f.right
        )
    if isinstance(f, Know):
        return all(
            naive_holds(game, other, f.child)
            for other in game.plays
            if naive_indist(game, f.knowers, play.initial, other.initial)
        )
    if isinstance(f, Blame):
        return (naive_holds(game, play, f.child)
                and naive_witness(game, play, f) is not None)
    raise TypeError(f"not a formula: {f!r}")


def naive_witness(game, play, f):
    """First joint action of the blame formula's actors, in lexicographic
    order (sorted agents x declared actions), under which the body fails on
    every play the knowers cannot tell from this one; a dict, else None."""
    actors = sorted(f.actors)
    for combo in itertools.product(game.actions, repeat=len(actors)):
        joint = dict(zip(actors, combo))
        matching = [
            other
            for other in game.plays
            if naive_indist(game, f.knowers, play.initial, other.initial)
            and all(
                other.profile.as_dict()[agent] == act
                for agent, act in joint.items()
            )
        ]
        if all(not naive_holds(game, other, f.child) for other in matching):
            return joint
    return None


def naive_refutation(game, play, f):
    """First play, in declaration order, that the knowledge formula's
    knowers cannot tell from this one and where its body fails, else None."""
    for other in game.plays:
        if naive_indist(game, f.knowers, play.initial, other.initial) and not (
            naive_holds(game, other, f.child)
        ):
            return other
    return None


def naive_valid(game, f):
    return all(naive_holds(game, play, f) for play in game.plays)


# ---------------------------------------------------------------------------
# Per-model enumeration, frozen: one Game built for every model.
# ---------------------------------------------------------------------------

_AGENT_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")


def _set_partitions(items):
    if not items:
        return [()]
    first, rest = items[0], items[1:]
    out = []
    for part in _set_partitions(rest):
        for i in range(len(part)):
            grown = list(part)
            grown[i] = part[i] | {first}
            out.append(tuple(grown))
        out.append(tuple(part) + (frozenset({first}),))
    return out


def _label_choices(props, max_outcomes):
    labels = [frozenset(c)
              for size in range(len(props) + 1)
              for c in itertools.combinations(props, size)]
    choices = []
    for size in range(1, min(len(labels), max_outcomes) + 1):
        choices.extend(tuple(c) for c in itertools.combinations(labels, size))
    return choices


def naive_models(formula_agents, props, bounds):
    """The documented exhaustive enumeration order, one Game per model:
    agent count, initial-state count, per-agent partitions, action count,
    then the per-cell label assignment as an odometer (cells in row-major
    order, label sets in (size, index) order).  No budget."""
    base = tuple(sorted(formula_agents))
    extras = tuple(n for n in _AGENT_NAMES if n not in base) + tuple(
        f"z{i}" for i in range(len(base))
    )
    min_agents = max(1, len(base))
    choices = _label_choices(props, bounds.max_outcomes)
    for n_agents in range(min_agents, max(min_agents, bounds.max_agents) + 1):
        agents = (base + extras)[:n_agents] if base else extras[:n_agents]
        for n_initial in range(1, bounds.max_initial + 1):
            states = [f"s{i}" for i in range(n_initial)]
            for combo in itertools.product(_set_partitions(states), repeat=n_agents):
                partitions = dict(zip(agents, combo))
                for n_actions in range(1, bounds.max_actions + 1):
                    actions = tuple(str(i) for i in range(n_actions))
                    cells = [
                        (alpha, ActionProfile.make(dict(zip(agents, acts))))
                        for alpha in states
                        for acts in itertools.product(actions, repeat=n_agents)
                    ]
                    for assignment in itertools.product(choices, repeat=len(cells)):
                        yield _game_from_labels(agents, states, partitions,
                                                actions, cells, assignment, props)


def _game_from_labels(agents, states, partitions, actions, cells, assignment,
                      props):
    n_outcomes = max(len(labels) for labels in assignment)
    outcomes = tuple(f"o{i}" for i in range(n_outcomes))
    plays = []
    valuation = {name: [] for name in props}
    for (alpha, profile), labels in zip(cells, assignment):
        for i, label in enumerate(labels):
            play = Play(alpha, profile, outcomes[i])
            plays.append(play)
            for name in label:
                valuation[name].append(play)
    return make_game(agents, states, partitions, actions, outcomes, plays,
                     valuation)


# ---------------------------------------------------------------------------
# Row-by-row truth table.
# ---------------------------------------------------------------------------

def _boolean_atoms(f, out):
    if isinstance(f, Not):
        _boolean_atoms(f.child, out)
    elif isinstance(f, Implies):
        _boolean_atoms(f.left, out)
        _boolean_atoms(f.right, out)
    elif f not in out:
        out.append(f)


def _truth_value(f, row):
    if f in row:
        return row[f]
    if isinstance(f, Not):
        return not _truth_value(f.child, row)
    return (not _truth_value(f.left, row)) or _truth_value(f.right, row)


def naive_tautology(f):
    """True iff f holds on every row of its truth table, with propositions
    and modal subformulas as opaque atoms; one row at a time."""
    atoms = []
    _boolean_atoms(f, atoms)
    return all(
        _truth_value(f, dict(zip(atoms, values)))
        for values in itertools.product((False, True), repeat=len(atoms))
    )


# ---------------------------------------------------------------------------
# Single-line formula mutations for the proof-checker kill tests.
# ---------------------------------------------------------------------------

def coalition_mutants(f, pool):
    """Every formula obtained by toggling one agent in one coalition."""
    if isinstance(f, Prop):
        return
    if isinstance(f, Not):
        for m in coalition_mutants(f.child, pool):
            yield Not(m)
    elif isinstance(f, Implies):
        for m in coalition_mutants(f.left, pool):
            yield Implies(m, f.right)
        for m in coalition_mutants(f.right, pool):
            yield Implies(f.left, m)
    elif isinstance(f, Know):
        for agent in sorted(pool):
            yield Know(f.knowers ^ {agent}, f.child)
        for m in coalition_mutants(f.child, pool):
            yield Know(f.knowers, m)
    elif isinstance(f, Blame):
        for agent in sorted(pool):
            yield Blame(f.knowers ^ {agent}, f.actors, f.child)
        for agent in sorted(pool):
            yield Blame(f.knowers, f.actors ^ {agent}, f.child)
        for m in coalition_mutants(f.child, pool):
            yield Blame(f.knowers, f.actors, m)


def line_mutants(f, pool):
    """Negation, implication swap, and all single-coalition alterations;
    mutants identical to the original are skipped."""
    yield Not(f)
    if isinstance(f, Implies):
        swapped = Implies(f.right, f.left)
        if swapped != f:
            yield swapped
    yield from coalition_mutants(f, pool)


def mutated_scripts(script, pool):
    """Every script obtained by replacing one line's formula by a mutant."""
    for k, line in enumerate(script.lines):
        for mutant in line_mutants(line.formula, pool):
            lines = list(script.lines)
            lines[k] = ProofLine(mutant, line.justification)
            yield k, mutant, ProofScript(script.hypotheses, tuple(lines),
                                         script.goal)


# ---------------------------------------------------------------------------
# Seeded random games for property tests.
# ---------------------------------------------------------------------------

def random_small_game(seed, max_agents=3):
    rng = random.Random(seed)
    bounds = SearchBounds(
        max_agents=max_agents, max_initial=3, max_actions=2, max_outcomes=2,
        max_props=3, mode="random", seed=seed,
    )
    return sample_game(rng, bounds)


# ---------------------------------------------------------------------------
# Plays matching a knowledge class and a partial profile.
# ---------------------------------------------------------------------------

def matching_plays(game, alpha, members, profile):
    """Plays whose initial state the coalition cannot tell from alpha and
    whose complete profile agrees with ``profile`` on its domain, in
    declaration order.  Unknown states and agents raise the package's
    errors."""
    members = coalition(members)
    game.check_state(alpha)
    game.check_agents(members)
    game.check_agents(profile.domain)
    for play in game.plays:
        actions = play.profile.as_dict()
        if naive_indist(game, members, alpha, play.initial) and all(
            actions.get(agent) == act for agent, act in profile.assignment
        ):
            yield play


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

"""Expected answers computed without the code under test.

Nothing here calls into ``dtw`` beyond reading its formula AST nodes and
game attributes.  Three references live in this module:

* ``Checker`` evaluates formulas as satisfaction sets (one bit per play, in
  declaration order).  It follows the satisfaction clauses directly, but per
  knowledge class of initial states instead of per play, so it stays cheap
  on the 3,500-play games where the naive evaluator of ``tests/oracles.py``
  (quadratic in plays, times ``|actions|^|D|`` for blame) would take minutes.
  The benchmark's tests compare it with that naive evaluator on small games.
* ``first_countermodel`` walks the documented exhaustive enumeration order
  and checks each game with the naive evaluator, so the first countermodel
  the package reports can be compared byte for byte.
* ``render_game``, ``render_play`` and ``formula_text`` write the game-file
  format, the play syntax of the command line and formulas, for byte
  comparisons and for the text the package parses.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from dtw.formula import Blame, Implies, Know, Not, Prop

# Agent names the enumeration pads formulas with, in the documented order.
PAD_AGENTS = ("a", "b", "c", "d", "e", "f", "g", "h")


class RProfile(tuple):
    """Sorted (agent, action) pairs of a complete action profile."""

    __slots__ = ()

    def as_dict(self):
        return dict(self)

    def __str__(self):
        return ",".join(f"{agent}={act}" for agent, act in self)


RPlay = namedtuple("RPlay", "initial profile outcome")


class RGame:
    """A game as plain data, duck-compatible with the naive evaluator."""

    def __init__(self, agents, initial_states, partitions, actions, outcomes,
                 plays, valuation):
        self.agents = tuple(agents)
        self.initial_states = tuple(initial_states)
        self.partitions = {
            agent: _complete_blocks(partitions.get(agent, ()), self.initial_states)
            for agent in self.agents
        }
        self.actions = tuple(actions)
        self.outcomes = tuple(outcomes)
        self.plays = tuple(plays)
        self.valuation = {name: frozenset(members)
                          for name, members in valuation.items()}


def _complete_blocks(blocks, states):
    blocks = [frozenset(b) for b in blocks]
    covered = set().union(*blocks) if blocks else set()
    return tuple(blocks + [frozenset({s}) for s in states if s not in covered])


def make_play(initial, mapping, outcome):
    return RPlay(initial, RProfile(sorted(mapping.items())), outcome)


def same_play(play, ref) -> bool:
    return (play.initial == ref.initial and play.outcome == ref.outcome
            and play.profile.as_dict() == ref.profile.as_dict())


def render_play(play) -> str:
    profile = ",".join(f"{a}={x}" for a, x in sorted(play.profile.as_dict().items()))
    return f"{play.initial} | {profile} | {play.outcome}"


def render_game(game) -> str:
    lines = ["agents: " + " ".join(game.agents),
             "initial: " + " ".join(game.initial_states)]
    for agent in game.agents:
        blocks = sorted((b for b in game.partitions[agent] if len(b) > 1), key=min)
        if blocks:
            lines.append(f"indist {agent}: " + " ".join(
                "{" + " ".join(sorted(b)) + "}" for b in blocks))
    lines.append("actions: " + " ".join(game.actions))
    lines.append("outcomes: " + " ".join(game.outcomes))
    for play in game.plays:
        assigns = " ".join(f"{a}={x}" for a, x in sorted(play.profile.as_dict().items()))
        lines.append(f"play: {play.initial}  {assigns}  {play.outcome}".rstrip())
    index_of = {play: i + 1 for i, play in enumerate(game.plays)}
    for name in sorted(game.valuation):
        indices = sorted(index_of[p] for p in game.valuation[name])
        lines.append(f"prop {name}: " + " ".join(str(i) for i in indices))
    return "\n".join(lines) + "\n"


def formula_text(f) -> str:
    """Concrete syntax, fully parenthesised, for the parser to read back."""
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Not):
        return "~" + formula_text(f.child)
    if isinstance(f, Implies):
        return f"({formula_text(f.left)} -> {formula_text(f.right)})"
    if isinstance(f, Know):
        return f"K[{','.join(sorted(f.knowers))}]" + formula_text(f.child)
    return (f"B[{','.join(sorted(f.knowers))}][{','.join(sorted(f.actors))}]"
            + formula_text(f.child))


def subsets(members):
    """Every subcoalition, by size and then lexicographically."""
    ordered = sorted(members)
    return [frozenset(c) for size in range(len(ordered) + 1)
            for c in itertools.combinations(ordered, size)]


def formula_agents(f) -> set:
    if isinstance(f, Prop):
        return set()
    if isinstance(f, Not):
        return formula_agents(f.child)
    if isinstance(f, Implies):
        return formula_agents(f.left) | formula_agents(f.right)
    if isinstance(f, Know):
        return set(f.knowers) | formula_agents(f.child)
    return set(f.knowers) | set(f.actors) | formula_agents(f.child)


def formula_props(f) -> set:
    if isinstance(f, Prop):
        return set() if f.name.startswith("__") else {f.name}
    if isinstance(f, Not):
        return formula_props(f.child)
    if isinstance(f, Implies):
        return formula_props(f.left) | formula_props(f.right)
    return formula_props(f.child)


def boolean_atom_count(f) -> int:
    """Distinct maximal non-Boolean subformulas (the truth-table width)."""
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Not):
            stack.append(g.child)
        elif isinstance(g, Implies):
            stack.extend((g.left, g.right))
        else:
            seen.add(g)
    return len(seen)


class Checker:
    """Satisfaction sets of formulas in one game, as bitmasks over plays."""

    def __init__(self, game):
        self.game = game
        self.plays = tuple(game.plays)
        self.full = (1 << len(self.plays)) - 1
        self.index = {play: i for i, play in enumerate(self.plays)}
        self.state_plays = {s: [] for s in game.initial_states}
        for i, play in enumerate(self.plays):
            self.state_plays[play.initial].append(i)
        self.profiles = [play.profile.as_dict() for play in self.plays]
        self._masks = {}
        self._classes = {}

    def classes(self, members):
        """Knowledge classes of initial states, each with its play indices."""
        key = frozenset(members)
        found = self._classes.get(key)
        if found is None:
            groups = {}
            for state in self.game.initial_states:
                sig = tuple(
                    next(k for k, block in enumerate(self.game.partitions[agent])
                         if state in block)
                    for agent in sorted(key))
                groups.setdefault(sig, []).append(state)
            found = []
            for states in groups.values():
                idx = sorted(i for s in states for i in self.state_plays[s])
                found.append((frozenset(states), idx))
            self._classes[key] = found
        return found

    def class_of(self, members, state):
        return next(c for c in self.classes(members) if state in c[0])

    def mask(self, f) -> int:
        found = self._masks.get(f)
        if found is not None:
            return found
        if isinstance(f, Prop):
            value = 0
            for play in self.game.valuation.get(f.name, ()):
                value |= 1 << self.index[play]
        elif isinstance(f, Not):
            value = self.full ^ self.mask(f.child)
        elif isinstance(f, Implies):
            value = (self.full ^ self.mask(f.left)) | self.mask(f.right)
        elif isinstance(f, Know):
            child = self.mask(f.child)
            value = 0
            for _, idx in self.classes(f.knowers):
                cls = _bits(idx)
                if cls & child == cls:
                    value |= cls
        elif isinstance(f, Blame):
            child = self.mask(f.child)
            value = 0
            for _, idx in self.classes(f.knowers):
                if self._preventer(f.actors, idx, child) is not None:
                    value |= _bits(idx)
            value &= child
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._masks[f] = value
        return value

    def _preventer(self, actors, idx, child):
        ordered = sorted(actors)
        reached = {tuple(self.profiles[i][a] for a in ordered)
                   for i in idx if child >> i & 1}
        for combo in itertools.product(self.game.actions, repeat=len(ordered)):
            if combo not in reached:
                return dict(zip(ordered, combo))
        return None

    def holds(self, play_index, f):
        """(holds, witness dict or None, refuting play index or None)."""
        value = bool(self.mask(f) >> play_index & 1)
        witness = refutation = None
        state = self.plays[play_index].initial
        if value and isinstance(f, Blame):
            _, idx = self.class_of(f.knowers, state)
            witness = self._preventer(f.actors, idx, self.mask(f.child))
        if not value and isinstance(f, Know):
            _, idx = self.class_of(f.knowers, state)
            child = self.mask(f.child)
            refutation = next(i for i in idx if not child >> i & 1)
        return value, witness, refutation

    def valid(self, f):
        """(valid, first refuting play index or None)."""
        missing = self.full ^ self.mask(f)
        if not missing:
            return True, None
        return False, (missing & -missing).bit_length() - 1

    def blame_at(self, play_index, knowers, actors, phi) -> bool:
        return bool(self.mask(Blame(frozenset(knowers), frozenset(actors), phi))
                    >> play_index & 1)

    def minimal(self, kind, play_index, knowers, actors, phi):
        """The four minimal-coalition operators, by their definitions; kind 4
        returns its first witnessing actor coalition or None."""
        universe = self.game.agents

        def blame(e, d):
            return self.blame_at(play_index, e, d, phi)

        def kind3(c, d):
            return (blame(c, d)
                    and not any(blame(e, f) for e in subsets(universe)
                                for f in subsets(d) if f != d)
                    and not any(blame(e, d) for e in subsets(c) if e != c))

        knowers = frozenset(knowers)
        if kind == 1:
            return blame(knowers, actors) and not any(
                blame(e, actors) for e in subsets(knowers) if e != knowers)
        if kind == 2:
            return blame(knowers, actors) and not any(
                blame(e, f) for e in subsets(knowers) if e != knowers
                for f in subsets(universe))
        if kind == 3:
            return kind3(knowers, frozenset(actors))
        return next((d for d in subsets(universe) if kind3(knowers, d)), None)


def _bits(indices) -> int:
    value = 0
    for i in indices:
        value |= 1 << i
    return value


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


def first_countermodel(f, naive_holds, max_agents=2, max_initial=2,
                       max_actions=2, max_outcomes=2):
    """First (game, play) of the documented exhaustive enumeration on which
    the naive evaluator falsifies f, or None."""
    base = tuple(sorted(formula_agents(f)))
    props = tuple(sorted(formula_props(f)))
    extras = tuple(n for n in PAD_AGENTS if n not in base) + tuple(
        f"z{i}" for i in range(len(base)))
    labels = [frozenset(c) for size in range(len(props) + 1)
              for c in itertools.combinations(props, size)]
    choices = [c for size in range(1, min(len(labels), max_outcomes) + 1)
               for c in itertools.combinations(labels, size)]
    low = max(1, len(base))
    for n_agents in range(low, max(low, max_agents) + 1):
        agents = (base + extras)[:n_agents]
        for n_initial in range(1, max_initial + 1):
            states = [f"s{i}" for i in range(n_initial)]
            for parts in itertools.product(_set_partitions(states), repeat=n_agents):
                partitions = dict(zip(agents, parts))
                for n_actions in range(1, max_actions + 1):
                    actions = tuple(str(i) for i in range(n_actions))
                    cells = [(s, dict(zip(agents, acts))) for s in states
                             for acts in itertools.product(actions, repeat=n_agents)]
                    for assignment in itertools.product(choices, repeat=len(cells)):
                        game = _labelled_game(agents, states, partitions, actions,
                                              cells, assignment, props)
                        for play in game.plays:
                            if not naive_holds(game, play, f):
                                return game, play
    return None


def _labelled_game(agents, states, partitions, actions, cells, assignment, props):
    outcomes = tuple(f"o{i}" for i in range(max(len(ls) for ls in assignment)))
    plays = []
    valuation = {name: [] for name in props}
    for (state, mapping), labels in zip(cells, assignment):
        for i, label in enumerate(labels):
            play = make_play(state, mapping, outcomes[i])
            plays.append(play)
            for name in label:
                valuation[name].append(play)
    return RGame(agents, states, partitions, actions, outcomes, plays, valuation)

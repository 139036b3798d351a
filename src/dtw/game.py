"""Strategic games with imperfect information about the initial state.

A game consists of initial states with one indistinguishability partition
per agent, a shared action alphabet, outcomes, a serial play relation
(every initial state and complete action profile lead to at least one
outcome), and a valuation mapping each proposition to a subset of plays.

The line-oriented file format (``#`` starts a comment)::

    agents: poddar parents university
    initial: Oct Nov
    indist parents: {Oct Nov}      # partition blocks; omitted agents and
                                   # unlisted states get singleton blocks
    actions: 0 1
    outcomes: alive dead
    play: Oct  poddar=1 parents=1 university=0  dead
    prop killed: 2 4               # 1-based indices into the play list
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from .errors import (
    EmptyInputError,
    ParseError,
    ResourceLimitError,
    UnknownAgentError,
    UnknownStateError,
    ValidationError,
)
from .formula import Coalition, coalition
from .limits import budget


@dataclass(frozen=True)
class ActionProfile:
    """A joint action of a coalition: one action per agent in its domain.

    A profile over the full agent set is complete; partial profiles are
    used to quantify over what a coalition could have done.
    """

    assignment: Tuple[Tuple[str, str], ...]  # sorted (agent, action) pairs

    @classmethod
    def make(cls, mapping) -> "ActionProfile":
        return cls(tuple(sorted(dict(mapping).items())))

    @property
    def domain(self) -> Coalition:
        return frozenset(agent for agent, _ in self.assignment)

    def as_dict(self) -> Dict[str, str]:
        return dict(self.assignment)

    def __str__(self):
        return ",".join(f"{agent}={act}" for agent, act in self.assignment)


@dataclass(frozen=True)
class Play:
    """One (initial state, complete action profile, outcome) triple."""

    initial: str
    profile: ActionProfile
    outcome: str

    def __str__(self):
        return f"{self.initial} | {self.profile} | {self.outcome}"

    def as_dict(self) -> dict:
        return {
            "initial": self.initial,
            "profile": self.profile.as_dict(),
            "outcome": self.outcome,
        }


def index_blocks(partitions: Dict[str, Tuple[Coalition, ...]]) -> Dict[str, Dict[str, int]]:
    """agent -> state -> the number of its block in the agent's partition."""
    return {agent: {state: i for i, block in enumerate(blocks) for state in block}
            for agent, blocks in partitions.items()}


class Frame:
    """The structure that ``K`` and ``B`` read, as int masks over positions:
    the plays of a game, or the play slots of a structure in exhaustive
    search.  Each coalition's blocks and each actor coalition's action rows
    are built on first use and kept."""

    def __init__(self, states, block_index, state, actions, action):
        self.states = states  # initial states
        self.block_index = block_index  # agent -> state -> its block number
        self.state = state  # initial state -> its positions
        self.actions = actions  # declared action order
        self.action = action  # (agent, action) -> positions where taken
        self._blocks: Dict[Coalition, tuple] = {}
        self._rows: Dict[Coalition, tuple] = {}

    def _check(self, members: Iterable[str]) -> None:
        for agent in sorted(members):
            if agent not in self.block_index:
                raise UnknownAgentError(f"unknown agent {agent!r}")

    def blocks(self, knowers: Coalition) -> Tuple[Dict[str, int], Tuple[int, ...]]:
        """Each initial state's block (the positions whose initial state the
        knowers cannot tell from it), and the distinct blocks."""
        found = self._blocks.get(knowers)
        if found is None:
            self._check(knowers)
            keys = {state: tuple(self.block_index[agent][state] for agent in knowers)
                    for state in self.states}
            union: Dict[tuple, int] = {}
            for state, key in keys.items():
                union[key] = union.get(key, 0) | self.state.get(state, 0)
            found = self._blocks[knowers] = (
                {state: union[key] for state, key in keys.items()},
                tuple(union.values()))
        return found

    def rows(self, actors: Coalition) -> Tuple[Tuple[int, ...], ...]:
        """Per actor in sorted order, its positions under each action in
        declared order."""
        found = self._rows.get(actors)
        if found is None:
            self._check(actors)
            found = self._rows[actors] = tuple(
                tuple(self.action.get((agent, act), 0) for act in self.actions)
                for agent in sorted(actors))
        return found


class PlayMasks(NamedTuple):
    """Sets of plays as int bitmasks: play i of ``Game.plays`` is bit i."""

    index: Dict[Play, int]  # play -> its bit position
    full: int  # every play
    prop: Dict[str, int]  # proposition -> plays in its valuation
    frame: Frame  # initial states, partitions and actions over the plays


@dataclass
class Game:
    """Validated game; treat instances as immutable after construction."""

    agents: Tuple[str, ...]
    initial_states: Tuple[str, ...]
    partitions: Dict[str, Tuple[Coalition, ...]]  # agent -> partition blocks
    actions: Tuple[str, ...]
    outcomes: Tuple[str, ...]
    plays: Tuple[Play, ...]
    valuation: Dict[str, frozenset]  # prop -> subset of plays
    _block_index: Dict[str, Dict[str, int]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._block_index = index_blocks(self.partitions)

    @functools.cached_property
    def masks(self) -> PlayMasks:
        """The game's plays as bitmasks, built on first use."""
        index, state, action = {}, {}, {}
        for i, play in enumerate(self.plays):
            index.setdefault(play, i)
            state[play.initial] = state.get(play.initial, 0) | 1 << i
            for pair in play.profile.assignment:
                action[pair] = action.get(pair, 0) | 1 << i
        prop = {name: sum(1 << index[p] for p in members if p in index)
                for name, members in self.valuation.items()}
        frame = Frame(self.initial_states, self._block_index, state,
                      self.actions, action)
        return PlayMasks(index, (1 << len(self.plays)) - 1, prop, frame)

    def has_play(self, play: Play) -> bool:
        return play in self.masks.index

    def check_agents(self, members: Iterable[str]) -> None:
        for agent in sorted(members):
            if agent not in self.partitions:
                raise UnknownAgentError(f"unknown agent {agent!r}")

    def check_state(self, state: str) -> None:
        if state not in self.initial_states:
            raise UnknownStateError(f"unknown initial state {state!r}")


def make_game(agents, initial_states, partitions, actions, outcomes, plays,
              valuation) -> Game:
    """Assemble a Game, filling in singleton blocks for unlisted states and
    missing agents, without validating (see :func:`validate_game`)."""
    agents = tuple(agents)
    initial_states = tuple(initial_states)
    full_partitions = {}
    for agent in agents:
        blocks = [frozenset(b) for b in partitions.get(agent, ())]
        covered = set().union(*blocks) if blocks else set()
        for state in initial_states:
            if state not in covered:
                blocks.append(frozenset({state}))
        full_partitions[agent] = tuple(blocks)
    return Game(
        agents=agents,
        initial_states=initial_states,
        partitions=full_partitions,
        actions=tuple(actions),
        outcomes=tuple(outcomes),
        plays=tuple(plays),
        valuation={name: frozenset(members) for name, members in valuation.items()},
    )


# ---------------------------------------------------------------------------
# Queries.
# ---------------------------------------------------------------------------

def indist_state(game: Game, members: Iterable[str], alpha: str, beta: str) -> bool:
    """True iff every agent of the coalition cannot tell alpha from beta.

    The empty coalition cannot distinguish anything (vacuous for-all).
    """
    game.check_state(alpha)
    game.check_state(beta)
    members = coalition(members)
    game.check_agents(members)
    for agent in members:
        index = game._block_index[agent]
        if index[alpha] != index[beta]:
            return False
    return True


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------

def validate_game(game: Game, seriality_budget: Optional[int] = None) -> list:
    """Check every structural invariant; return a sorted list of violation
    descriptions (empty iff the game is well-formed).

    The seriality check enumerates every (initial state, complete profile)
    pair and raises :class:`ResourceLimitError` when that grid exceeds the
    budget.
    """
    problems = []
    states = set(game.initial_states)
    if not game.initial_states:
        problems.append("no initial states declared")
    if not game.actions:
        problems.append("no actions declared")
    if not game.outcomes:
        problems.append("no outcomes declared")
    if len(set(game.agents)) != len(game.agents):
        problems.append("duplicate agent id")
    if len(states) != len(game.initial_states):
        problems.append("duplicate initial state id")
    if len(set(game.actions)) != len(game.actions):
        problems.append("duplicate action id")
    if len(set(game.outcomes)) != len(game.outcomes):
        problems.append("duplicate outcome id")

    for agent in game.partitions:
        if agent not in game.agents:
            problems.append(f"partition declared for unknown agent {agent!r}")
    for agent in game.agents:
        blocks = game.partitions.get(agent)
        if blocks is None:
            problems.append(f"agent {agent!r} has no partition")
            continue
        seen = set()
        for block in blocks:
            if not block:
                problems.append(f"partition of agent {agent!r} has an empty block")
            overlap = seen & block
            if overlap:
                problems.append(
                    f"partition overlap for agent {agent!r}: "
                    f"{sorted(overlap)} appear in two blocks"
                )
            seen |= block
        if seen - states:
            problems.append(
                f"partition of agent {agent!r} mentions unknown states "
                f"{sorted(seen - states)}"
            )
        if states - seen:
            problems.append(
                f"partition of agent {agent!r} does not cover states "
                f"{sorted(states - seen)}"
            )

    agent_set = set(game.agents)
    action_set = set(game.actions)
    outcome_set = set(game.outcomes)
    for play in game.plays:
        if play.initial not in states:
            problems.append(f"play references unknown initial state {play.initial!r}")
        if play.outcome not in outcome_set:
            problems.append(f"play references unknown outcome {play.outcome!r}")
        domain = play.profile.domain
        if domain != agent_set:
            missing = sorted(agent_set - domain)
            extra = sorted(domain - agent_set)
            parts = []
            if missing:
                parts.append(f"missing agents {missing}")
            if extra:
                parts.append(f"unknown agents {extra}")
            problems.append(f"play profile is not total: {'; '.join(parts)}")
        for _, action in play.profile.assignment:
            if action not in action_set:
                problems.append(f"play references unknown action {action!r}")
    if len(set(game.plays)) != len(game.plays):
        problems.append("duplicate play triple")

    play_set = set(game.plays)
    for name, members in game.valuation.items():
        if not members <= play_set:
            problems.append(f"valuation of {name!r} is not a subset of the plays")

    if not problems:
        grid = len(game.initial_states) * len(game.actions) ** len(game.agents)
        limit = budget("seriality-checks", seriality_budget)
        if grid > limit:
            raise ResourceLimitError(
                f"seriality check needs {grid} profile checks, budget is {limit}"
            )
        present = {(p.initial, p.profile.assignment) for p in game.plays}
        for alpha in game.initial_states:
            for combo in itertools.product(game.actions, repeat=len(game.agents)):
                profile = ActionProfile.make(dict(zip(game.agents, combo)))
                if (alpha, profile.assignment) not in present:
                    problems.append(
                        f"seriality violated: no outcome for initial state "
                        f"{alpha!r} under profile {profile}"
                    )
    return sorted(problems)


# ---------------------------------------------------------------------------
# File format.
# ---------------------------------------------------------------------------

def load_game(text: str, seriality_budget: Optional[int] = None) -> Game:
    """Parse and validate a game file.

    Raises :class:`ParseError` on malformed lines (with line/position),
    :class:`ValidationError` listing every violated invariant, and
    :class:`EmptyInputError` for blank input.
    """
    agents = None
    initial = None
    actions = None
    outcomes = None
    partitions = {}
    plays = []
    prop_lines = []

    seen_any = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        seen_any = True
        head, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(
                f"expected '<directive>: ...', got {line!r}",
                line=lineno,
                pos=raw.find(line) + 1,
                expected="one of agents, initial, indist, actions, outcomes, play, prop",
            )
        head = head.strip()
        rest = rest.strip()
        if head == "agents":
            if agents is not None:
                raise ParseError("duplicate 'agents' line", line=lineno)
            agents = rest.split()
        elif head == "initial":
            if initial is not None:
                raise ParseError("duplicate 'initial' line", line=lineno)
            initial = rest.split()
        elif head == "actions":
            if actions is not None:
                raise ParseError("duplicate 'actions' line", line=lineno)
            actions = rest.split()
        elif head == "outcomes":
            if outcomes is not None:
                raise ParseError("duplicate 'outcomes' line", line=lineno)
            outcomes = rest.split()
        elif head.startswith("indist"):
            parts = head.split()
            if len(parts) != 2:
                raise ParseError(
                    "expected 'indist <agent>: {block} ...'", line=lineno
                )
            agent = parts[1]
            if agent in partitions:
                raise ParseError(f"duplicate indist line for {agent!r}", line=lineno)
            partitions[agent] = _parse_blocks(rest, lineno)
        elif head == "play":
            plays.append((lineno, rest.split()))
        elif head.startswith("prop"):
            parts = head.split()
            if len(parts) != 2:
                raise ParseError("expected 'prop <name>: <indices>'", line=lineno)
            prop_lines.append((lineno, parts[1], rest.split()))
        else:
            raise ParseError(
                f"unknown directive {head!r}",
                line=lineno,
                expected="one of agents, initial, indist, actions, outcomes, play, prop",
            )

    if not seen_any:
        raise EmptyInputError("empty game file")

    problems = []
    for name, value in (
        ("agents", agents),
        ("initial", initial),
        ("actions", actions),
        ("outcomes", outcomes),
    ):
        if value is None:
            problems.append(f"missing '{name}' line")
    if problems:
        raise ValidationError(sorted(problems))

    for agent in partitions:
        if agent not in (agents or ()):
            problems.append(f"partition declared for unknown agent {agent!r}")

    built_plays = []
    for lineno, tokens in plays:
        if len(tokens) < 2:
            raise ParseError(
                "expected 'play: <initial> <agent>=<action> ... <outcome>'",
                line=lineno,
            )
        alpha, *assign_tokens, omega = tokens
        mapping = {}
        for token in assign_tokens:
            agent, sep, action = token.partition("=")
            if not sep or not agent or not action:
                raise ParseError(
                    f"malformed action assignment {token!r}", line=lineno,
                    expected="<agent>=<action>",
                )
            if agent in mapping:
                problems.append(
                    f"play on line {lineno} assigns agent {agent!r} twice"
                )
            mapping[agent] = action
        built_plays.append(Play(alpha, ActionProfile.make(mapping), omega))

    valuation = {}
    for lineno, name, tokens in prop_lines:
        if name in valuation:
            problems.append(f"duplicate prop {name!r}")
        members = set()
        for token in tokens:
            try:
                index = int(token)
            except ValueError:
                raise ParseError(
                    f"prop indices must be integers, got {token!r}", line=lineno
                ) from None
            if not 1 <= index <= len(built_plays):
                problems.append(
                    f"valuation of {name!r} references unknown play {index}"
                )
            else:
                members.add(built_plays[index - 1])
        valuation[name] = frozenset(members)

    game = make_game(
        agents or (), initial or (), partitions, actions or (), outcomes or (),
        built_plays, valuation,
    )
    problems.extend(validate_game(game, seriality_budget))
    if problems:
        raise ValidationError(sorted(problems))
    return game


def _parse_blocks(text: str, lineno: int):
    blocks = []
    rest = text.strip()
    while rest:
        if not rest.startswith("{"):
            raise ParseError(
                f"expected '{{' to open a partition block, got {rest[0]!r}",
                line=lineno,
            )
        end = rest.find("}")
        if end < 0:
            raise ParseError("unclosed partition block", line=lineno)
        blocks.append(frozenset(rest[1:end].split()))
        rest = rest[end + 1:].strip()
    return tuple(blocks)


def render_game_file(game: Game) -> str:
    """Emit the file format; ``load_game(render_game_file(g))`` rebuilds an
    equivalent game (play and valuation order preserved)."""
    lines = [
        "agents: " + " ".join(game.agents),
        "initial: " + " ".join(game.initial_states),
    ]
    for agent in game.agents:
        blocks = [b for b in game.partitions[agent] if len(b) > 1]
        if blocks:
            rendered = " ".join(
                "{" + " ".join(sorted(b)) + "}" for b in sorted(blocks, key=min)
            )
            lines.append(f"indist {agent}: {rendered}")
    lines.append("actions: " + " ".join(game.actions))
    lines.append("outcomes: " + " ".join(game.outcomes))
    for play in game.plays:
        assigns = " ".join(f"{a}={x}" for a, x in play.profile.assignment)
        lines.append(f"play: {play.initial}  {assigns}  {play.outcome}".rstrip())
    index_of = {play: i + 1 for i, play in enumerate(game.plays)}
    for name in sorted(game.valuation):
        indices = sorted(index_of[p] for p in game.valuation[name])
        lines.append(f"prop {name}: " + " ".join(str(i) for i in indices))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bundled example: the Tarasoff game.
# ---------------------------------------------------------------------------

def _tarasoff_outcome(initial: str, attacker: str, vacation: str) -> str:
    # Vacation action 0 = October, 1 = November; the victim is protected
    # only while the vacation month matches the month of the attack.
    peak_action = "0" if initial == "Oct" else "1"
    return "dead" if attacker == "1" and vacation != peak_action else "alive"


def tarasoff_game() -> Game:
    """Three-agent variant: the observer agent ``university`` can tell the
    initial states apart but its action never affects the outcome."""
    agents = ("poddar", "parents", "university")
    plays = []
    for initial in ("Oct", "Nov"):
        for attacker in ("0", "1"):
            for vacation in ("0", "1"):
                for observer in ("0", "1"):
                    profile = ActionProfile.make(
                        {"poddar": attacker, "parents": vacation,
                         "university": observer}
                    )
                    plays.append(
                        Play(initial, profile,
                             _tarasoff_outcome(initial, attacker, vacation))
                    )
    return make_game(
        agents=agents,
        initial_states=("Oct", "Nov"),
        partitions={"parents": (frozenset({"Oct", "Nov"}),)},
        actions=("0", "1"),
        outcomes=("alive", "dead"),
        plays=plays,
        valuation={"killed": [p for p in plays if p.outcome == "dead"]},
    )


def tarasoff2_game() -> Game:
    """Two-agent projection (attacker and protectors only), 8 plays."""
    plays = []
    for initial in ("Oct", "Nov"):
        for attacker in ("0", "1"):
            for vacation in ("0", "1"):
                profile = ActionProfile.make(
                    {"poddar": attacker, "parents": vacation}
                )
                plays.append(
                    Play(initial, profile,
                         _tarasoff_outcome(initial, attacker, vacation))
                )
    return make_game(
        agents=("poddar", "parents"),
        initial_states=("Oct", "Nov"),
        partitions={"parents": (frozenset({"Oct", "Nov"}),)},
        actions=("0", "1"),
        outcomes=("alive", "dead"),
        plays=plays,
        valuation={"killed": [p for p in plays if p.outcome == "dead"]},
    )

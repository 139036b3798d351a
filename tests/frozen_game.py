"""The package's game loader and validator as they were before loading
became one pass, frozen so that their replacement can be compared with
them: every play's profile is parsed and checked on its own line, plays
are hashed on every set or dict use, and seriality enumerates the whole
grid of initial states and complete profiles.  Two parsing differences are
intended: this loader takes any directive head that starts with ``indist``
or ``prop``, and any prop index that ``int()`` accepts."""

import itertools

from dtw.errors import EmptyInputError, ParseError, ResourceLimitError, ValidationError
from dtw.game import ActionProfile, Game, Play, make_game
from dtw.limits import budget


def naive_validate_game(game: Game) -> list:
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
        limit = budget("seriality-checks")
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


def naive_load_game(text: str) -> Game:
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
    problems.extend(naive_validate_game(game))
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

"""Direct checkers for the four minimal-coalition refinements of blame.

Each checker iterates subcoalitions and evaluates blame facts directly
instead of expanding the defining formula; it must agree with evaluating
:func:`dtw.formula.expand_minimality` (the package's own consistency
oracle).  Strict subcoalitions include the empty coalition and exclude the
coalition itself; ``kind=4`` quantifies the actor coalition existentially.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import BadParamsError, ResourceLimitError
from .formula import (Coalition, Formula, agents_of, coalition,
                      proper_subsets_of, subsets_of)
from .game import Game, Play
from .limits import budget
from .semantics import play_bit, preventing_profile, satisfaction


def _iterations_needed(kind, n_knowers, n_actors, n_agents) -> int:
    if kind == 1:
        return 2**n_knowers
    if kind == 2:
        return 2**n_knowers * 2**n_agents
    if kind == 3:
        return 2**n_agents * 2**n_actors + 2**n_knowers
    return 2**n_agents * (2**n_agents * 2**n_agents + 2**n_knowers)


def _kind3_holds(blame, knowers, actors, agents) -> bool:
    if not blame(knowers, actors):
        return False
    for e in subsets_of(agents):
        for f in proper_subsets_of(actors):
            if blame(e, f):
                return False
    for e in proper_subsets_of(knowers):
        if blame(e, actors):
            return False
    return True


def check_minimal(
    kind: int,
    game: Game,
    play: Play,
    knowers: Iterable[str],
    actors: Optional[Iterable[str]],
    phi: Formula,
    iteration_budget: Optional[int] = None,
) -> bool:
    """Does the minimal-coalition operator of the given kind hold here?

    kind 1: blame holds and no strict knower subcoalition is blamable for
    the same actors.  kind 2: ... for any actor coalition.  kind 3: also no
    strictly smaller actor coalition works for anyone.  kind 4: some actor
    coalition satisfies the kind-3 conjuncts (``actors`` must be None).
    """
    result = minimal_verdict(kind, game, play, knowers, actors, phi,
                             iteration_budget)
    return result is not None if kind == 4 else result


def minimal_verdict(
    kind: int,
    game: Game,
    play: Play,
    knowers: Iterable[str],
    actors: Optional[Iterable[str]],
    phi: Formula,
    iteration_budget: Optional[int] = None,
):
    """Like :func:`check_minimal`, but for kind 4 returns the witnessing
    actor coalition (or None when the operator fails); kinds 1-3 return a
    plain bool."""
    knowers_set = coalition(knowers)
    if kind not in (1, 2, 3, 4):
        raise BadParamsError(f"kind must be 1, 2, 3, or 4, got {kind!r}")
    game.check_agents(knowers_set | agents_of(phi))
    if kind == 4:
        if actors is not None:
            raise BadParamsError("kind 4 quantifies actors; pass actors=None")
        actors_set = frozenset()
    else:
        if actors is None:
            raise BadParamsError(f"kind {kind} requires an actor coalition")
        actors_set = coalition(actors)
        game.check_agents(actors_set)

    agents = frozenset(game.agents)
    needed = _iterations_needed(kind, len(knowers_set), len(actors_set),
                                len(agents))
    limit = budget("minimality-iterations", iteration_budget)
    if needed > limit:
        raise ResourceLimitError(
            f"minimality check needs {needed} subcoalition checks, "
            f"budget is {limit}"
        )

    bit = play_bit(game, play)
    body = satisfaction(game, phi)[phi]
    frame = game.masks.frame

    def blame(e: Coalition, f: Coalition) -> bool:
        """Does B[e][f] phi hold at the play?"""
        return bool(body >> bit & 1) and preventing_profile(
            frame, e, f, play.initial, body) is not None

    if kind == 1:
        return blame(knowers_set, actors_set) and not any(
            blame(e, actors_set) for e in proper_subsets_of(knowers_set)
        )
    if kind == 2:
        return blame(knowers_set, actors_set) and not any(
            blame(e, f)
            for e in proper_subsets_of(knowers_set)
            for f in subsets_of(agents)
        )
    if kind == 3:
        return _kind3_holds(blame, knowers_set, actors_set, agents)
    for candidate in subsets_of(agents):
        if _kind3_holds(blame, knowers_set, candidate, agents):
            return candidate
    return None

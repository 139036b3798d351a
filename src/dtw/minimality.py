"""Direct checkers for the four minimal-coalition refinements of blame.

Each checker evaluates blame facts at the play, testing only the
subcoalitions one agent smaller (blame is monotone in both coalitions),
instead of expanding the defining formula; it must agree with evaluating
:func:`dtw.formula.expand_minimality` (the package's own consistency
oracle).  ``kind=4`` quantifies the actor coalition existentially.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import BadParamsError, ResourceLimitError
from .evaluation import _masks, play_bit, preventing_profile
from .formula import Coalition, Formula, coalition, compile_masks, subsets_of
from .game import Game, Play
from .limits import budget


def _iterations_needed(kind, n_knowers, n_actors, n_agents) -> int:
    if kind == 1:
        return 2**n_knowers
    if kind == 2:
        return 2**n_knowers * 2**n_agents
    if kind == 3:
        return 2**n_agents * 2**n_actors + 2**n_knowers
    return 2**n_agents * (2**n_agents * 2**n_agents + 2**n_knowers)


def check_minimal(
    kind: int,
    game: Game,
    play: Play,
    knowers: Iterable[str],
    actors: Optional[Iterable[str]],
    phi: Formula,
) -> bool:
    """Does the minimal-coalition operator of the given kind hold here?

    kind 1: blame holds and no strict knower subcoalition is blamable for
    the same actors.  kind 2: ... for any actor coalition.  kind 3: also no
    strictly smaller actor coalition works for anyone.  kind 4: some actor
    coalition satisfies the kind-3 conjuncts (``actors`` must be None).
    Raises :class:`ResourceLimitError` when the subcoalition pairs exceed
    the ``minimality-iterations`` budget (``DTW_BUDGET`` or the default).
    """
    result = minimal_verdict(kind, game, play, knowers, actors, phi)
    return result is not None if kind == 4 else result


def minimal_verdict(
    kind: int,
    game: Game,
    play: Play,
    knowers: Iterable[str],
    actors: Optional[Iterable[str]],
    phi: Formula,
):
    """Like :func:`check_minimal`, but for kind 4 returns the witnessing
    actor coalition (or None when the operator fails); kinds 1-3 return a
    plain bool.  Refuses the same budget as :func:`check_minimal`, and
    warns as :func:`dtw.evaluation.holds` does."""
    knowers_set = coalition(knowers)
    if kind not in (1, 2, 3, 4):
        raise BadParamsError(f"kind must be 1, 2, 3, or 4, got {kind!r}")
    program = compile_masks(phi)
    game.check_agents(knowers_set | program.agents())
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
    limit = budget("minimality-iterations")
    if needed > limit:
        raise ResourceLimitError(
            f"minimality check needs {needed} subcoalition checks, "
            f"budget is {limit}"
        )

    bit = play_bit(game, play)
    body = _masks(game, program)[-1]
    if not body >> bit & 1:  # every blame fact needs phi at the play
        return None if kind == 4 else False
    frame = game.masks.frame

    def blame(e: Coalition, f: Coalition) -> bool:
        """Does B[e][f] phi hold at the play?  (phi does.)"""
        return preventing_profile(frame, e, f, play.initial, body) is not None

    # Monotonicity-B, B[C][D]phi -> B[E][F]phi for C <= E and D <= F, makes
    # blame monotone in both coalitions: some strict subcoalition is
    # blamable iff some subcoalition one agent smaller is.
    def minimal(actors: Coalition, rivals: Coalition) -> bool:
        """Blame for these actors, and none for the rivals by fewer knowers."""
        return blame(knowers_set, actors) and not any(
            blame(knowers_set - {a}, rivals) for a in knowers_set)

    def kind3(actors: Coalition) -> bool:
        return minimal(actors, actors) and not any(
            blame(agents, actors - {a}) for a in actors)

    if kind == 4:
        return next((d for d in subsets_of(agents) if kind3(d)), None)
    return kind3(actors_set) if kind == 3 else minimal(
        actors_set, actors_set if kind == 1 else agents)

"""The truth definition: evaluation of formulas at plays and validity in
a game.  ``dtw check``, ``valid`` and ``minimal`` evaluate with this
module and never run the search half of the package,
:mod:`dtw.semantics`, which builds on :func:`_truth` and
:func:`_modal_mask` here.

Truth follows the satisfaction relation: a proposition holds at the plays
in its valuation; ``K[C] f`` holds at a play when f holds at every play
whose initial state C cannot distinguish from its own (its C-block); and
``B[C][D] f`` holds when f does and some joint action of D falsifies f on
every play of the C-block.  The evaluator computes satisfaction sets: play
i of a game is bit i, and a formula evaluates to the int mask of the plays
where it holds, with joint actions tried by ANDing per-(agent, action)
masks.  Blame witnesses are enumerated in lexicographic order (sorted
actor agents x declared action order) and the first one found is
reported.
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional

from . import axioms
from .errors import UnknownPlayError
from .formula import (
    Blame,
    Coalition,
    Formula,
    Know,
    Prop,
    RESERVED_PREFIX,
    Record,
    agents_of,
    compile_masks,
    run_masks,
)
from .game import ActionProfile, Frame, Game, Play


class Verdict(Record):
    """Result of a single query.

    ``witness`` is set only for a true top-level blame query (the joint
    action the actors could have used); ``refutation`` only for a failed
    knowledge or validity query (the first falsifying play).
    """

    _names = ("holds", "witness", "refutation")

    def __init__(self, holds: bool, witness: Optional[ActionProfile] = None,
                 refutation: Optional[Play] = None):
        self.holds, self.witness, self.refutation = holds, witness, refutation

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "witness": self.witness.as_dict() if self.witness else None,
            "refutation": self.refutation.as_dict() if self.refutation else None,
        }



def _modal_mask(frame: Frame, knowers: Coalition, actors: Optional[Coalition],
                full: int, body: int) -> int:
    """Where ``K[knowers]`` (actors None) or ``B[knowers][actors]`` holds
    among the positions of ``full``, given body, the mask of its child, lane
    by lane (see :class:`Frame`).

    ``K[C]`` keeps a C-block (restricted to full) in the lanes where it lies
    inside body.  ``B[C][D]`` keeps block & body in the lanes where some
    joint action of D rules out all of it.  Distinct blocks are disjoint.
    """
    guard, low, shift = frame.guard, frame.low, frame.shift
    rows = None if actors is None else frame.rows(actors)
    out = 0
    for block in frame.blocks(knowers)[1]:
        if rows is None:
            live = block & full
            kept = guard & ~((live & ~body) + low)
        else:
            live = block & body
            kept = _prevented(live, rows, guard, low)
        if kept:
            out |= live if kept == guard else live & (kept - (kept >> shift))
    return out


def _prevented(live: int, rows: tuple, guard: int, low: int) -> int:
    """The guard bits of the lanes where some joint action of the actors
    rules out every position of live (``rows`` as in _first_preventing).
    A lane's x is zero iff x + low leaves its guard bit clear."""
    if not rows:
        return guard & ~(live + low)
    out = 0
    for taken in rows[0]:
        out |= _prevented(live & taken, rows[1:], guard, low)
        if out == guard:
            break
    return out


def _first_preventing(live: int, rows: tuple) -> Optional[tuple]:
    """Indices of the first actions of the actors, in lexicographic order,
    under which none of the positions in ``live`` can happen, else None.
    ``rows`` holds, per actor, its positions under each action."""
    if not rows:
        return () if live == 0 else None
    for i, taken in enumerate(rows[0]):
        rest = _first_preventing(live & taken, rows[1:])
        if rest is not None:
            return (i,) + rest
    return None


def _first_play(game: Game, mask: int) -> Optional[Play]:
    """The play of the lowest bit set in mask, else None."""
    return game.plays[(mask & -mask).bit_length() - 1] if mask else None


def _truth(program, frame: Frame, full: int, prop, subst=None) -> list:
    """The mask of each node of the compiled formula among the positions of
    full, in program order: a proposition holds where ``prop`` maps its
    name, else nowhere, and ``K`` and ``B`` nodes follow _modal_mask.

    With ``subst``, the program is a schema's pattern: its coalitions are
    metavariables, each resolved as :func:`axioms.instantiate` does, and
    ``prop`` maps each formula metavariable to its value's mask.
    """
    nodes = program.nodes
    coal = (lambda names: names) if subst is None else (
        lambda names: axioms._build_coal(names, subst))

    def leaf(i, body):
        f = nodes[i]
        if isinstance(f, Prop):
            return prop.get(f.name, 0)
        actors = coal(f.actors) if isinstance(f, Blame) else None
        return _modal_mask(frame, coal(f.knowers), actors, full, body)

    return run_masks(program, full, leaf)


def _warn_unvalued(valued, names) -> None:
    """Warn once per proposition name that is not among the valued names,
    in the order they first occur."""
    for name in dict.fromkeys(names):
        if name not in valued and not name.startswith(RESERVED_PREFIX):
            warnings.warn(f"proposition {name!r} has no valuation in this game; "
                          "treating it as false everywhere")


def satisfaction(game: Game, f: Formula) -> Dict[Formula, int]:
    """The plays where each subformula of f holds, by subformula.  Warns
    once per proposition of f without a valuation, in the order they first
    occur in f."""
    program = compile_masks(f)
    _warn_unvalued(game.valuation, (g.name for g in program.nodes if isinstance(g, Prop)))
    masks = game.masks
    return dict(zip(program.nodes,
                    _truth(program, masks.frame, masks.full, masks.prop)))


def play_bit(game: Game, play: Play) -> int:
    """The bit of the play in the game's masks."""
    bit = game.masks.index.get(play)
    if bit is None:
        raise UnknownPlayError(f"not a play of this game: {play}")
    return bit


def preventing_profile(frame: Frame, knowers: Coalition, actors: Coalition,
                       alpha: str, body: int) -> Optional[ActionProfile]:
    """First joint action of the actors under which no position of body
    that the knowers cannot tell apart from initial state alpha happens,
    else None."""
    acts = _first_preventing(frame.blocks(knowers)[0][alpha] & body,
                             frame.rows(actors))
    if acts is None:
        return None
    return ActionProfile.make(zip(sorted(actors), (frame.actions[i] for i in acts)))


def holds(game: Game, play: Play, f: Formula) -> Verdict:
    """Evaluate f at one play of the game.

    Propositions without a valuation are treated as false everywhere; each
    one f mentions draws one warning per call, whether or not its value
    decides the verdict.  Raises UnknownAgentError when f names agents
    outside the game and UnknownPlayError when the play is not in the play
    relation.
    """
    game.check_agents(agents_of(f))
    bit = play_bit(game, play)
    truth = satisfaction(game, f)
    value = bool(truth[f] >> bit & 1)
    frame = game.masks.frame
    witness = refutation = None
    if value and isinstance(f, Blame):
        witness = preventing_profile(frame, f.knowers, f.actors, play.initial,
                                     truth[f.child])
    if not value and isinstance(f, Know):
        refutation = _first_play(game, frame.blocks(f.knowers)[0][play.initial]
                                 & ~truth[f.child])
    return Verdict(value, witness=witness, refutation=refutation)


def valid_in_game(game: Game, f: Formula) -> Verdict:
    """True iff f holds at every play; else the first falsifying play in
    declaration order is reported as the refutation."""
    game.check_agents(agents_of(f))
    refutation = _first_play(game, game.masks.full ^ satisfaction(game, f)[f])
    return Verdict(refutation is None, refutation=refutation)


"""Independent oracles and shared generators for the test suite.

The naive evaluator below is a direct transcription of the satisfaction
clauses with no caching, its own witness search in the documented order,
and its own indistinguishability test; it deliberately shares no code with
the package evaluator so the two can cross-check each other.  The truth
table likewise evaluates one row at a time, independently of the
package's bit-sliced check.  Earlier implementations frozen for
comparison live apart: the enumerator and per-model countermodel search in
``frozen_search.py``, the parser in ``frozen_parser.py``.
"""

import itertools
import random

from dtw.formula import Blame, Implies, Know, Not, Prop, coalition
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

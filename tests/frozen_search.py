"""Earlier versions of the package's exhaustive enumerator, per-model
countermodel search, soundness fuzzer, game sampler and instance drawer,
frozen so that their replacements can be compared with them:
``naive_models`` builds one Game per model in the documented order,
``stream_countermodel`` evaluates the package's model stream one model at a
time, ``frozen_sample_game`` builds every sampled game play by play,
``sample_instantiation`` draws every metavariable value as a formula,
``stream_fuzz`` builds and compiles every fuzz instance on those games, and
``stream_random_countermodel`` runs ``valid_in_game`` on each of them."""

import itertools
import random

from dtw import axioms
from dtw.errors import BadParamsError, ResourceLimitError
from dtw.formula import (Blame, Implies, Know, Not, Prop, agents_of, compile_masks,
                         props_of)
from dtw.game import ActionProfile, Play, make_game
from dtw.limits import budget
from dtw.semantics import FuzzCounterexample, _truth, enumerate_games, valid_in_game

_AGENT_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")
_PROP_NAMES = ("p", "q", "r", "s", "t")


def _check_pool(what, bound, names):
    if bound > len(names):
        raise BadParamsError(f"max_{what} is {bound}, but only {len(names)} "
                             f"{what[:-1]} names are available")


def _power(base, exponent, cap):
    if base < 2:
        return base ** exponent
    out = 1
    for _ in range(exponent):
        out *= base
        if out > cap:
            break
    return out


def _random_partition(rng, items):
    labels = [rng.randrange(len(items)) for _ in items]
    blocks = {}
    for item, label in zip(items, labels):
        blocks.setdefault(label, set()).add(item)
    return tuple(frozenset(b) for _, b in sorted(blocks.items()))


def frozen_sample_game(rng, bounds, agents=None, prop_names=None):
    """The package's game sampler as it was when it built every game play
    by play: the same draws from rng, in the same order, and the same
    refusals (agent pool, then seriality budget, then prop pool)."""
    if agents is None:
        _check_pool("agents", bounds.max_agents, _AGENT_NAMES)
        agents = _AGENT_NAMES[: rng.randint(1, bounds.max_agents)]
    limit = budget("seriality-checks")
    grid = bounds.max_initial * _power(bounds.max_actions, bounds.max_agents, limit)
    if grid > limit:
        raise ResourceLimitError(
            f"random sampling could build at least {grid} (initial state, "
            f"profile) cells per game, budget is {limit}"
        )
    n_initial = rng.randint(1, bounds.max_initial)
    states = [f"s{i}" for i in range(n_initial)]
    partitions = {agent: _random_partition(rng, states) for agent in agents}
    actions = tuple(str(i) for i in range(rng.randint(1, bounds.max_actions)))
    n_outcomes = rng.randint(1, bounds.max_outcomes)
    outcomes = tuple(f"o{i}" for i in range(n_outcomes))
    if prop_names is None:
        _check_pool("props", bounds.max_props, _PROP_NAMES)
        prop_names = _PROP_NAMES[: rng.randint(1, bounds.max_props)]
    plays = []
    for alpha in states:
        for combo in itertools.product(actions, repeat=len(agents)):
            profile = ActionProfile.make(dict(zip(agents, combo)))
            count = 2 if n_outcomes > 1 and rng.random() < 0.2 else 1
            picked = rng.sample(outcomes, count)
            for omega in picked:
                plays.append(Play(alpha, profile, omega))
    valuation = {
        name: [p for p in plays if rng.random() < 0.5] for name in prop_names
    }
    return make_game(agents, states, partitions, actions, outcomes, plays,
                     valuation)


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


def stream_countermodel(f, bounds):
    """Exhaustive countermodel search one model at a time, frozen: the
    first model of the package's stream that falsifies f, as (game, play)
    at its lowest falsified slot, or None."""
    program = compile_masks(f)
    for model in enumerate_games(tuple(sorted(agents_of(f))),
                                 tuple(sorted(props_of(f))), bounds):
        missed = missed_slots(model, program)
        if missed:
            return model.answer(missed)
    return None


def missed_slots(model, program):
    """The present slots of one model where the compiled formula fails,
    evaluated on its structure's one-lane frame."""
    s = model.structure
    prop = dict(zip(s.props, model.prop))
    return model.full ^ _truth(program, s.frame, model.full, prop)[-1]


def random_formula(rng, props, agents, depth=3):
    """Random formula of modal depth at most ``depth``, built node by node."""
    if depth <= 0 or rng.random() < 0.3:
        return Prop(rng.choice(props))
    pick = rng.randrange(4)
    if pick == 0:
        return Not(random_formula(rng, props, agents, depth - 1))
    if pick == 1:
        return Implies(
            random_formula(rng, props, agents, depth - 1),
            random_formula(rng, props, agents, depth - 1),
        )
    if pick == 2:
        return Know(_random_coalition(rng, agents),
                    random_formula(rng, props, agents, depth - 1))
    return Blame(
        _random_coalition(rng, agents),
        _random_coalition(rng, agents),
        random_formula(rng, props, agents, depth - 1),
    )


def _random_coalition(rng, agents):
    return frozenset(agent for agent in agents if rng.random() < 0.5)


def sample_instantiation(rng, schema, agents, props, enforce_side_conditions=True):
    """The package's metavariable assignment as it was when it drew every
    formula value as nodes: formula metavariables, then coalition
    metavariables, in sorted order, then the side conditions enforced, or
    each violated by one agent drawn from ``agents``."""
    props = tuple(props) or ("p",)
    agents = tuple(agents)
    subst = {
        name: random_formula(rng, props, agents, depth=3)
        for name in schema.formula_vars
    }
    for name in schema.coalition_vars:
        subst[name] = _random_coalition(rng, agents)
    for kind, a, b in schema.side:
        if enforce_side_conditions:
            if kind == "subset":
                subst[b] = subst[b] | subst[a]
            else:
                subst[b] = subst[b] - subst[a]
        elif agents:
            agent = {rng.choice(agents)}
            subst[a] = subst[a] | agent
            subst[b] = subst[b] - agent if kind == "subset" else subst[b] | agent
    return subst


def fuzz_draws(schema, bounds, enforce_side_conditions=True):
    """What each iteration of soundness fuzzing draws, frozen: its game (a
    Game of ``frozen_sample_game`` in random mode, a Model of the package's
    stream in exhaustive mode), its schema and its substitution, drawn by
    the frozen ``sample_instantiation``."""
    schemas = [axioms.ALL_SCHEMAS[name] for name in axioms.resolve_fuzz_group(schema)]

    def instance(agents, props):
        picked = schemas[rng.randrange(len(schemas))]
        return picked, sample_instantiation(rng, picked, agents, props,
                                            enforce_side_conditions)

    if bounds.mode == "random":
        rng = random.Random(bounds.seed)
        pool_size = max(1, min(200, bounds.iterations))
        pool = [frozen_sample_game(rng, bounds) for _ in range(pool_size)]
        for iteration in range(bounds.iterations):
            game = pool[iteration % pool_size]
            yield (game, *instance(game.agents, tuple(sorted(game.valuation))))
        return
    rng = random.Random(bounds.seed if bounds.seed is not None else 0)
    props = ("p", "q", "r", "s", "t")[: bounds.max_props]
    for model in enumerate_games((), props, bounds):
        for _ in range(3):
            yield (model, *instance(model.structure.agents, props))


def stream_fuzz(schema, bounds, enforce_side_conditions=True):
    """Soundness fuzzing as it was before schemas were compiled once: every
    instance of ``fuzz_draws`` is built with ``axioms.instantiate`` and
    evaluated on its own, by ``valid_in_game`` on its game in random mode
    and by a fresh mask program on its model in exhaustive mode."""
    draws = fuzz_draws(schema, bounds, enforce_side_conditions)
    for iteration, (where, picked, subst) in enumerate(draws):
        f = axioms.instantiate(picked, subst)
        if bounds.mode == "random":
            game, play = where, valid_in_game(where, f).refutation
        else:
            missed = missed_slots(where, compile_masks(f))
            game, play = where.answer(missed) if missed else (None, None)
        if play is not None:
            return FuzzCounterexample(picked.name, game, play, f, subst, iteration)
    return None


def stream_random_countermodel(f, bounds):
    """Random countermodel search one game at a time, frozen: the first
    game of ``frozen_sample_game``'s stream where f is not valid, with its
    first falsifying play, or None."""
    base = tuple(sorted(agents_of(f)))
    props = tuple(sorted(props_of(f)))
    rng = random.Random(bounds.seed)
    names = base + tuple(n for n in _AGENT_NAMES if n not in base)
    for _ in range(bounds.iterations):
        n_agents = rng.randint(max(1, len(base)), bounds.max_agents)
        game = frozen_sample_game(rng, bounds, agents=names[:n_agents],
                                  prop_names=props or None)
        verdict = valid_in_game(game, f)
        if not verdict.holds:
            return game, verdict.refutation
    return None


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

"""Bounded countermodel search and randomized soundness fuzzing of the
axiom schemas: random sampling of games and formulas, the exhaustive
enumeration of small games canonical up to renaming, and the lane batches
that evaluate many enumerated models in one run of a formula's mask
program.  Only ``dtw countermodel`` and ``dtw fuzz`` run this module.

The truth definition itself lives in :mod:`dtw.evaluation`; the search
evaluates with its :func:`_truth` and :func:`_modal_mask`.  ``Verdict``,
``holds`` and ``valid_in_game`` are re-exported here, so that code that
imports them from this module keeps working.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from . import axioms
from .errors import BadParamsError, ResourceLimitError
from .evaluation import Verdict as Verdict
from .evaluation import _modal_mask, _truth
from .evaluation import holds as holds
from .evaluation import valid_in_game as valid_in_game
from .formula import (
    Blame,
    Coalition,
    Formula,
    Frozen,
    Implies,
    Know,
    Not,
    Prop,
    Record,
    compile_masks,
    write_slot,
)
from .game import ActionProfile, Frame, Game, Play, index_blocks, make_game
from .limits import budget


class SearchBounds(Frozen):
    """Model-size bounds plus search mode for fuzzing and countermodels.
    Every field has a default; ``mode`` is "exhaustive" or "random"."""

    _names = __slots__ = ("max_agents", "max_initial", "max_actions", "max_outcomes",
                          "max_props", "mode", "seed", "iterations")

    def __init__(self, max_agents: int = 2, max_initial: int = 2,
                 max_actions: int = 2, max_outcomes: int = 2, max_props: int = 1,
                 mode: str = "exhaustive", seed: Optional[int] = None,
                 iterations: int = 1000):
        write_slot(self, "max_agents", max_agents)
        write_slot(self, "max_initial", max_initial)
        write_slot(self, "max_actions", max_actions)
        write_slot(self, "max_outcomes", max_outcomes)
        write_slot(self, "max_props", max_props)
        write_slot(self, "mode", mode)
        write_slot(self, "seed", seed)
        write_slot(self, "iterations", iterations)
        for name in self._names[:5] + ("iterations",):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise BadParamsError(f"{name} must be an integer, got {value!r}")
            if value < 1 and name != "iterations":
                raise BadParamsError(f"{name} must be at least 1")
        if self.iterations < 0:
            raise BadParamsError(f"iterations must be at least 0, got {self.iterations}")
        if self.mode not in ("exhaustive", "random"):
            raise BadParamsError(f"mode must be exhaustive or random, got {self.mode!r}")
        if self.mode == "random" and self.seed is None:
            raise BadParamsError("random mode requires an explicit seed")
        if self.seed is not None and not isinstance(
                self.seed, (int, float, str, bytes, bytearray)):
            raise BadParamsError("seed must be an int, float, str, bytes or "
                                 f"bytearray, got {self.seed!r}")


# ---------------------------------------------------------------------------
# Random sampling of games and formulas.
# ---------------------------------------------------------------------------

_AGENT_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")
_PROP_NAMES = ("p", "q", "r", "s", "t")
_NODES = (Prop, Not, Implies, Know, Blame)  # random_formula's constructors


def _check_pool(what: str, bound: int, names) -> None:
    """Refuse a bound past the pool of names it draws from, which would
    otherwise cap the search at the pool's size without a word."""
    if bound > len(names):
        raise BadParamsError(f"max_{what} is {bound}, but only {len(names)} "
                             f"{what[:-1]} names are available")


def _random_partition(rng: random.Random, items) -> Tuple[Coalition, ...]:
    labels = [rng.randrange(len(items)) for _ in items]
    blocks: Dict[int, set] = {}
    for item, label in zip(items, labels):
        blocks.setdefault(label, set()).add(item)
    return tuple(frozenset(b) for _, b in sorted(blocks.items()))


def sample_game(
    rng: random.Random,
    bounds: SearchBounds,
    agents: Optional[Tuple[str, ...]] = None,
) -> Game:
    """One random game within the bounds: random partitions, a random serial
    play relation (occasionally nondeterministic), and a random valuation.

    Raises ResourceLimitError when the largest grid of (initial state,
    profile) cells that the bounds allow exceeds the ``seriality-checks``
    budget (``DTW_BUDGET`` or the default)."""
    _check_sampling(bounds, _AGENT_NAMES if agents is None else None, True)
    return _sample(rng, bounds, agents).game()


def _check_sampling(bounds: SearchBounds, agent_pool, draw_props: bool) -> None:
    """Refuse bounds that sampling cannot honour, in this order: more agents
    than the names of agent_pool (unless None), a largest grid of (initial
    state, profile) cells or max_outcomes over the seriality budget, and,
    when the propositions are drawn, more of them than there are names."""
    if agent_pool is not None:
        _check_pool("agents", bounds.max_agents, agent_pool)
    limit = budget("seriality-checks")
    grid = bounds.max_initial * _power(bounds.max_actions, bounds.max_agents, limit)
    if grid > limit:
        raise ResourceLimitError(
            f"random sampling could build at least {grid} (initial state, "
            f"profile) cells per game, budget is {limit}"
        )
    if bounds.max_outcomes > limit:
        raise ResourceLimitError(f"random sampling could draw from {bounds.max_outcomes} "
                                 f"outcomes per game, budget is {limit}")
    if draw_props:
        _check_pool("props", bounds.max_props, _PROP_NAMES)


def _sample(rng: random.Random, bounds: SearchBounds,
            agents: Optional[Tuple[str, ...]] = None,
            prop_names: Optional[Tuple[str, ...]] = None) -> Model:
    """The game sample_game draws, without its checks, as a model whose
    play i is bit i.

    Per cell, in row-major order, a second outcome is drawn with
    probability 0.2 when there is more than one; each proposition then
    holds at each play with probability 1/2.  An initial state's plays are
    one run of bits."""
    if agents is None:
        agents = _AGENT_NAMES[: rng.randint(1, bounds.max_agents)]
    states = tuple(f"s{i}" for i in range(rng.randint(1, bounds.max_initial)))
    partitions = {agent: _random_partition(rng, states) for agent in agents}
    actions = tuple(str(i) for i in range(rng.randint(1, bounds.max_actions)))
    n_outcomes = rng.randint(1, bounds.max_outcomes)
    if prop_names is None:
        prop_names = _PROP_NAMES[: rng.randint(1, bounds.max_props)]
    draw, pick, outcomes = rng.random, rng.sample, range(n_outcomes)
    n_profiles = len(actions) ** len(agents)
    picked, state, by_profile, bit = [], {}, [0] * n_profiles, 0
    for alpha in states:
        start = bit
        for j in range(n_profiles):
            count = 2 if n_outcomes > 1 and draw() < 0.2 else 1
            picked.append(pick(outcomes, count))
            by_profile[j] |= ((1 << count) - 1) << bit
            bit += count
        state[alpha] = (1 << bit) - (1 << start)
    prop = tuple(sum(1 << i for i in range(bit) if draw() < 0.5) for _ in prop_names)
    frame = Frame(states, index_blocks(partitions), state, actions,
                  _action_rows(agents, actions, by_profile), bit)
    structure = Structure(agents, states, partitions, actions, len(picked),
                          prop_names, frame)
    return Model(structure, (1 << bit) - 1, prop, n_outcomes, picked)


def _action_rows(agents, actions, by_profile) -> Dict[Tuple[str, str], int]:
    """Each (agent, action)'s positions: the OR of by_profile's positions
    of the profiles that take it, profiles in itertools.product order."""
    # Profile j gives the k-th agent the action numbered by the k-th digit,
    # most significant first, of j in base |actions|.
    action = {}
    stride = len(by_profile)
    for agent in agents:
        stride //= len(actions)
        for j, bits in enumerate(by_profile):
            key = (agent, actions[j // stride % len(actions)])
            action[key] = action.get(key, 0) | bits
    return action


def random_formula(
    rng: random.Random,
    props: Tuple[str, ...],
    agents: Tuple[str, ...],
    depth: int = 3,
    make: tuple = _NODES,
):
    """Random formula of modal depth at most ``depth`` over the given
    propositions and agents, built with ``make``'s constructors for a
    proposition, ``~``, ``->``, ``K`` and ``B`` (see _mask_algebra)."""
    if depth <= 0 or rng.random() < 0.3:
        return make[0](rng.choice(props))
    pick = rng.randrange(4)
    depth -= 1
    if pick == 0:
        return make[1](random_formula(rng, props, agents, depth, make))
    if pick == 1:
        return make[2](random_formula(rng, props, agents, depth, make),
                       random_formula(rng, props, agents, depth, make))
    if pick == 2:
        return make[3](_random_coalition(rng, agents),
                       random_formula(rng, props, agents, depth, make))
    return make[4](_random_coalition(rng, agents), _random_coalition(rng, agents),
                   random_formula(rng, props, agents, depth, make))


def _mask_algebra(frame: Frame, full: int, prop) -> tuple:
    """random_formula's constructors over masks: a formula drawn with them
    is the mask _truth gives it among the positions of full."""
    return (lambda name: prop.get(name, 0), lambda child: full ^ child,
            lambda left, right: (full ^ left) | right,
            lambda knowers, child: _modal_mask(frame, knowers, None, full, child),
            lambda knowers, actors, child: _modal_mask(frame, knowers, actors,
                                                       full, child))


def _random_coalition(rng: random.Random, agents: Tuple[str, ...]) -> Coalition:
    return frozenset(agent for agent in agents if rng.random() < 0.5)


def sample_instantiation(
    rng: random.Random,
    schema: axioms.Schema,
    agents: Tuple[str, ...],
    props: Tuple[str, ...],
    enforce_side_conditions: bool = True,
    make: tuple = _NODES,
) -> dict:
    """Random metavariable assignment for a schema over the given agents
    and proposition names (``p`` when there are none): formula
    metavariables first, then coalition metavariables, in sorted order.

    With ``enforce_side_conditions`` the assignment is adjusted to satisfy
    the schema's side conditions.  Without it, each side condition is
    deliberately violated by one agent drawn from ``agents``: ``subset(a,
    b)`` moves it into a and out of b, and ``disjoint(a, b)`` puts it in
    both.  Formula values are built with ``make``, as random_formula's.
    """
    props = tuple(props) or ("p",)
    agents = tuple(agents)
    subst = {name: random_formula(rng, props, agents, 3, make)
             for name in schema.formula_vars}
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


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small games, canonical up to renaming.
# ---------------------------------------------------------------------------
#
# Truth at a play depends on the play only through its initial state, its
# complete profile, and the set of propositions true at it; outcome ids in
# themselves are semantically inert, and two plays of one cell (initial
# state, profile) with the same proposition labels are indistinguishable by
# every formula.  Enumerating, per cell, a nonempty set of proposition
# labels (capped by the outcome bound) therefore covers all games within
# the bounds up to renaming of states/actions/outcomes and duplication of
# equally-labeled plays.  Enumeration order: agent count, then initial-state
# count, then per-agent partitions, then action count, then the per-cell
# label assignment as an odometer (cells in row-major order, label sets in
# (size, index) order).
#
# A structure (agents, initial states, partitions, actions) is laid out
# once as play slots: slot i of cell c is bit c*W + i, where W is the
# largest label-set size, and a cell labelled with k labels has plays in
# its first k slots, the i-th with outcome o<i>.  A model is then only the
# mask of present slots plus one slot mask per proposition, and the
# odometer moves between models by XOR-ing the masks of the cells whose
# labels change.  A Game is built only for a model that is returned.

def _set_partitions(items: List[str]) -> List[Tuple[frozenset, ...]]:
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


def _label_choices(props: Tuple[str, ...], max_outcomes: int) -> List[Tuple[frozenset, ...]]:
    labels = [frozenset(c)
              for size in range(len(props) + 1)
              for c in itertools.combinations(props, size)]
    choices = []
    for size in range(1, min(len(labels), max_outcomes) + 1):
        choices.extend(tuple(c) for c in itertools.combinations(labels, size))
    return choices


def _bell(n: int) -> int:
    """Number of set partitions of n items, by the Bell triangle."""
    row = [1]
    for _ in range(n):
        grown = [row[-1]]
        for value in row:
            grown.append(grown[-1] + value)
        row = grown
    return row[0]


def _power(base: int, exponent: int, cap: Optional[int]) -> int:
    """base ** exponent, or, when that exceeds cap, some number over cap
    that is at most base ** exponent (found in about log2(cap) steps)."""
    if cap is None or base < 2:
        return base ** exponent
    out = 1
    for _ in range(exponent):
        out *= base
        if out > cap:
            break
    return out


def count_models(formula_agents: Tuple[str, ...], props: Tuple[str, ...],
                 bounds: SearchBounds, limit: Optional[int] = None) -> int:
    """Number of candidate models the exhaustive enumeration will visit.

    With a limit, counting stops once the total passes it: a result over
    the limit is then a lower bound, and a result within it is exact.
    """
    total = 0
    n_choices = len(_label_choices(props, bounds.max_outcomes))
    min_agents = max(1, len(formula_agents))
    for n_agents in range(min_agents, max(min_agents, bounds.max_agents) + 1):
        for n_initial in range(1, bounds.max_initial + 1):
            parts = _power(_bell(n_initial), n_agents, limit)
            for n_actions in range(1, bounds.max_actions + 1):
                cells = n_initial * n_actions**n_agents
                total += parts * _power(n_choices, cells, limit)
                if limit is not None and total > limit:
                    return total
    return total


class Structure(NamedTuple):
    """What the models of one step of the enumeration share, or what one
    sample drew before its plays: agents, initial states, partitions and
    actions, laid out as positions.  An enumerated structure gives each
    cell ``width`` play slots; a sample's positions are its plays."""

    agents: Tuple[str, ...]
    states: Tuple[str, ...]
    partitions: Dict[str, Tuple[Coalition, ...]]
    actions: Tuple[str, ...]
    cells: int  # (initial state, profile) cells, in row-major order
    props: Tuple[str, ...]
    frame: Frame  # states, partitions and actions over the positions
    width: int = 0  # slots per cell
    choices: tuple = ()  # per label choice: its slots in cell 0, then each prop's


class Model(NamedTuple):
    """One model: which positions of its structure hold plays, and where
    each proposition holds.  A sample also keeps its outcome count and,
    per cell, the indices of that cell's plays' outcomes, in draw order."""

    structure: Structure
    full: int  # the positions that hold plays
    prop: Tuple[int, ...]  # per proposition of the structure, its positions
    outcomes: int = 0
    picked: Optional[List[List[int]]] = None

    def game(self) -> Game:
        """The model as a Game: its plays are the set bits of full, in
        order, cell by cell; outcome i is o<i>, or slot i of a cell in an
        enumerated model, which declares the outcomes to its widest cell."""
        s, full, outcomes, picked = self.structure, self.full, self.outcomes, self.picked
        if picked is None:
            picked = [[i for i in range(s.width) if full >> c * s.width + i & 1]
                      for c in range(s.cells)]
            outcomes = max(map(len, picked))
        names = tuple(f"o{i}" for i in range(outcomes))
        profiles = [ActionProfile.make(zip(s.agents, combo)) for combo
                    in itertools.product(s.actions, repeat=len(s.agents))]
        plays = [Play(alpha, profile, names[i]) for (alpha, profile), drawn
                 in zip(itertools.product(s.states, profiles), picked)
                 for i in drawn]
        bits = [i for i in range(full.bit_length()) if full >> i & 1]
        valuation = {name: [play for play, i in zip(plays, bits) if mask >> i & 1]
                     for name, mask in zip(s.props, self.prop)}
        return make_game(s.agents, s.states, s.partitions, s.actions, names,
                         plays, valuation)

    def answer(self, missed: int) -> Tuple[Game, Play]:
        """The game of this model and its play at the lowest position of
        missed; play order is position order, so its index counts the
        positions of full below."""
        game = self.game()
        below = (missed & -missed) - 1
        return game, game.plays[(self.full & below).bit_count()]


def enumerate_games(
    formula_agents: Tuple[str, ...],
    props: Tuple[str, ...],
    bounds: SearchBounds,
) -> Iterator[Model]:
    """Deterministic exhaustive stream of canonical models within bounds,
    each a :class:`Model` over a structure shared with its neighbours.

    Raises ResourceLimitError upfront when the implied model count exceeds
    the ``exhaustive-models`` budget (``DTW_BUDGET`` or the default).
    """
    for structure in _structures(formula_agents, props, bounds):
        for masks in _label_odometer(structure, structure.cells):
            yield Model(structure, masks[0], masks[1:])


def _structures(formula_agents, props, bounds) -> Iterator[Structure]:
    """The structures of the enumeration in order, once the bounds fit the
    pool of agent names and the model count is within the budget."""
    base = tuple(sorted(formula_agents))
    extras = tuple(n for n in _AGENT_NAMES if n not in base) + tuple(
        f"z{i}" for i in range(len(base))
    )
    _check_pool("agents", bounds.max_agents, base + extras)
    limit = budget("exhaustive-models")
    total = count_models(formula_agents, props, bounds, limit)
    if total > limit:
        raise ResourceLimitError(
            f"exhaustive search would enumerate at least {total} models, "
            f"budget is {limit}"
        )
    min_agents = max(1, len(base))
    props = tuple(props)
    choices = _label_choices(props, bounds.max_outcomes)
    width = max(len(choice) for choice in choices)
    choice_masks = tuple(((1 << len(choice)) - 1,) + tuple(
        sum(1 << i for i, label in enumerate(choice) if name in label)
        for name in props) for choice in choices)
    for n_agents in range(min_agents, max(min_agents, bounds.max_agents) + 1):
        agents = (base + extras)[:n_agents] if base else extras[:n_agents]
        for n_initial in range(1, bounds.max_initial + 1):
            states = tuple(f"s{i}" for i in range(n_initial))
            layouts = [_slot_layout(agents, states, n_actions, width)
                       for n_actions in range(1, bounds.max_actions + 1)]
            for combo in itertools.product(_set_partitions(list(states)),
                                           repeat=n_agents):
                partitions = dict(zip(agents, combo))
                blocks = index_blocks(partitions)
                for actions, cells, state, action in layouts:
                    frame = Frame(states, blocks, state, actions, action,
                                  cells * width)
                    yield Structure(agents, states, partitions, actions, cells,
                                    props, frame, width, choice_masks)


def _slot_layout(agents, states, n_actions, width):
    """Actions, the number of cells, and the slots of each initial state
    and of each (agent, action), with cells in row-major order."""
    actions = tuple(str(i) for i in range(n_actions))
    n_profiles = n_actions ** len(agents)
    span = n_profiles * width  # the slots of one initial state
    state = {alpha: ((1 << span) - 1) << k * span for k, alpha in enumerate(states)}
    every_state = sum(1 << k * span for k in range(len(states)))
    by_profile = [((1 << width) - 1) * every_state << j * width
                  for j in range(n_profiles)]
    return (actions, len(states) * n_profiles, state,
            _action_rows(agents, actions, by_profile))


def _label_odometer(structure: Structure, n_cells: int) -> Iterator[tuple]:
    """The present slots, then each proposition's slots, of each assignment
    of a label choice to the first n_cells cells (the others left empty), in
    odometer order (the last cell turns fastest)."""
    width, choices = structure.width, structure.choices
    # Per cell and choice: the XOR that turns it into the next choice.
    turns = [[tuple((a ^ b) << c * width for a, b in zip(this, after))
              for this, after in zip(choices, choices[1:] + choices[:1])]
             for c in range(n_cells)]
    masks = tuple(sum(m << c * width for c in range(n_cells)) for m in choices[0])
    digits = [0] * n_cells
    last = len(choices) - 1
    while True:
        yield masks
        c = n_cells - 1
        while c >= 0:
            d = digits[c]
            masks = tuple(map(int.__xor__, masks, turns[c][d]))
            if d < last:
                digits[c] = d + 1
                break
            digits[c] = 0
            c -= 1
        else:
            return


# Exhaustive countermodel search evaluates many models of one structure in
# each run of the mask program, as lanes of one wide int (see Frame).  A
# structure's last k cells form the suffix: lane j of a batch holds the j-th
# assignment to them in odometer order, for the largest k whose assignments
# fit the lane budget.  The odometer turns the prefix cells, one batch per
# prefix assignment, so batches in order and lanes in order follow the
# enumeration, and the lowest miss is the first countermodel's.

_LANE_BUDGET = 4096


def _suffix_lanes(structure: Structure):
    """For the structure's cell count: the number of prefix cells, the
    replicator (bit 0 of every lane), and the present slots, then each
    proposition's slots, of the suffix assignments, lane by lane."""
    choices, width, c = structure.choices, structure.width, structure.cells
    stride = c * width + 1
    table, rep, lanes = (0,) * len(choices[0]), 1, 1
    while c > 0 and lanes * len(choices) <= _LANE_BUDGET:
        # Cell c - 1 turns slower than the cells already in: one copy of
        # the lanes so far per choice, with that choice in cell c - 1.
        c -= 1
        span = lanes * stride
        table = tuple(sum((t | (choice[i] << c * width) * rep) << d * span
                          for d, choice in enumerate(choices))
                      for i, t in enumerate(table))
        rep = sum(rep << d * span for d in range(len(choices)))
        lanes *= len(choices)
    return c, rep, table


def _batches(structures) -> Iterator[Tuple[Structure, Frame, tuple]]:
    """Each structure's models packed into lanes: per batch its structure,
    its frame, and its present slots, then each proposition's slots."""
    tables = {}
    for s in structures:
        if s.cells not in tables:
            tables[s.cells] = _suffix_lanes(s)
        prefix, rep, table = tables[s.cells]
        one = s.frame
        frame = Frame(s.states, one.block_index,
                      {key: m * rep for key, m in one.state.items()}, s.actions,
                      {key: m * rep for key, m in one.action.items()},
                      one.shift, rep << one.shift)
        for masks in _label_odometer(s, prefix):
            yield s, frame, tuple(m * rep | t for m, t in zip(masks, table))


# ---------------------------------------------------------------------------
# Countermodel search and soundness fuzzing.
# ---------------------------------------------------------------------------

def countermodel_search(
    f: Formula,
    bounds: SearchBounds,
) -> Optional[Tuple[Game, Play]]:
    """First (game, play) within bounds falsifying f, or None.

    Exhaustive mode walks the documented deterministic enumeration, a batch
    of models at a time; random mode samples seeded games.  The agent
    universe starts from the agents named in f (padded up to the bound);
    valuations range over the propositions occurring in f.  Exhaustive
    mode refuses as :func:`enumerate_games` does, random mode as
    :func:`sample_game` does.
    """
    program = compile_masks(f)
    base_agents = tuple(sorted(program.agents()))
    props = tuple(sorted(program.props()))
    if len(base_agents) > bounds.max_agents:
        raise BadParamsError(
            f"formula names {len(base_agents)} agents, bound is {bounds.max_agents}"
        )
    if bounds.mode == "exhaustive":
        structures = _structures(base_agents, props, bounds)
        for s, frame, masks in _batches(structures):
            prop = dict(zip(props, masks[1:]))
            missed = masks[0] ^ _truth(program, frame, masks[0], prop)[-1]
            if missed:
                # The lowest miss is in the first lane that has one.
                stride = frame.shift + 1
                at = ((missed & -missed).bit_length() - 1) // stride * stride
                lane = [m >> at & s.frame.low for m in masks + (missed,)]
                return Model(s, lane[0], tuple(lane[1:-1])).answer(lane[-1])
        return None
    rng = random.Random(bounds.seed)
    names = base_agents + tuple(n for n in _AGENT_NAMES if n not in base_agents)
    _check_sampling(bounds, names, not props)
    for _ in range(bounds.iterations):
        n_agents = rng.randint(max(1, len(base_agents)), bounds.max_agents)
        model = _sample(rng, bounds, names[:n_agents], props or None)
        s, full = model.structure, model.full
        missed = full ^ _truth(program, s.frame, full, dict(zip(s.props, model.prop)))[-1]
        if missed:
            return model.answer(missed)
    return None


class FuzzCounterexample(Record):
    """A soundness violation found by fuzzing: the schema's name, the game,
    the falsifying play, the offending instance, the metavariable
    assignment (a dict) that produced it, and the iteration."""

    _names = ("schema", "game", "play", "instance", "substitution", "iteration")

    def __init__(self, schema: str, game: Game, play: Play, instance: Formula,
                 substitution: dict, iteration: int):
        self.schema, self.game, self.play = schema, game, play
        self.instance, self.substitution = instance, substitution
        self.iteration = iteration


_GAMES_POOL = 200
_INSTANTIATIONS_PER_GAME = 3


def soundness_fuzz(
    schema: str,
    bounds: SearchBounds,
    enforce_side_conditions: bool = True,
) -> Optional[FuzzCounterexample]:
    """Search for counterexamples to the validity of an axiom or derived
    lemma schema.  Returns the first counterexample found, or None; any
    non-None result (with side conditions enforced) is a soundness bug.

    Both modes walk one stream of models.  Random mode cycles a pool of
    200 sampled models (fewer for fewer iterations), with one random
    instantiation per model; exhaustive mode enumerates canonical models
    and tries three seeded instantiations on each.

    Each schema's pattern is compiled once per call.  Each formula
    metavariable's value is drawn straight into its mask, with the calls to
    rng that drawing it as a formula makes, and the pattern's program runs
    on those masks with its coalitions read from the substitution.  Only
    the counterexample returned is built as a formula: its draws are
    replayed from the generator's state before the first of them.
    """
    try:
        schema_names = axioms.resolve_fuzz_group(schema)
    except KeyError:
        raise BadParamsError(
            f"unknown schema {schema!r}; choose from "
            f"{', '.join(sorted(axioms.FUZZ_GROUPS))}"
        ) from None
    schemas = [axioms.ALL_SCHEMAS[name] for name in schema_names]
    programs = [compile_masks(s.pattern) for s in schemas]

    def draw(structure, make=_NODES):
        k = rng.randrange(len(schemas))
        return k, sample_instantiation(rng, schemas[k], structure.agents,
                                       structure.props, enforce_side_conditions, make)

    if bounds.mode == "random":
        _check_sampling(bounds, _AGENT_NAMES, True)
        rng = random.Random(bounds.seed)
        pool = [_sample(rng, bounds)
                for _ in range(max(1, min(_GAMES_POOL, bounds.iterations)))]

        def models():
            return itertools.islice(itertools.cycle(pool), bounds.iterations)
        per_model = 1
    else:
        _check_pool("props", bounds.max_props, _PROP_NAMES)
        rng = random.Random(bounds.seed if bounds.seed is not None else 0)

        def models():
            return enumerate_games((), _PROP_NAMES[: bounds.max_props], bounds)
        per_model = _INSTANTIATIONS_PER_GAME
    state = rng.getstate()
    iteration = 0
    for model in models():
        s, full = model.structure, model.full
        algebra = _mask_algebra(s.frame, full, dict(zip(s.props, model.prop)))
        for _ in range(per_model):
            k, values = draw(s, algebra)
            miss = full ^ _truth(programs[k], s.frame, full, values, values)[-1]
            if miss:
                # Replay the draws as formula nodes from the saved state,
                # each with its own iteration's agents and propositions.
                rng.setstate(state)
                structures = (m.structure for m in models() for _ in range(per_model))
                for earlier in itertools.islice(structures, iteration):
                    draw(earlier)
                k, subst = draw(next(structures))
                game, play = model.answer(miss)
                return FuzzCounterexample(schemas[k].name, game, play,
                                          axioms.instantiate(schemas[k], subst),
                                          subst, iteration)
            iteration += 1
    return None

"""The exhaustive walk against the frozen per-model enumerator and search.

``frozen_search.naive_models`` builds one Game per model in the documented
order.  The walk must visit the same number of models and return the same
first countermodel (byte for byte), the same refuting play, and, for
exhaustive fuzzing, the same first counterexample at the same iteration.

``frozen_search.stream_countermodel`` evaluates the model stream one model
at a time; the batched search, which evaluates many models per run of the
mask kernel, must return what it returns, wherever in a batch the first
countermodel falls.

``frozen_search.stream_fuzz`` draws every fuzz instance as a formula and
evaluates it on its own; the fuzzer, which compiles each schema once,
draws each value straight into its mask and replays the draws only for the
counterexample, must return the same first counterexample at the same
iteration, in both modes.

``frozen_search.frozen_sample_game`` builds every sampled game play by
play; the sampler, which draws the same stream straight into masks, must
give that game's masks, and random countermodel search must return what
``frozen_search.stream_random_countermodel`` returns, building a game only
for its answer.
"""

import collections
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtw import axioms, semantics
from dtw.errors import BadParamsError, ResourceLimitError
from dtw.formula import (Blame, Implies, Know, Not, Prop, agents_of, compile_masks,
                         node_count, props_of, render)
from dtw.game import ActionProfile, Play, render_game_file
from dtw.parser import parse_formula
from dtw.semantics import (
    SearchBounds,
    count_models,
    countermodel_search,
    enumerate_games,
    random_formula,
    sample_game,
    soundness_fuzz,
    valid_in_game,
)

from frozen_search import (frozen_sample_game, fuzz_draws, missed_slots, naive_models,
                           sample_instantiation, stream_countermodel, stream_fuzz,
                           stream_random_countermodel)
from oracles import naive_holds

# The search workload's formula templates: valid ones, then invalid ones.
TEMPLATES = (
    "K[{x}]{p} -> K[{x},{y}]{p}",
    "B[{x}][{y}]{p} -> {p}",
    "K[{x}]{p} -> {p}",
    "~K[{x}]~B[{x}][{y}]{p} -> ({p} -> B[{x}][{y}]{p})",
    "~K[{x}]{p} -> K[{x}]~K[{x}]{p}",
    "B[{x}][{y}]{p} -> K[{x}]({p} -> B[{x}][{y}]{p})",
    "K[{x},{y}]{p} -> K[{x}]{p}",
    "B[{x}][{y}]{p} -> K[{x}]{p}",
    "{p} -> K[{x}]{p}",
    "K[{x}]{p} -> B[{x}][{y}]{p}",
    "B[{x}][{y}]{p} -> B[{y}][{x}]{p}",
    "K[{x}]{p} -> K[{y}]{p}",
)

BOUNDS = {
    "defaults": SearchBounds(),
    "one-outcome": SearchBounds(max_outcomes=1),
    "one-agent": SearchBounds(max_agents=1, max_initial=3),
    "three-agents": SearchBounds(max_agents=3, max_initial=1, max_outcomes=1),
}

TINY = SearchBounds(max_agents=2, max_initial=2, max_actions=2, max_outcomes=1)
# Two propositions multiply the labelings; one action keeps the stream short.
TINY_TWO_PROPS = SearchBounds(max_agents=2, max_initial=2, max_actions=1)


def answer(found):
    return None if found is None else (render_game_file(found[0]), found[1])


def naive_first_countermodels(formulas, agents, props, bounds):
    """First countermodel of each formula in the frozen order, and the
    number of models; one pass over the stream serves every formula."""
    first = dict.fromkeys(formulas)
    visited = 0
    for game in naive_models(agents, props, bounds):
        visited += 1
        for f in formulas:
            if first[f] is None:
                play = valid_in_game(game, f).refutation
                if play is not None:
                    assert not naive_holds(game, play, f)
                    first[f] = (render_game_file(game), play)
    return first, visited


def signature(f):
    return tuple(sorted(agents_of(f))), tuple(sorted(props_of(f)))


CASES = [(bounds, names)
         for bounds in BOUNDS.values()
         for names in (dict(x="a", y="b", p="p"), dict(x="zed", y="a", p="q"))
         if bounds != BOUNDS["defaults"] or names["x"] == "a"]


@pytest.mark.parametrize("bounds, names", CASES)
def test_walk_matches_frozen_enumerator_on_templates(bounds, names):
    formulas = [parse_formula(t.format(**names)) for t in TEMPLATES]
    groups = {}
    for f in formulas:
        groups.setdefault(signature(f), []).append(f)
    for (agents, props), group in groups.items():
        if len(agents) > bounds.max_agents:
            for f in group:
                with pytest.raises(BadParamsError):
                    countermodel_search(f, bounds)
            continue
        expected, visited = naive_first_countermodels(group, agents, props, bounds)
        assert sum(1 for _ in enumerate_games(agents, props, bounds)) == visited
        assert count_models(agents, props, bounds) == visited
        for f in group:
            assert answer(countermodel_search(f, bounds)) == expected[f], render(f)
    if bounds == BOUNDS["defaults"]:
        found = [answer(countermodel_search(f, bounds)) for f in formulas]
        assert [x is None for x in found] == [True] * 6 + [False] * 6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_walk_matches_frozen_enumerator_on_sampled_formulas(seed):
    rng = random.Random(seed)
    agents = ("a", "b")[: rng.randint(1, 2)]
    f = random_formula(rng, ("p", "q")[: rng.randint(1, 2)], agents, depth=3)
    formula_agents, props = signature(f)
    bounds = TINY if len(props) < 2 else TINY_TWO_PROPS
    expected, visited = naive_first_countermodels([f], formula_agents, props, bounds)
    assert count_models(formula_agents, props, bounds) == visited
    assert answer(countermodel_search(f, bounds)) == expected[f]


def naive_fuzz(schema, bounds, enforce_side_conditions, per_game=3):
    """Exhaustive soundness fuzzing over the frozen enumerator, with the
    same random stream: first counterexample as comparable values."""
    schemas = [axioms.ALL_SCHEMAS[name]
               for name in axioms.resolve_fuzz_group(schema)]
    rng = random.Random(bounds.seed if bounds.seed is not None else 0)
    props = ("p", "q", "r", "s", "t")[: bounds.max_props]
    iteration = 0
    for game in naive_models((), props, bounds):
        for _ in range(per_game):
            picked = schemas[rng.randrange(len(schemas))]
            subst = sample_instantiation(rng, picked, game.agents,
                                         tuple(sorted(game.valuation)),
                                         enforce_side_conditions)
            instance = axioms.instantiate(picked, subst)
            verdict = valid_in_game(game, instance)
            if not verdict.holds:
                return (picked.name, render_game_file(game), verdict.refutation,
                        instance, subst, iteration)
            iteration += 1
    return None


@pytest.mark.parametrize("schema", ["Truth", "Monotonicity",
                                    "JointResponsibility", "Lemma3"])
@pytest.mark.parametrize("enforce", [True, False])
@pytest.mark.parametrize("bounds", [
    SearchBounds(max_agents=2, max_initial=2, max_outcomes=1, seed=3),
    SearchBounds(max_agents=1, max_initial=2, max_outcomes=1, max_props=2,
                 seed=5),
], ids=["two-agents", "two-props"])
def test_exhaustive_fuzz_matches_frozen_enumerator(schema, enforce, bounds):
    expected = naive_fuzz(schema, bounds, enforce)
    found = soundness_fuzz(schema, bounds, enforce_side_conditions=enforce)
    got = found and (found.schema, render_game_file(found.game), found.play,
                     found.instance, found.substitution, found.iteration)
    assert got == expected
    if schema == "JointResponsibility" and not enforce:
        assert found is not None


# The user-facing fuzz groups; the others name one form of Truth or
# Monotonicity.
GROUPS = ("Truth", "Distributivity", "NegIntrospection", "Monotonicity",
          "NoneToAct", "JointResponsibility", "StrictConditional",
          "IntrospectionOfBlame", "Lemma2", "Lemma3")
FUZZ_BOUNDS = {
    "exhaustive-one-agent": SearchBounds(max_agents=1, max_initial=2, max_outcomes=1,
                                         max_props=2, seed=5),
    "exhaustive-three-agents": SearchBounds(max_agents=3, max_initial=1,
                                            max_outcomes=1, seed=3),
    "random-wide": SearchBounds(max_agents=3, max_initial=3, max_props=3,
                                mode="random", seed=11, iterations=150),
    "random-narrow": SearchBounds(max_agents=2, max_initial=2, max_outcomes=1,
                                  max_props=2, mode="random", seed=4,
                                  iterations=300),
}


def fuzz_answer(found):
    return found and (found.schema, render(found.instance), found.substitution,
                      found.iteration, render_game_file(found.game), found.play)


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("enforce", [True, False])
@pytest.mark.parametrize("bounds", FUZZ_BOUNDS.values(), ids=FUZZ_BOUNDS.keys())
def test_fuzz_matches_frozen_stream(group, enforce, bounds):
    expected = fuzz_answer(stream_fuzz(group, bounds, enforce))
    assert fuzz_answer(soundness_fuzz(group, bounds, enforce)) == expected
    if enforce:
        assert expected is None


# Violated side conditions whose first counterexample lies past the first
# structure (one agent) or, in random mode, past the pool of 200 games.
REPLAY_BOUNDS = {
    "exhaustive-third-agent": SearchBounds(max_agents=3, max_initial=1,
                                           max_outcomes=1, seed=5),
    "random-wrapped": SearchBounds(max_agents=3, max_initial=3, max_props=3,
                                   mode="random", seed=22, iterations=1000),
}


@pytest.mark.parametrize("bounds", REPLAY_BOUNDS.values(), ids=REPLAY_BOUNDS.keys())
def test_replayed_counterexample_matches_frozen_stream(bounds):
    """The counterexample's substitution is replayed from the generator's
    state with each earlier iteration's agents and propositions: those of
    earlier, smaller structures, or of the pool's games, round again."""
    found = soundness_fuzz("JointResponsibility", bounds, False)
    assert fuzz_answer(found) == fuzz_answer(
        stream_fuzz("JointResponsibility", bounds, False))
    if bounds.mode == "random":
        assert found.iteration >= 200
    else:
        assert len(found.game.agents) == 3


@pytest.mark.parametrize("group", ["Truth", "JointResponsibility"])
@pytest.mark.parametrize("bounds, enforce", [
    (FUZZ_BOUNDS["exhaustive-three-agents"], True),
    (REPLAY_BOUNDS["exhaustive-third-agent"], False),
    (FUZZ_BOUNDS["random-wide"], True),
    (FUZZ_BOUNDS["random-wide"], False),
], ids=["exhaustive", "exhaustive-violated", "random", "random-violated"])
def test_fuzz_compiles_each_schema_once(monkeypatch, group, bounds, enforce):
    """A run compiles each schema of its group at most once, however many
    instances it evaluates.  It builds no formula node unless it finds a
    counterexample, and then only the nodes of the values drawn up to it,
    replayed, and those of its instance."""
    calls = collections.Counter()

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(semantics, "compile_masks")
    counted(axioms, "instantiate")
    for cls in (Prop, Not, Implies, Know, Blame):
        counted(cls, "__init__")
    found = soundness_fuzz(group, bounds, enforce)
    nodes = calls["__init__"]  # of the five formula node classes
    assert calls["compile_masks"] <= len(axioms.resolve_fuzz_group(group))
    assert calls["instantiate"] == (found is not None)
    assert (found is None) == (enforce or group == "Truth")
    if found is None:
        assert nodes == 0
        return
    draws = itertools.islice(fuzz_draws(group, bounds, enforce), found.iteration + 1)
    drawn = sum(node_count(subst[name]) for _, picked, subst in draws
                for name in picked.formula_vars)
    pattern = axioms.ALL_SCHEMAS[found.schema].pattern
    assert nodes == drawn + node_count(pattern) - leaf_count(pattern)


def leaf_count(f):
    """The propositions of f, counted once per occurrence."""
    if isinstance(f, Prop):
        return 1
    if isinstance(f, Implies):
        return leaf_count(f.left) + leaf_count(f.right)
    return leaf_count(f.child)


def test_formula_agents_beyond_the_bound():
    with pytest.raises(BadParamsError):
        countermodel_search(parse_formula("K[a,b,c]p -> K[a]p"), TINY)


def test_model_budget_refuses_before_the_walk(monkeypatch):
    monkeypatch.setenv("DTW_BUDGET", "10")
    with pytest.raises(ResourceLimitError):
        countermodel_search(parse_formula("K[a,b]p -> K[a]p"), TINY)


# ---------------------------------------------------------------------------
# Batched search against the frozen one-model-at-a-time search.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def streamed(text, bounds):
    return answer(stream_countermodel(parse_formula(text), bounds))


def template_cases(bounds):
    for template in TEMPLATES:
        text = template.format(x="a", y="b", p="p")
        if len(agents_of(parse_formula(text))) <= bounds.max_agents:
            yield text


def position(f, bounds):
    """(batch, lane, lanes in the batch) of the first countermodel under
    the current lane budget, counted along the model stream."""
    program = compile_masks(f)
    structure = None
    for model in enumerate_games(*signature(f), bounds):
        if model.structure is not structure:
            structure, index = model.structure, 0
        if missed_slots(model, program):
            prefix = semantics._suffix_lanes(structure)[0]
            lanes = len(structure.choices) ** (structure.cells - prefix)
            return index // lanes, index % lanes, lanes
        index += 1
    return None


# One agent, one state and up to two actions, three propositions and up to
# three outcomes: a cell has 92 label choices, so a batch is 92 lanes and
# the two-action structure has 8,464 models, 92 batches.  Its first
# countermodel has every r-label in one cell and an r-free cell: the last
# lane of the first batch, or, when the r-free cell must hold a {p} play,
# the last lane of the second batch.
#
# The first lane of a later batch (suffix cells empty, a prefix cell not)
# is out of reach at the real budget with bounds this small: relabelling
# the actions moves the labelled prefix cell into the suffix, which gives a
# model earlier in the order with the same verdicts.  The lane budget sweep
# below reaches it with short suffixes.
WIDE = SearchBounds(max_agents=1, max_initial=1, max_actions=2, max_outcomes=3)
R_LABELS = "Kd[a](p & r & ~q) & Kd[a](q & r & ~p) & Kd[a](p & q & r)"
AVOID_R = "K[a](r -> B[a][a]r)"


@pytest.mark.parametrize("text, bounds, where", [
    ("p", BOUNDS["defaults"], (0, 0, 3)),
    ("p -> K[] p", BOUNDS["defaults"], (0, 2, 3)),
    (f"~({R_LABELS} & {AVOID_R})", WIDE, (0, 91, 92)),
    (f"~({R_LABELS} & Kd[a](p & ~q & ~r) & {AVOID_R})", WIDE, (1, 91, 92)),
    ("false", BOUNDS["defaults"], (0, 0, 1)),
    ("K[a]false -> K[b]false", BOUNDS["defaults"], None),
    ("B[a][]p", BOUNDS["defaults"], (0, 0, 3)),
    ("~B[a][]p -> K[a]p", BOUNDS["one-agent"], (0, 0, 3)),
    ("p -> ~B[a][]p", BOUNDS["defaults"], None),
], ids=["lane-0", "last-lane", "last-lane-of-92", "second-batch",
        "no-propositions", "no-propositions-valid", "no-actors",
        "no-actors-negated", "no-actors-valid"])
def test_lane_edges_match_the_model_stream(text, bounds, where):
    f = parse_formula(text)
    assert position(f, bounds) == where
    assert answer(countermodel_search(f, bounds)) == streamed(text, bounds)


# Formulas whose first countermodel falls in the first lane of a later
# batch at small lane budgets (3 lanes of 3 and 4 lanes of 4).
LATER_BATCH = (("B[a][a] p -> B[][a] p", BOUNDS["one-agent"]),
               ("B[a,b][a] p -> B[b][a] p", TINY))


def test_lane_budgets_match_the_model_stream(monkeypatch):
    """The 12 templates under the 4 bounds at the real lane budget and at
    smaller ones.  With fewer lanes a batch, structures split into many
    batches, so the first countermodels fall at every kind of lane: the
    first lane of a later batch, a middle lane and the last lane."""
    cases = [(text, bounds) for bounds in BOUNDS.values()
             for text in template_cases(bounds)] + list(LATER_BATCH)
    edges = set()
    for budget in (semantics._LANE_BUDGET, 1, 2, 3, 4, 10, 100):
        monkeypatch.setattr(semantics, "_LANE_BUDGET", budget)
        for text, bounds in cases:
            f = parse_formula(text)
            assert answer(countermodel_search(f, bounds)) == \
                streamed(text, bounds), (budget, text)
            where = position(f, bounds) if bounds != BOUNDS["defaults"] else None
            if where is not None and where[2] > 1:
                batch, lane, lanes = where
                edges.add("first of a later batch" if batch and not lane else
                          "last" if lane == lanes - 1 else
                          "middle" if lane else "first")
    assert {"first of a later batch", "middle", "last"} <= edges


# ---------------------------------------------------------------------------
# Sampled masks against the frozen play-by-play sampler.
# ---------------------------------------------------------------------------

def sampling_case(seed):
    """Bounds that vary with the seed (1-4 agents, 1-3 initial states,
    actions and outcomes, 1-5 propositions) and, for every third seed,
    agents given out of sorted order and given propositions."""
    bounds = SearchBounds(max_agents=seed % 4 + 1, max_initial=seed // 4 % 3 + 1,
                          max_actions=seed // 12 % 3 + 1,
                          max_outcomes=seed // 36 % 3 + 1,
                          max_props=seed % 5 + 1, mode="random", seed=seed)
    given = {"agents": ("x", "a", "b")[: seed // 3 % 3 + 1],
             "prop_names": ("q", "p")}
    return bounds, given if seed % 3 == 0 else {}


def test_sampled_masks_match_the_frozen_sampler():
    """Over 10^3 seeded draws, the sampler's masks are those of the game
    that the frozen sampler builds from the same stream, and it takes as
    many draws.  sample_game, which always draws its propositions, renders
    the game the frozen sampler builds given the same agents alone byte for
    byte, again in as many draws."""
    for seed in range(1000):
        bounds, given = sampling_case(seed)
        rngs = [random.Random(seed) for _ in range(2)]
        model = semantics._sample(rngs[0], bounds, **given)
        structure = model.structure
        game = frozen_sample_game(rngs[1], bounds, **given)
        masks = game.masks
        assert (model.full, dict(zip(structure.props, model.prop))) == \
            (masks.full, masks.prop), seed
        assert structure.frame.state == masks.frame.state, seed
        assert structure.frame.action == masks.frame.action, seed
        for size in range(len(game.agents) + 1):
            for knowers in map(frozenset, itertools.combinations(game.agents, size)):
                assert structure.frame.blocks(knowers) == masks.frame.blocks(knowers)
        assert rngs[0].random() == rngs[1].random(), seed
        agents = given.get("agents")
        pair = [random.Random(seed) for _ in range(2)]
        assert render_game_file(sample_game(pair[0], bounds, agents)) == \
            render_game_file(frozen_sample_game(pair[1], bounds, agents)), seed
        assert pair[0].random() == pair[1].random(), seed


def packed(mask, full):
    """The bits of mask at the set bits of full, packed in order."""
    out = k = 0
    while full:
        low = full & -full
        if mask & low:
            out |= 1 << k
        full ^= low
        k += 1
    return out


@pytest.mark.parametrize("agents, props, bounds", [
    ((), ("p",), BOUNDS["defaults"]),
    (("zed",), ("p",), BOUNDS["three-agents"]),
    (("a",), ("p", "q", "r"), WIDE),
])
def test_enumerated_masks_match_the_built_game(agents, props, bounds):
    """Every 7th model of the stream: its slot masks, read at its present
    slots, are the play masks of the Game that Model.game builds, so the
    frame a model is evaluated on is that of the answer it returns."""
    for model in itertools.islice(enumerate_games(agents, props, bounds), 0, None, 7):
        s, full, masks = model.structure, model.full, model.game().masks
        assert packed(full, full) == masks.full
        assert {name: packed(m, full) for name, m in zip(s.props, model.prop)} == masks.prop
        assert {key: packed(m, full) for key, m in s.frame.state.items()} == \
            masks.frame.state
        assert {key: packed(m, full) for key, m in s.frame.action.items()} == \
            masks.frame.action


RANDOM_BOUNDS = {
    "two-agents": SearchBounds(max_agents=2, max_initial=2, max_props=2,
                               mode="random", seed=3, iterations=60),
    "three-agents": SearchBounds(max_agents=3, max_initial=3, max_outcomes=3,
                                 mode="random", seed=8, iterations=40),
}


@pytest.mark.parametrize("bounds", RANDOM_BOUNDS.values(), ids=RANDOM_BOUNDS.keys())
def test_random_countermodel_matches_the_frozen_stream(bounds):
    """The templates over agents a, b and over c, x (padded with a, b, ...
    out of sorted order), formulas without propositions, and seeded random
    formulas: the same countermodel, byte for byte, and play, or None."""
    rng = random.Random(bounds.seed)
    texts = [t.format(x=x, y=y, p="p") for t in TEMPLATES
             for x, y in (("a", "b"), ("c", "x"))]
    texts += ["false", "K[a]false -> K[b]false"]
    formulas = [parse_formula(text) for text in texts] + [
        random_formula(rng, ("p", "q"), agents, depth=3)
        for agents in (("a", "b"), ("c", "x")) for _ in range(30)]
    kinds = set()
    for f in formulas:
        expected = answer(stream_random_countermodel(f, bounds))
        assert answer(countermodel_search(f, bounds)) == expected, render(f)
        kinds.add(expected is None)
    assert kinds == {True, False}


@pytest.mark.parametrize("search, game_of", [
    (lambda: soundness_fuzz("Truth", FUZZ_BOUNDS["random-wide"]), None),
    (lambda: soundness_fuzz("JointResponsibility", FUZZ_BOUNDS["random-wide"],
                            enforce_side_conditions=False),
     lambda found: found.game),
    (lambda: countermodel_search(parse_formula("K[a]p -> p"),
                                 RANDOM_BOUNDS["three-agents"]), None),
    (lambda: countermodel_search(parse_formula("K[a]p -> K[b]p"),
                                 RANDOM_BOUNDS["three-agents"]),
     lambda found: found[0]),
    (lambda: soundness_fuzz("Truth", FUZZ_BOUNDS["exhaustive-three-agents"]), None),
    (lambda: soundness_fuzz("JointResponsibility", REPLAY_BOUNDS["exhaustive-third-agent"],
                            enforce_side_conditions=False),
     lambda found: found.game),
    (lambda: countermodel_search(parse_formula("K[a]p -> p"), BOUNDS["defaults"]), None),
    (lambda: countermodel_search(parse_formula("K[a]p -> K[b]p"), BOUNDS["defaults"]),
     lambda found: found[0]),
], ids=["fuzz-none", "fuzz-found", "countermodel-none", "countermodel-found",
        "exhaustive-fuzz-none", "exhaustive-fuzz-found", "exhaustive-countermodel-none",
        "exhaustive-countermodel-found"])
def test_random_search_builds_only_the_answer(monkeypatch, search, game_of):
    """Fuzzing and countermodel search, random and exhaustive, build no
    Game, Play or ActionProfile for the models they walk, and one Game,
    with its plays and their distinct profiles, for an answer."""
    built = collections.Counter()

    def counted(owner, name, key):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            built[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(semantics, "make_game", "Game")
    counted(Play, "__init__", "Play")
    counted(ActionProfile, "__init__", "ActionProfile")
    found = search()
    if game_of is None:
        assert found is None
        assert built == {}
    else:
        plays = game_of(found).plays
        assert built == {"Game": 1, "Play": len(plays),
                         "ActionProfile": len({play.profile for play in plays})}

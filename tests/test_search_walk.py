"""The exhaustive walk against the frozen per-model enumerator.

``oracles.naive_models`` builds one Game per model in the documented order.
The walk must visit the same number of models and return the same first
countermodel (byte for byte), the same refuting play, and, for exhaustive
fuzzing, the same first counterexample at the same iteration.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtw import axioms
from dtw.errors import BadParamsError, ResourceLimitError
from dtw.formula import agents_of, props_of, render
from dtw.game import render_game_file
from dtw.parser import parse_formula
from dtw.semantics import (
    Evaluator,
    SearchBounds,
    count_models,
    countermodel_search,
    enumerate_games,
    random_formula,
    sample_instantiation,
    soundness_fuzz,
    valid_in_game,
)

from oracles import naive_holds, naive_models

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
        ev = Evaluator(game)  # shared, so the formulas share subformulas
        for f in formulas:
            if first[f] is None:
                missed = game.masks.full ^ ev.mask(f)
                if missed:
                    play = game.plays[(missed & -missed).bit_length() - 1]
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


def test_formula_agents_beyond_the_bound():
    with pytest.raises(BadParamsError):
        countermodel_search(parse_formula("K[a,b,c]p -> K[a]p"), TINY)


def test_model_budget_refuses_before_the_walk():
    with pytest.raises(ResourceLimitError):
        countermodel_search(parse_formula("K[a,b]p -> K[a]p"), TINY,
                            model_budget=10)

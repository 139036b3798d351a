"""Budgets come from ``DTW_BUDGET`` or the defaults in ``dtw.limits``: each
budget kind refuses through every public entry point that spends it at a
small ``DTW_BUDGET``, and the same call runs with the variable unset."""

import random

import pytest

from dtw.errors import ResourceLimitError
from dtw.formula import Prop, expand_minimality
from dtw.game import load_game, render_game_file, tarasoff_game, validate_game
from dtw.limits import DEFAULT_BUDGETS
from dtw.minimality import minimal_verdict
from dtw.parser import parse_formula
from dtw.semantics import (SearchBounds, countermodel_search, enumerate_games,
                           sample_game, soundness_fuzz)

# 10 models for one agent and one proposition.
EXHAUSTIVE = SearchBounds(max_agents=1, max_initial=2, max_actions=1, max_outcomes=1)
# A largest grid of 4 (initial state, profile) cells.
RANDOM = SearchBounds(max_agents=1, max_initial=2, max_actions=2, max_outcomes=1,
                      mode="random", seed=0, iterations=5)


def minimal_on_tarasoff():
    game = tarasoff_game()
    return minimal_verdict(4, game, game.plays[0], {"university"}, None,
                           Prop("killed"))


# Entry point -> (budget kind, start of its refusal, call).
ENTRY_POINTS = {
    "expand_minimality": ("expand-nodes", "expansion of kind 2",
                          lambda: expand_minimality(2, {"a"}, {"b"}, Prop("p"),
                                                    {"a", "b", "c"})),
    "load_game": ("seriality-checks", "seriality check needs 16",
                  lambda: load_game(render_game_file(tarasoff_game()))),
    "validate_game": ("seriality-checks", "seriality check needs 16",
                      lambda: validate_game(tarasoff_game())),
    "sample_game": ("seriality-checks", "random sampling could build at least 4",
                    lambda: sample_game(random.Random(0), RANDOM)),
    "soundness_fuzz": ("seriality-checks", "random sampling could build at least 4",
                       lambda: soundness_fuzz("Truth", RANDOM)),
    "countermodel_search": ("exhaustive-models", "exhaustive search would enumerate",
                            lambda: countermodel_search(parse_formula("K[a]p -> p"),
                                                        EXHAUSTIVE)),
    "enumerate_games": ("exhaustive-models", "exhaustive search would enumerate",
                        lambda: list(enumerate_games(("a",), ("p",), EXHAUSTIVE))),
    "minimal_verdict": ("minimality-iterations", "minimality check needs 528",
                        minimal_on_tarasoff),
}


def test_every_budget_kind_has_entry_points():
    assert {kind for kind, _, _ in ENTRY_POINTS.values()} == set(DEFAULT_BUDGETS)


@pytest.mark.parametrize("limit", ["0", "3"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_small_budget_refuses(monkeypatch, name, limit):
    _, refusal, call = ENTRY_POINTS[name]
    monkeypatch.setenv("DTW_BUDGET", limit)
    with pytest.raises(ResourceLimitError) as exc:
        call()
    message = str(exc.value)
    assert message.startswith(refusal) and message.endswith(f"budget is {limit}")


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_unset_budget_runs(monkeypatch, name):
    monkeypatch.delenv("DTW_BUDGET", raising=False)
    ENTRY_POINTS[name][2]()


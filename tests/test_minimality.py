"""Direct minimal-coalition checkers against the expansion oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtw.errors import BadParamsError, ResourceLimitError, UnknownAgentError
from dtw.formula import Prop, coalition, expand_minimality
from dtw.game import ActionProfile, Play, tarasoff_game
from dtw.minimality import check_minimal, minimal_verdict
from dtw.parser import parse_formula
from dtw.semantics import holds, random_formula, valid_in_game

from oracles import random_small_game

KILLED = Prop("killed")


def october_attack_play():
    return Play(
        "Oct",
        ActionProfile.make({"poddar": "1", "parents": "1", "university": "0"}),
        "dead",
    )


class TestAgentsOfPhi:
    def test_unknown_agent_inside_phi_is_refused_as_holds_refuses_it(self):
        g = tarasoff_game()
        phi = parse_formula("~B[university][ghost] killed")
        with pytest.raises(UnknownAgentError):
            holds(g, october_attack_play(), phi)
        with pytest.raises(UnknownAgentError):
            minimal_verdict(1, g, october_attack_play(), {"university"},
                            {"parents"}, phi)

    @pytest.mark.parametrize("query", [
        lambda g, play: valid_in_game(g, parse_formula("K[ghost] killed")),
        lambda g, play: valid_in_game(g, parse_formula("B[university][ghost] killed")),
        lambda g, play: holds(g, play, parse_formula("killed -> B[ghost][parents] killed")),
        lambda g, play: minimal_verdict(1, g, play, {"ghost"}, {"parents"}, KILLED),
        lambda g, play: minimal_verdict(2, g, play, {"university", "ghost"},
                                        {"parents"}, KILLED),
        lambda g, play: minimal_verdict(3, g, play, {"university"}, {"ghost"}, KILLED),
        lambda g, play: minimal_verdict(1, g, play, {"university"},
                                        {"parents", "ghost"}, KILLED),
        lambda g, play: minimal_verdict(4, g, play, {"university"}, None,
                                        parse_formula("K[ghost] killed")),
    ], ids=["valid-K", "valid-B-actors", "holds-B-knowers", "minimal-knowers",
            "minimal-knowers-mixed", "minimal-actors", "minimal-actors-mixed",
            "minimal-phi-K"])
    def test_unknown_agent_is_refused(self, query):
        with pytest.raises(UnknownAgentError, match="unknown agent 'ghost'"):
            query(tarasoff_game(), october_attack_play())


class TestTarasoffMinimality:
    def test_university_is_minimal_knower_for_parents(self):
        g = tarasoff_game()
        assert check_minimal(1, g, october_attack_play(), {"university"},
                             {"parents"}, KILLED)

    def test_empty_knowers_reduces_to_plain_blame(self):
        g = tarasoff_game()
        rho = october_attack_play()
        got = check_minimal(1, g, rho, set(), {"parents"}, KILLED)
        plain = holds(g, rho, expand_minimality(1, set(), {"parents"}, KILLED,
                                                frozenset(g.agents))).holds
        from dtw.formula import Blame

        assert got == plain == holds(
            g, rho, Blame(coalition(), coalition({"parents"}), KILLED)
        ).holds

    def test_kind3_implies_kind1(self):
        g = tarasoff_game()
        rho = october_attack_play()
        for knowers in ({"university"}, {"parents"}, {"university", "poddar"}):
            for actors in ({"parents"}, {"poddar"}):
                if check_minimal(3, g, rho, knowers, actors, KILLED):
                    assert check_minimal(1, g, rho, knowers, actors, KILLED)

    def test_kind4_witness_satisfies_kind3(self):
        g = tarasoff_game()
        rho = october_attack_play()
        witness = minimal_verdict(4, g, rho, {"university"}, None, KILLED)
        assert witness is not None
        assert check_minimal(3, g, rho, {"university"}, witness, KILLED)


class TestParams:
    def test_kind4_rejects_actors(self):
        g = tarasoff_game()
        with pytest.raises(BadParamsError):
            check_minimal(4, g, g.plays[0], {"university"}, {"parents"}, KILLED)

    def test_kinds_1_to_3_require_actors(self):
        g = tarasoff_game()
        with pytest.raises(BadParamsError):
            check_minimal(2, g, g.plays[0], {"university"}, None, KILLED)

    def test_budget(self):
        g = tarasoff_game()
        with pytest.raises(ResourceLimitError):
            check_minimal(4, g, g.plays[0], {"university"}, None, KILLED,
                          iteration_budget=5)


class TestOracleEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_direct_checker_agrees_with_expansion(self, seed, data):
        g = random_small_game(seed)
        rng = random.Random(seed + 17)
        play = g.plays[rng.randrange(len(g.plays))]
        agents = sorted(g.agents)
        knowers = data.draw(st.frozensets(st.sampled_from(agents), max_size=3))
        actors = data.draw(st.frozensets(st.sampled_from(agents), max_size=3))
        props = tuple(sorted(g.valuation)) or ("p",)
        phi = random_formula(rng, props, tuple(g.agents), depth=1)
        universe = frozenset(g.agents)
        for kind in (1, 2, 3, 4):
            arg_actors = None if kind == 4 else actors
            direct = check_minimal(kind, g, play, knowers, arg_actors, phi)
            expanded = expand_minimality(kind, knowers, arg_actors, phi, universe)
            assert direct == holds(g, play, expanded).holds

"""Direct minimal-coalition checkers against the expansion oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtw.errors import BadParamsError, ResourceLimitError, UnknownAgentError
import dtw.minimality
from dtw.formula import Blame, Prop, coalition, expand_minimality, subsets_of
from dtw.game import ActionProfile, Play, make_game, tarasoff_game
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

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("DTW_BUDGET", "5")
        g = tarasoff_game()
        with pytest.raises(ResourceLimitError):
            check_minimal(4, g, g.plays[0], {"university"}, None, KILLED)


def two_action_case(seed, max_agents, agents=None):
    """A differential case where the minimality conjuncts decide the
    verdict.  The game is the first ``random_small_game(s, max_agents)``
    from the seed on with two actions (and ``agents`` agents, if given): a
    single action lets no one prevent anything, so no blame holds.  The play
    is one where everyone is blamable for a random phi, if any.  Returns the
    game, the play, phi, the blamable (knowers, actors) pairs of least size
    or one more, and the generator that drew them."""
    g = next(game for game in map(lambda s: random_small_game(s, max_agents=max_agents),
                                  itertools.count(seed))
             if len(game.actions) == 2 and agents in (None, len(game.agents)))
    rng = random.Random(seed + 17)
    props = tuple(sorted(g.valuation)) or ("p",)
    phi = random_formula(rng, props, tuple(g.agents), depth=1)
    universe = coalition(g.agents)
    plays = [p for p in g.plays
             if holds(g, p, Blame(universe, universe, phi)).holds] or g.plays
    play = plays[rng.randrange(len(plays))]
    pairs = [(k, d) for k in subsets_of(universe) for d in subsets_of(universe)
             if holds(g, play, Blame(k, d, phi)).holds] or [(universe, universe)]
    least = min(len(k) + len(d) for k, d in pairs)
    near = [(k, d) for k, d in pairs if len(k) + len(d) <= least + 1]
    return g, play, phi, near, rng


def assert_kinds_agree(g, play, phi, knowers, actors):
    """Each kind's direct verdict against the expansion; returns them."""
    verdicts = []
    for kind in (1, 2, 3, 4):
        arg_actors = None if kind == 4 else actors
        direct = check_minimal(kind, g, play, knowers, arg_actors, phi)
        expanded = expand_minimality(kind, knowers, arg_actors, phi, coalition(g.agents))
        assert direct == holds(g, play, expanded).holds
        verdicts.append(direct)
    return verdicts


class TestOracleEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_direct_checker_agrees_with_expansion(self, seed, data):
        """The coalitions are a blamable pair of least size or one more, or
        any two of at most three agents."""
        g, play, phi, near, _ = two_action_case(seed, max_agents=3)
        agents = st.frozensets(st.sampled_from(sorted(g.agents)), max_size=3)
        knowers, actors = data.draw(st.one_of(st.sampled_from(near),
                                              st.tuples(agents, agents)))
        assert_kinds_agree(g, play, phi, knowers, actors)

    def test_the_cases_include_verdicts_that_hold(self):
        """Over fixed seeds, the blamable pairs of the differential make
        each kind hold at least once, so the comparison is not only of
        verdicts that fail on both sides."""
        held = [0, 0, 0, 0]
        for seed in range(30):
            g, play, phi, near, rng = two_action_case(seed, max_agents=3)
            knowers, actors = rng.choice(near)
            verdicts = assert_kinds_agree(g, play, phi, knowers, actors)
            held = [n + bool(v) for n, v in zip(held, verdicts)]
        assert min(held) >= 1, held

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_kind_four_witness_is_never_empty(self, seed, data):
        """Blame needs phi at the play, and the one joint action of the
        empty coalition allows the play, so it never prevents phi there: a
        kind-4 witness is a non-empty coalition that satisfies kind 3."""
        g, play, phi, near, _ = two_action_case(seed, max_agents=3)
        agents = st.frozensets(st.sampled_from(sorted(g.agents)), max_size=3)
        knowers = data.draw(st.one_of(st.sampled_from([k for k, _ in near]), agents))
        witness = minimal_verdict(4, g, play, knowers, None, phi)
        if witness is not None:
            assert witness
            assert check_minimal(3, g, play, knowers, witness, phi)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_direct_checker_agrees_with_expansion_on_four_agents(self, seed):
        """With four agents, a coalition has many more strict subcoalitions
        than coalitions one agent smaller."""
        g, play, phi, near, rng = two_action_case(seed, max_agents=4, agents=4)
        knowers, actors = rng.choice(near)
        assert_kinds_agree(g, play, phi, knowers, actors)


def five_agent_game():
    """Five agents, four states.  Only b and c together tell s0 from the
    other states; in s0 the harm happens unless a and d both play 0, and in
    the other states it always happens.  a, d and e know nothing."""
    states = ("s0", "s1", "s2", "s3")
    agents = ("a", "b", "c", "d", "e")
    everything = [set(states)]
    partitions = {"a": everything, "d": everything, "e": everything,
                  "b": [{"s0", "s1"}, {"s2", "s3"}], "c": [{"s0", "s2"}, {"s1", "s3"}]}
    plays = []
    for alpha in states:
        for combo in itertools.product("01", repeat=len(agents)):
            profile = dict(zip(agents, combo))
            harm = alpha != "s0" or "1" in (profile["a"], profile["d"])
            plays.append(Play(alpha, ActionProfile.make(profile), "bad" if harm else "ok"))
    game = make_game(agents, states, partitions, ("0", "1"), ("bad", "ok"), plays,
                     {"harm": [play for play in plays if play.outcome == "bad"]})
    play = Play("s0", ActionProfile.make(
        {"a": "1", "b": "0", "c": "0", "d": "1", "e": "0"}), "bad")
    return game, play


def blame_setting(name):
    """Game, play, phi, knowers and actors where kinds 1 and 3 hold, and
    the actors are the kind-4 witness."""
    if name == "tarasoff":
        return (tarasoff_game(), october_attack_play(), KILLED,
                coalition({"university"}), coalition({"parents"}))
    game, play = five_agent_game()
    return game, play, Prop("harm"), coalition({"b", "c"}), coalition({"a", "d"})


class TestBlameCheckCount:
    """By monotonicity of blame, each kind-1 to kind-3 verdict takes at most
    1 + |K| + |D| blame checks, and kind 4 at most that per candidate."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        real = dtw.minimality.preventing_profile

        def counted(*args):
            made.append(args[1:3])
            return real(*args)

        monkeypatch.setattr(dtw.minimality, "preventing_profile", counted)
        return made

    @pytest.mark.parametrize("setting", ["tarasoff", "five agents"])
    def test_kinds_1_to_3_test_only_coalitions_one_agent_smaller(self, calls, setting):
        game, play, phi, knowers, actors = blame_setting(setting)
        verdicts = []
        for kind in (1, 2, 3):
            calls.clear()
            verdicts.append(check_minimal(kind, game, play, knowers, actors, phi))
            assert len(calls) <= 1 + len(knowers) + len(actors), (kind, calls)
            assert verdicts[-1] == holds(game, play, expand_minimality(
                kind, knowers, actors, phi, frozenset(game.agents))).holds
        # In Tarasoff the empty knower coalition is blamable for poddar.
        assert verdicts == ([True, False, True] if setting == "tarasoff"
                            else [True, True, True])

    @pytest.mark.parametrize("setting", ["tarasoff", "five agents"])
    def test_kind4_witness_and_count(self, calls, setting):
        game, play, phi, knowers, actors = blame_setting(setting)
        assert minimal_verdict(4, game, play, knowers, None, phi) == actors
        candidates = subsets_of(game.agents)
        tried = candidates[:candidates.index(actors) + 1]
        assert len(calls) <= sum(1 + len(knowers) + len(d) for d in tried)


@pytest.mark.parametrize("kind, knowers, actors, message", [
    (0, {"university"}, {"parents"}, "kind must be 1, 2, 3, or 4, got 0"),
    (5, {"university"}, None, "kind must be 1, 2, 3, or 4, got 5"),
    (1, {"university"}, None, "kind 1 requires an actor coalition"),
    (2, {"university"}, None, "kind 2 requires an actor coalition"),
    (3, {"university"}, None, "kind 3 requires an actor coalition"),
], ids=["kind-0", "kind-5", "kind-1-no-actors", "kind-2-no-actors",
        "kind-3-no-actors"])
def test_checker_and_expansion_refuse_bad_arguments(kind, knowers, actors, message):
    g = tarasoff_game()
    for call in (lambda: minimal_verdict(kind, g, october_attack_play(), knowers,
                                         actors, KILLED),
                 lambda: expand_minimality(kind, knowers, actors, KILLED, g.agents)):
        with pytest.raises(BadParamsError) as exc:
            call()
        assert str(exc.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda g: minimal_verdict(4, g, october_attack_play(), {"university"},
                               {"parents"}, KILLED),
     "kind 4 quantifies actors; pass actors=None"),
    (lambda g: expand_minimality(4, {"university"}, {"parents"}, KILLED, g.agents),
     "kind 4 quantifies over actor coalitions; pass actors=None"),
    (lambda g: expand_minimality(1, {"ghost"}, {"parents"}, KILLED, g.agents),
     "knower coalition must be within the agent universe"),
    (lambda g: expand_minimality(4, {"ghost"}, None, KILLED, g.agents),
     "knower coalition must be within the agent universe"),
    (lambda g: expand_minimality(2, {"university"}, {"ghost"}, KILLED, g.agents),
     "actor coalition must be within the agent universe"),
], ids=["checker-kind-4-with-actors", "expansion-kind-4-with-actors",
        "expansion-knowers-outside", "expansion-kind-4-knowers-outside",
        "expansion-actors-outside"])
def test_kind_four_actors_and_the_universe_are_checked(call, message):
    with pytest.raises(BadParamsError) as exc:
        call(tarasoff_game())
    assert str(exc.value) == message

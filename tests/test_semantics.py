"""Satisfaction, validity, fuzzing, and countermodel search."""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtw import axioms, semantics
from dtw.errors import (
    BadParamsError,
    ResourceLimitError,
    UnknownAgentError,
    UnknownPlayError,
)
from dtw.formula import Blame, Implies, Know, Prop, coalition, conj, render
from dtw.game import (
    ActionProfile,
    Play,
    make_game,
    tarasoff2_game,
    tarasoff_game,
)
from dtw.parser import parse_formula
from dtw.semantics import (
    Evaluator,
    SearchBounds,
    count_models,
    countermodel_search,
    enumerate_games,
    holds,
    random_formula,
    sample_game,
    soundness_fuzz,
    valid_in_game,
)

from oracles import (
    matching_plays,
    naive_holds,
    naive_refutation,
    naive_valid,
    naive_witness,
    random_small_game,
)

KILLED = Prop("killed")


def october_attack_play():
    return Play(
        "Oct",
        ActionProfile.make({"poddar": "1", "parents": "1", "university": "0"}),
        "dead",
    )


class TestHolds:
    def test_university_knew_how_parents_could_prevent(self):
        g = tarasoff_game()
        v = holds(g, october_attack_play(), parse_formula("B[university][parents] killed"))
        assert v.holds
        assert v.witness == ActionProfile.make({"parents": "0"})

    def test_parents_did_not_know_how_to_prevent(self):
        g = tarasoff_game()
        v = holds(g, october_attack_play(), parse_formula("B[parents][parents] killed"))
        assert not v.holds
        assert v.witness is None

    def test_witness_actually_prevents(self):
        g = tarasoff_game()
        rho = october_attack_play()
        v = holds(g, rho, parse_formula("B[university][parents] killed"))
        for play in matching_plays(g, rho.initial, {"university"}, v.witness):
            assert not holds(g, play, KILLED).holds

    def test_empty_actor_coalition_never_blamable(self):
        for g in (tarasoff_game(), tarasoff2_game()):
            for play in g.plays:
                for knowers in (set(), {"parents"}, set(g.agents)):
                    f = Blame(coalition(knowers), coalition(), KILLED)
                    assert not holds(g, play, f).holds

    def test_failed_knowledge_reports_refutation(self):
        g = tarasoff_game()
        v = holds(g, october_attack_play(), parse_formula("K[parents] killed"))
        assert not v.holds
        assert v.refutation is not None
        assert not holds(g, v.refutation, KILLED).holds

    def test_unknown_agent_rejected(self):
        g = tarasoff2_game()
        with pytest.raises(UnknownAgentError):
            holds(g, g.plays[0], parse_formula("K[university] killed"))

    def test_unknown_play_rejected(self):
        g = tarasoff2_game()
        ghost = Play("Oct", ActionProfile.make({"poddar": "1", "parents": "1"}),
                     "alive")
        with pytest.raises(UnknownPlayError):
            holds(g, ghost, KILLED)

    def test_unknown_proposition_is_false_with_warning(self):
        g = tarasoff2_game()
        with pytest.warns(UserWarning):
            v = holds(g, g.plays[0], Prop("mystery"))
        assert not v.holds

    def test_unvalued_proposition_warns_once_when_not_decisive(self):
        g = tarasoff2_game()
        alive = next(p for p in g.plays if p.outcome == "alive")
        mystery = Prop("mystery")
        f = Implies(KILLED, conj(mystery, Implies(mystery, KILLED)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            v = holds(g, alive, f)
        assert v.holds
        assert len(caught) == 1
        assert "'mystery' has no valuation" in str(caught[0].message)

    def test_deterministic_verdicts(self):
        g = tarasoff_game()
        f = parse_formula("B[university,poddar][parents,poddar] killed")
        first = holds(g, october_attack_play(), f)
        second = holds(g, october_attack_play(), f)
        assert first == second


class TestValidity:
    def test_truth_axiom_instance(self):
        g = tarasoff_game()
        assert valid_in_game(g, parse_formula("K[parents]killed -> killed")).holds

    def test_killed_not_valid_refuted_by_first_alive_play(self):
        g = tarasoff_game()
        v = valid_in_game(g, KILLED)
        assert not v.holds
        first_alive = next(p for p in g.plays if p.outcome == "alive")
        assert v.refutation == first_alive

    def test_lemma3_instance_valid(self):
        g = tarasoff_game()
        f = parse_formula(
            "Kd[university] B[university][parents] killed"
            " -> (killed -> B[university][parents] killed)"
        )
        assert valid_in_game(g, f).holds


games_and_formulas = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))


class TestAgainstNaiveOracle:
    @settings(max_examples=120, deadline=None)
    @given(games_and_formulas)
    def test_holds_matches_direct_quantifier_translation(self, seeds):
        game_seed, formula_seed = seeds
        g = random_small_game(game_seed)
        rng = random.Random(formula_seed)
        props = tuple(sorted(g.valuation)) or ("p",)
        f = random_formula(rng, props, tuple(g.agents), depth=3)
        ev = Evaluator(g)
        for play in g.plays:
            assert ev.check(play, f) == naive_holds(g, play, f), render(f)

    @settings(max_examples=60, deadline=None)
    @given(games_and_formulas)
    def test_desugared_connectives_are_truth_functional(self, seeds):
        game_seed, formula_seed = seeds
        g = random_small_game(game_seed)
        rng = random.Random(formula_seed)
        props = tuple(sorted(g.valuation)) or ("p",)
        a = random_formula(rng, props, tuple(g.agents), depth=2)
        b = random_formula(rng, props, tuple(g.agents), depth=2)
        members = frozenset(x for x in g.agents if rng.random() < 0.5)
        from dtw.formula import Not, conj, disj, dual_know, falsum, iff

        ev = Evaluator(g)
        for play in g.plays:
            va, vb = ev.check(play, a), ev.check(play, b)
            assert ev.check(play, conj(a, b)) == (va and vb)
            assert ev.check(play, disj(a, b)) == (va or vb)
            assert ev.check(play, iff(a, b)) == (va == vb)
            assert ev.check(play, falsum()) is False
            assert ev.check(play, dual_know(members, a)) == (
                not ev.check(play, Know(members, Not(a)))
            )


def non_serial_game(seed):
    """A sampled game with about a third of its plays dropped, built
    without validation, so some (state, profile) cells have no outcome."""
    g = random_small_game(seed)
    rng = random.Random(seed)
    kept = [p for p in g.plays if rng.random() < 0.65]
    kept_set = set(kept)
    valuation = {name: [p for p in members if p in kept_set]
                 for name, members in g.valuation.items()}
    return make_game(g.agents, g.initial_states, g.partitions, g.actions,
                     g.outcomes, kept, valuation)


class TestNonSerialGames:
    @settings(max_examples=80, deadline=None)
    @given(games_and_formulas)
    def test_verdicts_witnesses_and_refutations_follow_naive_order(self, seeds):
        game_seed, formula_seed = seeds
        g = non_serial_game(game_seed)
        rng = random.Random(formula_seed)
        props = tuple(sorted(g.valuation)) or ("p",)
        agents = tuple(g.agents)
        body = random_formula(rng, props, agents, depth=2)
        knowers = frozenset(a for a in agents if rng.random() < 0.5)
        actors = frozenset(a for a in agents if rng.random() < 0.6)
        for f in (body, Know(knowers, body), Blame(knowers, actors, body)):
            for play in g.plays:
                v = holds(g, play, f)
                assert v.holds == naive_holds(g, play, f), render(f)
                if isinstance(f, Blame) and v.holds:
                    assert v.witness.as_dict() == naive_witness(g, play, f)
                if isinstance(f, Know) and not v.holds:
                    assert v.refutation == naive_refutation(g, play, f)
            first_false = next(
                (p for p in g.plays if not naive_holds(g, p, f)), None
            )
            assert valid_in_game(g, f).refutation == first_false

    def test_profile_without_plays_prevents_vacuously(self):
        g = tarasoff2_game()
        kept = [p for p in g.plays if p.profile.as_dict()["parents"] != "0"]
        g = make_game(g.agents, g.initial_states, g.partitions, g.actions,
                      g.outcomes, kept,
                      {"killed": [p for p in kept if p.outcome == "dead"]})
        attack = next(p for p in kept if p.initial == "Oct"
                      and p.outcome == "dead")
        v = holds(g, attack, parse_formula("B[poddar][parents] killed"))
        assert v.holds
        assert v.witness == ActionProfile.make({"parents": "0"})


class TestSemanticInvariants:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_blame_implies_truth_and_witness_is_checkable(self, seed, data):
        g = random_small_game(seed)
        rng = random.Random(seed + 1)
        props = tuple(sorted(g.valuation)) or ("p",)
        body = random_formula(rng, props, tuple(g.agents), depth=2)
        agents = sorted(g.agents)
        knowers = data.draw(st.frozensets(st.sampled_from(agents), max_size=3))
        actors = data.draw(st.frozensets(st.sampled_from(agents), max_size=3))
        f = Blame(knowers, actors, body)
        for play in g.plays:
            v = holds(g, play, f)
            if v.holds:
                assert holds(g, play, body).holds
                assert v.witness is not None
                assert v.witness.domain == actors
                for other in matching_plays(g, play.initial, knowers, v.witness):
                    assert not holds(g, other, body).holds

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_blame_monotone_in_both_coalitions(self, seed, data):
        g = random_small_game(seed)
        rng = random.Random(seed + 2)
        props = tuple(sorted(g.valuation)) or ("p",)
        body = random_formula(rng, props, tuple(g.agents), depth=2)
        agents = sorted(g.agents)
        small_k = data.draw(st.frozensets(st.sampled_from(agents), max_size=2))
        small_a = data.draw(st.frozensets(st.sampled_from(agents), max_size=2))
        big_k = small_k | data.draw(
            st.frozensets(st.sampled_from(agents), max_size=2)
        )
        big_a = small_a | data.draw(
            st.frozensets(st.sampled_from(agents), max_size=2)
        )
        ev = Evaluator(g)
        for play in g.plays:
            if ev.check(play, Blame(small_k, small_a, body)):
                assert ev.check(play, Blame(big_k, big_a, body))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_introspection_schemas_valid_on_sampled_games(self, seed, data):
        g = random_small_game(seed)
        agents = sorted(g.agents)
        members = data.draw(st.frozensets(st.sampled_from(agents), max_size=3))
        prop = Prop(sorted(g.valuation)[0])
        knows = Know(members, prop)
        from dtw.formula import Implies, Not

        negative = Implies(Not(knows), Know(members, Not(knows)))
        positive = Implies(knows, Know(members, knows))
        assert valid_in_game(g, negative).holds
        assert valid_in_game(g, positive).holds


class TestFuzz:
    BOUNDS = SearchBounds(
        max_agents=3, max_initial=3, max_actions=2, max_outcomes=2,
        max_props=3, mode="random", seed=11, iterations=300,
    )

    def test_truth_schema_clean(self):
        assert soundness_fuzz("Truth", self.BOUNDS) is None

    def test_exhaustive_truth_clean_on_tiny_bounds(self):
        bounds = SearchBounds(max_agents=1, max_initial=2, max_actions=2,
                              max_outcomes=1, max_props=1)
        assert soundness_fuzz("Truth", bounds) is None

    def test_joint_responsibility_needs_its_side_condition(self):
        assert soundness_fuzz("JointResponsibility", self.BOUNDS) is None
        broken = soundness_fuzz(
            "JointResponsibility", self.BOUNDS, enforce_side_conditions=False
        )
        assert broken is not None
        # The reported play really falsifies the reported instance.
        assert not naive_holds(broken.game, broken.play, broken.instance)
        subst = broken.substitution
        assert subst["D"] & subst["F"]

    def test_unknown_schema(self):
        with pytest.raises(BadParamsError):
            soundness_fuzz("NoSuchAxiom", self.BOUNDS)

    def test_sampled_instantiations_respect_side_conditions(self):
        rng = random.Random(5)
        g = sample_game(rng, self.BOUNDS)
        for name in ("Monotonicity-K", "Monotonicity-B", "JointResponsibility"):
            schema = axioms.ALL_SCHEMAS[name]
            for _ in range(50):
                from dtw.semantics import sample_instantiation

                subst = sample_instantiation(rng, schema, g.agents,
                                             tuple(sorted(g.valuation)))
                assert axioms.side_conditions_hold(schema, subst)


class TestCountermodels:
    BOUNDS = SearchBounds(max_agents=2, max_initial=2, max_actions=2,
                          max_outcomes=2, max_props=1)

    def test_distributed_knowledge_not_individual(self):
        f = parse_formula("K[a,b]p -> K[a]p")
        found = countermodel_search(f, self.BOUNDS)
        assert found is not None
        game, play = found
        assert not holds(game, play, f).holds
        assert not naive_holds(game, play, f)

    def test_blame_does_not_entail_knowledge_of_truth(self):
        f = parse_formula("B[a][b]p -> K[a]p")
        found = countermodel_search(f, self.BOUNDS)
        assert found is not None
        game, play = found
        assert not naive_holds(game, play, f)

    def test_monotone_knowledge_has_no_countermodel(self):
        f = parse_formula("K[a]p -> K[a,b]p")
        assert countermodel_search(f, self.BOUNDS) is None

    def test_random_mode_finds_and_verifies(self):
        f = parse_formula("K[a,b]p -> K[a]p")
        bounds = SearchBounds(max_agents=2, max_initial=2, max_actions=2,
                              max_outcomes=2, max_props=1, mode="random",
                              seed=3, iterations=400)
        found = countermodel_search(f, bounds)
        assert found is not None
        game, play = found
        assert not naive_holds(game, play, f)

    def test_enumerated_games_are_valid_and_deterministic(self):
        from dtw.game import validate_game
        from dtw.semantics import enumerate_games

        first = [
            m.game() for _, m in zip(range(25), enumerate_games(("a",), ("p",), self.BOUNDS))
        ]
        again = [
            m.game() for _, m in zip(range(25), enumerate_games(("a",), ("p",), self.BOUNDS))
        ]
        for g1, g2 in zip(first, again):
            assert g1.plays == g2.plays
            assert validate_game(g1) == []

    def test_model_budget(self):
        from dtw.errors import ResourceLimitError

        f = parse_formula("K[a,b]p -> K[a]p")
        with pytest.raises(ResourceLimitError):
            countermodel_search(f, self.BOUNDS, model_budget=10)


class TestModelCount:
    def test_bell_numbers_count_the_set_partitions(self):
        for n in range(1, 8):
            states = [f"s{i}" for i in range(n)]
            assert semantics._bell(n) == len(semantics._set_partitions(states))

    def test_count_matches_the_enumeration(self):
        bounds = SearchBounds(max_agents=1, max_initial=3, max_actions=1,
                              max_outcomes=1)
        visited = sum(1 for _ in enumerate_games(("a",), ("p",), bounds))
        assert count_models(("a",), ("p",), bounds) == visited == 50

    def test_count_under_a_limit_is_exact_within_it_and_a_bound_past_it(self):
        bounds = SearchBounds(max_agents=3, max_initial=3)
        exact = count_models(("a",), ("p",), bounds)
        assert count_models(("a",), ("p",), bounds, limit=exact) == exact
        for limit in (0, 10, 10**6, exact - 1):
            partial = count_models(("a",), ("p",), bounds, limit=limit)
            assert limit < partial <= exact

    def test_count_stops_once_past_the_limit(self, monkeypatch):
        bell, sizes = semantics._bell, []
        monkeypatch.setattr(semantics, "_bell",
                            lambda n: sizes.append(n) or bell(n))
        bounds = SearchBounds(max_agents=1000)
        assert count_models(("a",), ("p",), bounds, limit=10**6) > 10**6
        assert len(sizes) < 10

    @pytest.mark.parametrize("text, bounds", [
        # The exact count is a 31.7-million-bit number.
        ("K[a]p -> K[a,b]p", SearchBounds(max_agents=7, max_actions=10)),
        # The first term over the budget alone is 3 ** (2 ** 22).
        ("K[" + ",".join(f"a{i}" for i in range(22)) + "]p -> p",
         SearchBounds(max_agents=22)),
    ])
    def test_budget_refuses_large_bounds_without_the_exact_count(
            self, monkeypatch, text, bounds):
        # Refusing must build neither the count nor any number near it.
        import tracemalloc

        monkeypatch.delenv("DTW_BUDGET", raising=False)
        f = parse_formula(text)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="at least"):
                countermodel_search(f, bounds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_budget_refuses_before_building_partitions(self, monkeypatch):
        def unwanted(items):
            raise AssertionError("set partitions built before the budget check")

        monkeypatch.setattr(semantics, "_set_partitions", unwanted)
        monkeypatch.delenv("DTW_BUDGET", raising=False)
        with pytest.raises(ResourceLimitError):
            next(enumerate_games(("a",), ("p",), SearchBounds(max_initial=12)))


class TestSearchBounds:
    def test_bounds_must_be_positive(self):
        with pytest.raises(BadParamsError):
            SearchBounds(max_agents=0)

    def test_random_mode_requires_seed(self):
        with pytest.raises(BadParamsError):
            SearchBounds(mode="random")

    def test_unknown_mode(self):
        with pytest.raises(BadParamsError):
            SearchBounds(mode="sideways")


class TestImmutability:
    def test_formula_nodes_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            Prop("p").name = "q"

    def test_plays_frozen(self):
        import dataclasses

        g = tarasoff2_game()
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.plays[0].outcome = "alive"


class TestValidityOracle:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_valid_in_game_matches_naive(self, game_seed, formula_seed):
        g = random_small_game(game_seed, max_agents=2)
        rng = random.Random(formula_seed)
        props = tuple(sorted(g.valuation)) or ("p",)
        f = random_formula(rng, props, tuple(g.agents), depth=3)
        v = valid_in_game(g, f)
        assert v.holds == naive_valid(g, f)
        if not v.holds:
            assert not naive_holds(g, v.refutation, f)

"""Satisfaction, validity, fuzzing, and countermodel search."""

import random
import sys
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtw import axioms, evaluation, formula, minimality, semantics
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
from dtw.limits import budget
from dtw.minimality import minimal_verdict
from dtw.parser import parse_formula
from dtw.semantics import (
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

    @pytest.mark.parametrize("query", ["holds", "valid_in_game", "minimal_verdict"])
    @pytest.mark.parametrize("text,names", [
        ("zzz -> yyy", ["zzz", "yyy"]),
        ("yyy -> (zzz -> K[university] yyy)", ["yyy", "zzz"]),
    ])
    def test_unvalued_propositions_warn_once_each_in_first_occurrence_order(
            self, query, text, names):
        g = tarasoff_game()
        phi = parse_formula(text)
        run = {
            "holds": lambda: holds(g, october_attack_play(), phi),
            "valid_in_game": lambda: valid_in_game(g, phi),
            "minimal_verdict": lambda: minimal_verdict(
                1, g, october_attack_play(), {"university"}, {"parents"}, phi),
        }[query]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        assert [str(w.message) for w in caught] == [
            f"proposition {name!r} has no valuation in this game; "
            "treating it as false everywhere" for name in names]

    def test_deterministic_verdicts(self):
        g = tarasoff_game()
        f = parse_formula("B[university,poddar][parents,poddar] killed")
        first = holds(g, october_attack_play(), f)
        second = holds(g, october_attack_play(), f)
        assert first == second


GHOST = Play("Oct", ActionProfile.make({"poddar": "1", "parents": "1"}), "alive")


def query(name, game, play, f):
    """A call of one entry point that evaluates f in the game."""
    return {
        "holds": lambda: holds(game, play, f),
        "valid_in_game": lambda: valid_in_game(game, f),
        "minimal_verdict": lambda: minimal_verdict(1, game, play, {"parents"},
                                                   {"parents"}, f),
        "satisfaction": lambda: evaluation.satisfaction(game, f),
    }[name]


class TestOneCompile:
    """Each query compiles its formula once.  It checks the agents, then
    the play, then warns about the unvalued propositions, so an error comes
    before any warning."""

    @pytest.mark.parametrize("name, text, play, error", [
        ("holds", "K[university] killed", GHOST, UnknownAgentError),
        ("minimal_verdict", "K[university] killed", GHOST, UnknownAgentError),
        ("holds", "zzz -> killed", GHOST, UnknownPlayError),
        ("minimal_verdict", "zzz -> killed", GHOST, UnknownPlayError),
        ("holds", "K[university] zzz", None, UnknownAgentError),
        ("valid_in_game", "K[university] zzz", None, UnknownAgentError),
        ("minimal_verdict", "K[university] zzz", None, UnknownAgentError),
    ])
    def test_errors_come_first_and_warn_of_nothing(self, name, text, play, error):
        g = tarasoff2_game()
        run = query(name, g, play or g.plays[0], parse_formula(text))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error):
                run()
        assert caught == []

    @pytest.mark.parametrize("name", ["holds", "valid_in_game", "minimal_verdict",
                                      "satisfaction"])
    def test_each_call_warns_at_the_calling_line(self, name):
        g = tarasoff2_game()
        run = query(name, g, g.plays[0], parse_formula("zzz -> killed"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
            run()
        assert [(w.filename, str(w.message)) for w in caught] == [
            (__file__, "proposition 'zzz' has no valuation in this game; "
             "treating it as false everywhere")] * 2

    @pytest.mark.parametrize("name", ["holds", "valid_in_game", "minimal_verdict",
                                      "satisfaction", "countermodel_search"])
    def test_a_query_walks_its_formula_once(self, name, monkeypatch):
        """One compile, which asks for the children of each of the 4
        distinct nodes once."""
        compiled, asked = [], []

        def counting(f, *rest, compile_masks=formula.compile_masks):
            compiled.append(f)
            return compile_masks(f, *rest)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is formula.children_of.__code__:
                asked.append(frame.f_locals["f"])

        for module in (formula, evaluation, minimality, semantics):
            monkeypatch.setattr(module, "compile_masks", counting, raising=False)
        g, f = tarasoff2_game(), parse_formula("K[parents] (zzz -> killed)")
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                if name == "countermodel_search":
                    countermodel_search(f, SearchBounds(max_agents=1, max_props=2))
                else:
                    query(name, g, g.plays[0], f)()
        finally:
            sys.setprofile(previous)
        assert compiled == [f] and compiled[0] is f
        assert asked == [f, f.child, f.child.left, f.child.right]


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
        for play in g.plays:
            assert holds(g, play, f).holds == naive_holds(g, play, f), render(f)

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

        for play in g.plays:
            va, vb = holds(g, play, a).holds, holds(g, play, b).holds
            assert holds(g, play, conj(a, b)).holds == (va and vb)
            assert holds(g, play, disj(a, b)).holds == (va or vb)
            assert holds(g, play, iff(a, b)).holds == (va == vb)
            assert holds(g, play, falsum()).holds is False
            assert holds(g, play, dual_know(members, a)).holds == (
                not holds(g, play, Know(members, Not(a))).holds
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
        for play in g.plays:
            if holds(g, play, Blame(small_k, small_a, body)).holds:
                assert holds(g, play, Blame(big_k, big_a, body)).holds

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

    def test_model_budget(self, monkeypatch):
        from dtw.errors import ResourceLimitError

        monkeypatch.setenv("DTW_BUDGET", "10")
        f = parse_formula("K[a,b]p -> K[a]p")
        with pytest.raises(ResourceLimitError):
            countermodel_search(f, self.BOUNDS)


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

    def test_iterations_must_not_be_negative(self):
        with pytest.raises(BadParamsError):
            SearchBounds(mode="random", seed=1, iterations=-1)
        assert SearchBounds(mode="random", seed=1, iterations=0).iterations == 0

    @pytest.mark.parametrize("field, value", [
        ("max_agents", 2.5), ("max_initial", 1.5), ("max_actions", None),
        ("max_outcomes", "2"), ("max_props", 1.0), ("iterations", 2.5)])
    def test_sizes_must_be_integers(self, field, value):
        """Each entry point gets a ``BadParamsError`` naming the field, by
        keyword or through ``replace``, not a ``TypeError`` from the search."""
        random_mode = SearchBounds(mode="random", seed=1, iterations=5)
        calls = [
            lambda bounds: countermodel_search(parse_formula("K[a]p -> p"), bounds),
            lambda bounds: soundness_fuzz("Truth", bounds),
            lambda bounds: sample_game(random.Random(1), bounds),
        ]
        for call in calls:
            with pytest.raises(BadParamsError, match=f"^{field} must be an integer"):
                call(SearchBounds(mode="random", seed=1, **{field: value}))
            with pytest.raises(BadParamsError, match=f"^{field} must be an integer"):
                call(random_mode.replace(**{field: value}))

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    def test_seed_must_be_a_type_random_accepts(self, mode):
        """A seed that ``random.Random`` would refuse gets a
        ``BadParamsError`` in either mode, by keyword or through ``replace``,
        before any search starts."""
        message = r"^seed must be an int, float, str, bytes or bytearray, got \[1\]$"
        calls = [
            lambda seed: SearchBounds(mode=mode, seed=seed, iterations=3),
            lambda seed: SearchBounds(mode=mode, seed=1, iterations=3).replace(seed=seed),
            lambda seed: countermodel_search(parse_formula("K[a]p -> p"),
                                             SearchBounds(mode=mode, seed=seed)),
            lambda seed: soundness_fuzz("Truth", SearchBounds(mode=mode, seed=seed,
                                                              iterations=3)),
        ]
        for call in calls:
            with pytest.raises(BadParamsError, match=message):
                call([1])
        for seed in (7, 0.5, "s", b"s", bytearray(b"s")):
            assert calls[1](seed).seed == seed

    def test_each_size_is_checked_before_its_range(self):
        with pytest.raises(BadParamsError, match="max_agents must be at least 1"):
            SearchBounds(max_agents=0, max_initial=1.5)
        with pytest.raises(BadParamsError, match="max_initial must be an integer"):
            SearchBounds(max_initial=1.5, max_actions=0)


class TestNamePools:
    """Bounds past the 8 agent names or the 5 proposition names are refused
    before any model is enumerated or any game is built."""

    @pytest.fixture(autouse=True)
    def nothing_built(self, monkeypatch):
        def unwanted(*args, **kwargs):
            raise AssertionError("a model or a game was built")

        monkeypatch.setattr(semantics, "_set_partitions", unwanted)
        monkeypatch.setattr(semantics, "make_game", unwanted)

    def test_enumeration(self):
        bounds = SearchBounds(max_agents=10, max_initial=1, max_actions=1,
                              max_outcomes=1)
        with pytest.raises(BadParamsError, match="only 8 agent names"):
            next(enumerate_games((), ("p",), bounds))

    @pytest.mark.parametrize("text, bounds, message", [
        ("p", SearchBounds(max_agents=9), "only 8 agent names"),
        # Agents named by the formula are padded with z0, z1, ...
        ("K[a,x]p", SearchBounds(max_agents=12), "only 11 agent names"),
        ("p", SearchBounds(max_agents=9, mode="random", seed=1), "only 8 agent"),
        ("K[x]p", SearchBounds(max_agents=10, mode="random", seed=1),
         "only 9 agent names"),
        ("false", SearchBounds(max_props=6, mode="random", seed=1),
         "only 5 prop names"),
    ])
    def test_countermodel_search(self, text, bounds, message):
        with pytest.raises(BadParamsError, match=message):
            countermodel_search(parse_formula(text), bounds)

    @pytest.mark.parametrize("bounds, message", [
        (SearchBounds(max_agents=9), "only 8 agent names"),
        (SearchBounds(max_props=6), "only 5 prop names"),
        (SearchBounds(max_agents=40, max_props=40, mode="random", seed=1,
                      iterations=5), "only 8 agent names"),
        (SearchBounds(max_props=6, mode="random", seed=1, iterations=5),
         "only 5 prop names"),
    ])
    def test_soundness_fuzz(self, bounds, message):
        with pytest.raises(BadParamsError, match=message):
            soundness_fuzz("Truth", bounds)


class TestSamplingBudget:
    """Random mode refuses bounds whose largest game grid, max_initial *
    max_actions ** max_agents cells, exceeds the seriality budget, before
    any game is built."""

    BIG = SearchBounds(max_agents=8, max_initial=2, max_actions=8, mode="random",
                       seed=1, iterations=50)
    SMALL = SearchBounds(max_agents=3, max_initial=2, max_actions=2,
                         mode="random", seed=1, iterations=5)

    @pytest.fixture(autouse=True)
    def nothing_built(self, monkeypatch):
        def unwanted(*args, **kwargs):
            raise AssertionError("a game was built")

        monkeypatch.setattr(semantics, "make_game", unwanted)

    def test_default_budget(self):
        with pytest.raises(ResourceLimitError, match="budget is 10000000"):
            soundness_fuzz("Truth", self.BIG)
        with pytest.raises(ResourceLimitError, match="budget is 10000000"):
            countermodel_search(parse_formula("p -> p"), self.BIG)

    def test_env_budget(self, monkeypatch):
        # 2 * 2**3 = 16 cells: refused under a budget of 15, whatever the
        # number of agents each draw would pick.
        monkeypatch.setenv("DTW_BUDGET", "15")
        with pytest.raises(ResourceLimitError, match="at least 16 .* budget is 15"):
            soundness_fuzz("Truth", self.SMALL)
        with pytest.raises(ResourceLimitError, match="budget is 15"):
            countermodel_search(parse_formula("p -> p"), self.SMALL)
        # The refusal depends on the bounds alone, even with no iterations.
        idle = self.SMALL.replace(iterations=0)
        with pytest.raises(ResourceLimitError, match="budget is 15"):
            soundness_fuzz("Truth", idle)
        with pytest.raises(ResourceLimitError, match="budget is 15"):
            countermodel_search(parse_formula("p -> p"), idle)
        with pytest.raises(ResourceLimitError, match="budget is 15"):
            sample_game(random.Random(0), self.SMALL, agents=("a",))

    def test_outcomes_over_the_budget_are_refused(self, monkeypatch):
        """More outcomes than the seriality budget are refused after the
        grid and before the prop pool."""
        monkeypatch.setenv("DTW_BUDGET", "1000")
        over = self.SMALL.replace(max_outcomes=1001)
        with pytest.raises(ResourceLimitError,
                           match="from 1001 outcomes per game, budget is 1000"):
            soundness_fuzz("Truth", over)
        with pytest.raises(ResourceLimitError, match="budget is 1000"):
            countermodel_search(parse_formula("p -> p"), over)
        with pytest.raises(ResourceLimitError, match="budget is 1000"):
            sample_game(random.Random(0), over)
        with pytest.raises(ResourceLimitError, match="cells per game"):
            soundness_fuzz("Truth", over.replace(max_actions=32))
        with pytest.raises(ResourceLimitError, match="outcomes per game"):
            soundness_fuzz("Truth", over.replace(max_props=6))
        assert soundness_fuzz("Truth", over.replace(max_outcomes=1000)) is None

    def test_samples_keep_no_outcome_names(self):
        """A sample keeps its outcome count, not a name per outcome, so a
        pool of 200 samples drawn from up to 40000 outcomes stays small."""
        bounds = SearchBounds(max_agents=1, max_initial=1, max_actions=1,
                              max_outcomes=40000, mode="random", seed=1,
                              iterations=200)
        tracemalloc.start()
        try:
            assert soundness_fuzz("Truth", bounds) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_budget_resolved_once_per_call(self, monkeypatch):
        """Random fuzzing and countermodel search look the budget up once
        per call, not once per sampled game."""
        lookups = []

        def counted(kind):
            lookups.append(kind)
            return budget(kind)

        monkeypatch.setattr(semantics, "budget", counted)
        assert soundness_fuzz("Truth", self.SMALL.replace(iterations=150)) is None
        assert lookups == ["seriality-checks"]
        lookups.clear()
        assert countermodel_search(parse_formula("K[a]p -> p"),
                                   self.SMALL.replace(iterations=50)) is None
        assert lookups == ["seriality-checks"]


def test_bounds_that_fill_the_pools_reach_them():
    bounds = SearchBounds(max_agents=8, max_initial=1, max_actions=1,
                          max_outcomes=1)
    sizes = {len(m.structure.agents) for m in enumerate_games((), ("p",), bounds)}
    assert sizes == set(range(1, 9))
    rng = random.Random(1)
    full = SearchBounds(max_agents=8, max_initial=1, max_actions=1, max_props=5)
    games = [sample_game(rng, full) for _ in range(100)]
    assert max(len(g.agents) for g in games) == 8
    assert max(len(g.valuation) for g in games) == 5


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

"""Game data structure, file format, validation, and the bundled example."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtw.errors import (
    EmptyInputError,
    ParseError,
    ResourceLimitError,
    UnknownAgentError,
    UnknownStateError,
    ValidationError,
)
from dtw.game import (
    ActionProfile,
    Play,
    indist_state,
    load_game,
    render_game_file,
    tarasoff2_game,
    tarasoff_game,
    validate_game,
)

from oracles import matching_plays, naive_indist, random_small_game

MINIMAL = """
agents: a
initial: s
actions: x
outcomes: o
play: s a=x o
"""


def _tarasoff_expected_outcome(initial, attacker, vacation):
    # Independent re-derivation: the attack succeeds only when it happens
    # (action 1) and the vacation month differs from the attack month.
    month_of_vacation = {"0": "Oct", "1": "Nov"}[vacation]
    return "dead" if attacker == "1" and month_of_vacation != initial else "alive"


class TestBundledGames:
    def test_3agent_shape(self):
        g = tarasoff_game()
        assert len(g.initial_states) == 2
        assert len(g.actions) == 2
        assert len(g.outcomes) == 2
        assert len(g.plays) == 16
        assert validate_game(g) == []

    def test_2agent_shape(self):
        g = tarasoff2_game()
        assert len(g.plays) == 8
        assert validate_game(g) == []

    def test_2agent_seriality_oracle_one_outcome_per_cell(self):
        g = tarasoff2_game()
        cells = {}
        for play in g.plays:
            cells.setdefault((play.initial, play.profile), []).append(play)
        assert len(cells) == 2 * 2 ** len(g.agents)
        assert all(len(v) == 1 for v in cells.values())

    @pytest.mark.parametrize("game_fn", [tarasoff_game, tarasoff2_game])
    def test_outcomes_match_narrative(self, game_fn):
        g = game_fn()
        for play in g.plays:
            prof = play.profile.as_dict()
            assert play.outcome == _tarasoff_expected_outcome(
                play.initial, prof["poddar"], prof["parents"]
            )

    def test_killed_valuation_is_dead_plays(self):
        g = tarasoff_game()
        assert g.valuation["killed"] == frozenset(
            p for p in g.plays if p.outcome == "dead"
        )

    def test_october_attack_during_november_vacation_is_fatal(self):
        g = tarasoff_game()
        prof = ActionProfile.make(
            {"poddar": "1", "parents": "1", "university": "0"}
        )
        assert g.has_play(Play("Oct", prof, "dead"))

    def test_no_attack_never_fatal(self):
        g = tarasoff_game()
        for play in g.plays:
            if play.profile.as_dict()["poddar"] == "0":
                assert play.outcome == "alive"

    def test_november_attack_after_october_vacation_is_fatal(self):
        g = tarasoff2_game()
        prof = ActionProfile.make({"poddar": "1", "parents": "0"})
        assert g.has_play(Play("Nov", prof, "dead"))


class TestFileFormat:
    def test_minimal_game(self):
        g = load_game(MINIMAL)
        assert g.agents == ("a",)
        assert len(g.plays) == 1
        assert validate_game(g) == []

    def test_round_trip_bundled(self):
        for game in (tarasoff_game(), tarasoff2_game()):
            text = render_game_file(game)
            again = load_game(text)
            assert again.agents == game.agents
            assert again.plays == game.plays
            assert again.valuation == game.valuation
            assert again.partitions == game.partitions

    def test_empty_file(self):
        with pytest.raises(EmptyInputError):
            load_game("  \n# only a comment\n")

    def test_unknown_directive_is_syntax_error(self):
        with pytest.raises(ParseError) as exc:
            load_game("agents: a\nbogus: 1\n")
        assert exc.value.line == 2

    def test_missing_play_is_seriality_violation_naming_the_pair(self):
        text = render_game_file(tarasoff2_game())
        lines = [
            l for l in text.splitlines()
            if not (l.startswith("play: Oct") and "poddar=0" in l and "parents=0" in l)
        ]
        # drop the prop line: play indices shifted
        lines = [l for l in lines if not l.startswith("prop")]
        with pytest.raises(ValidationError) as exc:
            load_game("\n".join(lines))
        message = str(exc.value)
        assert "seriality" in message and "Oct" in message
        assert "parents=0" in message and "poddar=0" in message

    def test_partition_overlap_reported(self):
        text = MINIMAL.replace("initial: s", "initial: s t").replace(
            "play: s a=x o", "play: s a=x o\nplay: t a=x o"
        ) + "indist a: {s t} {t}\n"
        with pytest.raises(ValidationError) as exc:
            load_game(text)
        assert any("overlap" in v for v in exc.value.violations)

    def test_valuation_must_reference_known_plays(self):
        with pytest.raises(ValidationError) as exc:
            load_game(MINIMAL + "prop bad: 7\n")
        assert any("unknown play" in v for v in exc.value.violations)

    def test_non_total_profile_rejected(self):
        text = MINIMAL.replace("agents: a", "agents: a b").replace(
            "play: s a=x o", "play: s a=x o"
        )
        with pytest.raises(ValidationError) as exc:
            load_game(text)
        assert any("not total" in v for v in exc.value.violations)

    def test_duplicate_play_rejected(self):
        with pytest.raises(ValidationError) as exc:
            load_game(MINIMAL + "play: s a=x o\n")
        assert any("duplicate play" in v for v in exc.value.violations)

    def test_omitted_indist_defaults_to_singletons(self):
        g = load_game(MINIMAL.replace("initial: s", "initial: s t")
                      + "play: t a=x o\n")
        assert g.partitions["a"] == (frozenset({"s"}), frozenset({"t"}))

    def test_seriality_budget(self):
        with pytest.raises(ResourceLimitError):
            validate_game(tarasoff_game(), seriality_budget=3)

    def test_indist_for_unknown_agent_rejected(self):
        with pytest.raises(ValidationError) as exc:
            load_game(MINIMAL + "indist ghost: {s}\n")
        assert any("unknown agent" in v for v in exc.value.violations)

    def test_constructed_valuation_outside_plays_reported(self):
        from dtw.game import make_game

        g = tarasoff2_game()
        ghost = Play("Oct", ActionProfile.make({"poddar": "1", "parents": "1"}),
                     "alive")
        bad = make_game(
            g.agents, g.initial_states, g.partitions, g.actions, g.outcomes,
            g.plays, {"killed": set(g.valuation["killed"]) | {ghost}},
        )
        assert any("not a subset of the plays" in v for v in validate_game(bad))


class TestIndist:
    def test_parents_cannot_tell_the_months_apart(self):
        g = tarasoff_game()
        assert indist_state(g, {"parents"}, "Oct", "Nov")

    def test_university_can(self):
        g = tarasoff_game()
        assert not indist_state(g, {"university"}, "Oct", "Nov")

    def test_empty_coalition_cannot_distinguish(self):
        g = tarasoff_game()
        assert indist_state(g, set(), "Oct", "Nov")

    def test_unknown_agent(self):
        with pytest.raises(UnknownAgentError):
            indist_state(tarasoff2_game(), {"university"}, "Oct", "Nov")

    def test_unknown_state(self):
        with pytest.raises(UnknownStateError):
            indist_state(tarasoff2_game(), {"parents"}, "Oct", "Dec")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_equivalence_relation_per_coalition(self, seed, data):
        g = random_small_game(seed)
        members = data.draw(
            st.frozensets(st.sampled_from(sorted(g.agents)), max_size=3)
        )
        states = sorted(g.initial_states)
        for a in states:
            assert indist_state(g, members, a, a)
            for b in states:
                assert indist_state(g, members, a, b) == indist_state(
                    g, members, b, a
                )
                assert indist_state(g, members, a, b) == naive_indist(
                    g, members, a, b
                )
                for c in states:
                    if indist_state(g, members, a, b) and indist_state(
                        g, members, b, c
                    ):
                        assert indist_state(g, members, a, c)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.data())
    def test_monotone_refinement(self, seed, data):
        g = random_small_game(seed)
        agents = sorted(g.agents)
        big = data.draw(st.frozensets(st.sampled_from(agents), max_size=3))
        small = data.draw(
            st.frozensets(st.sampled_from(agents), max_size=3).filter(
                lambda s: s <= big
            )
            if big
            else st.just(frozenset())
        )
        for a in g.initial_states:
            for b in g.initial_states:
                if indist_state(g, big, a, b):
                    assert indist_state(g, small, a, b)


class TestMatchingPlays:
    def test_unconstrained_yields_all_plays(self):
        g = tarasoff_game()
        got = list(matching_plays(g, "Oct", set(), ActionProfile.make({})))
        assert got == list(g.plays)

    def test_identity_observer_partial_profile_2agent(self):
        # Within the two-agent game, an identity-partition observer keeps
        # only same-initial plays: two remain once the protectors' action
        # is fixed (one per attacker choice).
        g = tarasoff2_game()
        got = list(
            matching_plays(g, "Oct", {"poddar"},
                           ActionProfile.make({"parents": "0"}))
        )
        oracle = [
            p for p in g.plays
            if naive_indist(g, {"poddar"}, "Oct", p.initial)
            and p.profile.as_dict()["parents"] == "0"
        ]
        assert got == oracle
        assert len(got) == 2

    def test_identity_observer_full_profile_2agent(self):
        g = tarasoff2_game()
        got = list(
            matching_plays(
                g, "Oct", {"poddar"},
                ActionProfile.make({"parents": "0", "poddar": "1"}),
            )
        )
        assert len(got) == 1
        assert got[0].initial == "Oct"
        assert got[0].outcome == "alive"

    def test_university_observer_3agent(self):
        # The three-agent variant leaves the attacker and observer actions
        # free: four plays share the initial state and protectors' action.
        g = tarasoff_game()
        got = list(
            matching_plays(g, "Oct", {"university"},
                           ActionProfile.make({"parents": "0"}))
        )
        oracle = [
            p for p in g.plays
            if naive_indist(g, {"university"}, "Oct", p.initial)
            and p.profile.as_dict()["parents"] == "0"
        ]
        assert got == oracle
        assert len(got) == 4

    def test_blind_coalition_spans_initial_states(self):
        g = tarasoff2_game()
        got = list(
            matching_plays(g, "Oct", {"parents"},
                           ActionProfile.make({"parents": "0"}))
        )
        assert {p.initial for p in got} == {"Oct", "Nov"}
        assert len(got) == 4

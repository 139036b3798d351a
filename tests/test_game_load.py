"""One-pass game loading against the loader it replaced, frozen in
``tests/frozen_game.py``: the same games, rendered files, validation lists
and errors on the bundled games, the benchmark's generated games and
mutated game files; masks equal to masks rebuilt play by play; each play
hashed a few times and each distinct profile built once while loading; and
plays, profiles and formulas that survive pickling into a process with
another string hash seed."""

import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dtw.errors import ParseError, ResourceLimitError, ValidationError
from dtw.game import (
    ActionProfile,
    Game,
    Play,
    load_game,
    make_game,
    render_game_file,
    tarasoff2_game,
    tarasoff_game,
    validate_game,
)

from frozen_game import naive_load_game, naive_validate_game

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = [render_game_file(tarasoff2_game()), render_game_file(tarasoff_game())]


def benchmark_games(seed=1, sizes=(4, 5, 6)):
    """The files of the modelcheck workload's generated games."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import reference
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    rng = random.Random(seed)
    return [reference.render_game(workloads.make_mc_game(rng, random.Random(n), n))
            for n in sizes]


BENCHMARK = benchmark_games()


def kind(result):
    return result[0] if isinstance(result, tuple) else "game"


def outcome(load, text):
    """What a loader makes of a file: the game, or the error's fields."""
    try:
        return load(text)
    except ParseError as exc:
        return type(exc).__name__, exc.message, exc.line, exc.pos, exc.expected
    except ValidationError as exc:
        return "ValidationError", exc.violations
    except ResourceLimitError as exc:
        return "ResourceLimitError", str(exc)


def naive_masks(game):
    """The index, state, action and prop masks, rebuilt play by play and
    pair by pair."""
    index, state, action = {}, {}, {}
    for i, play in enumerate(game.plays):
        index.setdefault(play, i)
        state[play.initial] = state.get(play.initial, 0) | 1 << i
        for pair in play.profile.assignment:
            action[pair] = action.get(pair, 0) | 1 << i
    prop = {name: sum(1 << index[p] for p in members if p in index)
            for name, members in game.valuation.items()}
    return index, state, action, prop


def assert_masks_rebuilt(game):
    masks = game.masks
    assert (masks.index, masks.frame.state, masks.frame.action,
            masks.prop) == naive_masks(game)
    assert masks.full == (1 << len(game.plays)) - 1


def assert_loads_as_frozen(text):
    got, want = outcome(load_game, text), outcome(naive_load_game, text)
    if kind(want) != "game":
        assert got == want
        return
    assert kind(got) == "game", got
    assert render_game_file(got) == render_game_file(want)
    assert "masks" in vars(got)  # filled while loading
    assert_masks_rebuilt(got)
    assert validate_game(got) == naive_validate_game(want) == []


@pytest.mark.parametrize("text", BUNDLED + BENCHMARK,
                         ids=["tarasoff2", "tarasoff", "mc4", "mc5", "mc6"])
def test_valid_files_load_as_before(text):
    assert_loads_as_frozen(text)


# ---------------------------------------------------------------------------
# Mutated files.
# ---------------------------------------------------------------------------

def _play_lines(lines):
    return [i for i, line in enumerate(lines) if line.startswith("play:")]


def _set_token(line, k, token):
    head, _, rest = line.partition(":")
    tokens = rest.split()
    tokens[k % len(tokens)] = token
    return head + ": " + " ".join(tokens)


def mutate(lines, how, data):
    """One mutation of a game file's lines, in place."""
    plays = _play_lines(lines)
    if not plays:
        return
    i = data.draw(st.sampled_from(plays))
    tokens = lines[i].split()[1:]  # initial, assignments, outcome
    pick = data.draw(st.integers(0, 10**6))
    if len(tokens) < 3 and how in ("twice", "unknown_id", "break_seriality"):
        how = "drop"  # the line has no assignment left to change
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(data.draw(st.sampled_from(plays)) + 1, lines[i])
    elif how == "break_profile":  # drop one assignment
        if len(tokens) > 2:
            del tokens[1 + pick % (len(tokens) - 2)]
        lines[i] = "play: " + " ".join(tokens)
    elif how == "twice":
        agent = tokens[1 + pick % (len(tokens) - 2)].partition("=")[0]
        tokens.insert(-1, agent + "=" + data.draw(st.sampled_from(["0", "1", "2"])))
        lines[i] = "play: " + " ".join(tokens)
    elif how == "unknown_id":
        what = data.draw(st.sampled_from(["initial", "outcome", "agent", "action",
                                          "prop"]))
        if what == "initial":
            lines[i] = _set_token(lines[i], 0, "zz")
        elif what == "outcome":
            lines[i] = _set_token(lines[i], -1, "zz")
        elif what in ("agent", "action"):
            k = 1 + pick % (len(tokens) - 2)
            agent, _, action = tokens[k].partition("=")
            lines[i] = _set_token(lines[i], k, "zz=" + action if what == "agent"
                                  else agent + "=zz")
        else:
            lines.append(f"prop extra: 1 {len(plays) + 1 + pick % 3}")
    elif how == "break_seriality":  # move a play to another cell
        k = pick % (len(tokens) - 1)
        if k == 0:
            states = sorted({lines[j].split()[1] for j in plays})
            lines[i] = _set_token(lines[i], 0, data.draw(st.sampled_from(states)))
        else:
            agent = tokens[k].partition("=")[0]
            lines[i] = _set_token(lines[i], k, agent + "=" + data.draw(
                st.sampled_from(["0", "1", "2"])))
    elif how == "malformed":
        bad = data.draw(st.sampled_from(["a=", "=1", "a", "=", "play: s"]))
        lines[i] = ("play: s" if bad == "play: s"
                    else _set_token(lines[i], 1 + pick % max(1, len(tokens) - 2), bad))
    elif how == "bad_index":
        lines.append("prop extra: " + data.draw(st.sampled_from(
            ["x", "0", "-1", "+2", "1.0", "2 2"])))
    elif how == "header":
        k = data.draw(st.integers(0, 3))
        line = lines[k]
        if data.draw(st.booleans()):
            del lines[k]
        else:
            lines.insert(k, line)


KINDS = ["drop", "duplicate", "break_profile", "twice", "unknown_id",
         "break_seriality", "malformed", "bad_index", "header"]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.sampled_from(BUNDLED + BENCHMARK[:1]),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
       data=st.data())
def test_mutated_files_fail_as_before(base, kinds, data):
    lines = base.splitlines()
    for how in kinds:
        mutate(lines, how, data)
    assert_loads_as_frozen("\n".join(lines) + "\n")


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from([tarasoff2_game(), tarasoff_game()]),
       drop=st.sets(st.integers(0, 15), max_size=3),
       repeat=st.sets(st.integers(0, 15), max_size=2),
       ghost=st.booleans(), budget=st.sampled_from([None, 4, 16]))
def test_validation_lists_match_on_built_games(base, drop, repeat, ghost, budget):
    """Games built without the loader: dropped and repeated plays, and a
    valuation with a play outside the game, under a DTW_BUDGET of 4 or 16
    or with the variable unset."""
    plays = [p for i, p in enumerate(base.plays) if i not in drop]
    plays += [base.plays[i % len(base.plays)] for i in sorted(repeat)]
    valuation = dict(base.valuation)
    if ghost:
        valuation["ghost"] = {Play("Oct", ActionProfile.make({"nobody": "0"}), "dead")}
    game = make_game(base.agents, base.initial_states, base.partitions,
                     base.actions, base.outcomes, plays, valuation)
    with mock.patch.dict(os.environ, {} if budget is None else
                         {"DTW_BUDGET": str(budget)}):
        if budget is None:
            os.environ.pop("DTW_BUDGET", None)
        assert (outcome(validate_game, game)
                == outcome(naive_validate_game, game))
    assert_masks_rebuilt(game)


@pytest.mark.parametrize("limit", ["3", "7", "8"])
@pytest.mark.parametrize("drop_line", [None, "play: Oct  parents=0 poddar=0  alive"])
def test_seriality_budget_refuses_as_before(monkeypatch, limit, drop_line):
    """tarasoff2 has a grid of 8 (initial state, profile) pairs."""
    monkeypatch.setenv("DTW_BUDGET", limit)
    text = BUNDLED[0]
    if drop_line is not None:
        assert drop_line in text
        text = text.replace(drop_line + "\n", "")
    got = outcome(load_game, text)
    assert got == outcome(naive_load_game, text)
    if limit != "8":
        assert got == ("ResourceLimitError",
                       f"seriality check needs 8 profile checks, budget is {limit}")


# ---------------------------------------------------------------------------
# Mutated directives and headers.
# ---------------------------------------------------------------------------

INDIST = "indist parents: {Nov Oct}"

# Kind -> (a line of the tarasoff file, its replacement, the error message or
# one of the listed violations).
HEADER_MUTATIONS = {
    "indist_no_agent": (INDIST, "indist: {Nov Oct}",
                        "expected 'indist <agent>: {block} ...'"),
    "indist_two_words": (INDIST, "indist parents poddar: {Nov Oct}",
                         "expected 'indist <agent>: {block} ...'"),
    "block_not_opened": (INDIST, "indist parents: Nov Oct}",
                         "expected '{' to open a partition block, got 'N'"),
    "block_unclosed": (INDIST, "indist parents: {Nov Oct",
                       "unclosed partition block"),
    "block_empty": (INDIST, "indist parents: {} {Nov Oct}",
                    "partition of agent 'parents' has an empty block"),
    "blocks_overlap": (INDIST, "indist parents: {Nov Oct} {Oct}",
                       "partition overlap for agent 'parents': ['Oct'] appear "
                       "in two blocks"),
    "unknown_state": (INDIST, "indist parents: {Nov Oct Dec}",
                      "partition of agent 'parents' mentions unknown states ['Dec']"),
    "unknown_agent": (INDIST, INDIST + "\nindist ghost: {Nov Oct}",
                      "partition declared for unknown agent 'ghost'"),
    "empty_actions": ("actions: 0 1", "actions:", "no actions declared"),
    "empty_outcomes": ("outcomes: alive dead", "outcomes:", "no outcomes declared"),
    "empty_initial": ("initial: Oct Nov", "initial:", "no initial states declared"),
    "duplicate_agent": ("agents: poddar parents university",
                        "agents: poddar parents university parents",
                        "duplicate agent id"),
    "duplicate_state": ("initial: Oct Nov", "initial: Oct Nov Oct",
                        "duplicate initial state id"),
    "duplicate_action": ("actions: 0 1", "actions: 0 1 0", "duplicate action id"),
    "duplicate_outcome": ("outcomes: alive dead", "outcomes: alive dead alive",
                          "duplicate outcome id"),
    "prop_without_name": ("prop killed:", "prop:", "expected 'prop <name>: <indices>'"),
}


@pytest.mark.parametrize("how", sorted(HEADER_MUTATIONS))
def test_mutated_headers_fail_as_before(how):
    line, replacement, message = HEADER_MUTATIONS[how]
    assert BUNDLED[1].count(line) == 1
    text = BUNDLED[1].replace(line, replacement)
    assert_loads_as_frozen(text)
    got = outcome(load_game, text)
    assert (got[1] == message) if got[0] == "ParseError" else (message in got[1])


def _tarasoff2_with(partitions):
    base = tarasoff2_game()
    return Game(agents=base.agents, initial_states=base.initial_states,
                partitions=partitions, actions=base.actions, outcomes=base.outcomes,
                plays=base.plays, valuation=base.valuation)


@pytest.mark.parametrize("partitions, violation", [
    ({"poddar": ({"Oct"}, {"Nov"}), "parents": ({"Oct", "Nov"},),
      "ghost": ({"Oct", "Nov"},)}, "partition declared for unknown agent 'ghost'"),
    ({"parents": ({"Oct", "Nov"},)}, "agent 'poddar' has no partition"),
], ids=["unknown_agent", "agent_without_partition"])
def test_partitions_of_built_games_validate_as_before(partitions, violation):
    """Games built with Game(...), which fills in no partitions."""
    game = _tarasoff2_with({agent: tuple(map(frozenset, blocks))
                            for agent, blocks in partitions.items()})
    assert validate_game(game) == naive_validate_game(game) == [violation]


# ---------------------------------------------------------------------------
# The two parsing differences from the frozen loader.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("line", ["propaganda killed: 1",
                                  "indistinguishable poddar: {Oct Nov}",
                                  "prop_x killed: 1", "indistparents: {Oct Nov}"])
def test_directive_heads_match_the_first_word(line):
    text = BUNDLED[0] + line + "\n"
    got = outcome(load_game, text)
    assert got == (
        "ParseError", f"unknown directive {line.partition(':')[0]!r}",
        text.count("\n"), None,
        "one of agents, initial, indist, actions, outcomes, play, prop")
    assert got != outcome(naive_load_game, text)


@pytest.mark.parametrize("token", ["1_0", "٣", "１", "1٣"])
def test_prop_indices_are_ascii_digits(token):
    text = BUNDLED[0] + f"prop z: {token}\n"
    assert kind(outcome(naive_load_game, text)) != "ParseError"
    assert outcome(load_game, text) == (
        "ParseError", f"prop indices must be integers, got {token!r}",
        text.count("\n"), None, None)


# ---------------------------------------------------------------------------
# Count guards.
# ---------------------------------------------------------------------------

@pytest.fixture
def counts(monkeypatch):
    """Calls of ActionProfile.make and Play.__hash__ from here on."""
    seen = {"make": 0, "hash": 0}
    make, play_hash = ActionProfile.make.__func__, Play.__hash__

    def counted_make(cls, mapping):
        seen["make"] += 1
        return make(cls, mapping)

    def counted_hash(self):
        seen["hash"] += 1
        return play_hash(self)

    monkeypatch.setattr(ActionProfile, "make", classmethod(counted_make))
    monkeypatch.setattr(Play, "__hash__", counted_hash)
    return seen


def test_loading_builds_each_profile_once_and_hashes_plays_a_few_times(counts):
    game = load_game(BENCHMARK[-1])
    assert len(game.plays) == 3465
    assert counts["make"] == len({p.profile for p in game.plays}) == 3 ** 6
    loaded = counts["hash"]
    assert loaded <= 3 * len(game.plays)
    game.masks, validate_game(game)
    assert counts["make"] == 3 ** 6  # a serial game enumerates no grid
    assert counts["hash"] == loaded


def test_a_failing_game_still_enumerates_its_grid(counts):
    game = tarasoff2_game()
    game = make_game(game.agents, game.initial_states, game.partitions,
                     game.actions, game.outcomes, game.plays[1:], {})
    built = counts["make"]
    assert len(validate_game(game)) == 1
    assert counts["make"] - built == 8


# ---------------------------------------------------------------------------
# Pickling across hash seeds.
# ---------------------------------------------------------------------------

DUMP = """
import pickle, sys
from dtw.game import load_game, tarasoff_game, render_game_file
from dtw.parser import parse_formula
game = load_game(render_game_file(tarasoff_game()))
items = [parse_formula("K[a]p -> B[a,b][c] ~p"), game.plays[3], game.plays[3].profile]
{hash(item) for item in items}
sys.stdout.buffer.write(pickle.dumps(items))
"""

LOAD = """
import pickle, sys
from dtw.game import load_game, tarasoff_game, render_game_file
from dtw.parser import parse_formula
game = load_game(render_game_file(tarasoff_game()))
fresh = [parse_formula("K[a]p -> B[a,b][c] ~p"), game.plays[3], game.plays[3].profile]
items = pickle.loads(sys.stdin.buffer.read())
print([item == new for item, new in zip(items, fresh)],
      [item in {new} for item, new in zip(items, fresh)],
      items[1] in game.masks.index)
"""


def test_pickles_rehash_under_another_hash_seed():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def python(code, seed, data=None):
        return subprocess.run([sys.executable, "-c", code], input=data, check=True,
                              env=dict(env, PYTHONHASHSEED=seed),
                              capture_output=True, timeout=60).stdout

    assert python(LOAD, "2", python(DUMP, "1")) == (
        b"[True, True, True] [True, True, True] True\n")

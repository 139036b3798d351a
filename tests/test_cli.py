"""Command-line interface: exit codes, JSON round trips, determinism."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dtw.cli import main
from dtw.lemmas import example_files

PLAY = "Oct | poddar=1,parents=1,university=0 | dead"


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("bundle")
    assert main(["example", "tarasoff", "--dir", str(target)]) == 0
    return target


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_holds_exit_zero_with_witness(self, example_dir, capsys):
        code, out, _ = run(capsys, [
            "check", str(example_dir / "tarasoff.game"), PLAY,
            "B[university][parents] killed",
        ])
        assert code == 0
        assert "witness: parents=0" in out

    def test_fails_exit_one(self, example_dir, capsys):
        code, out, _ = run(capsys, [
            "check", str(example_dir / "tarasoff.game"), PLAY,
            "B[parents][parents] killed",
        ])
        assert code == 1

    def test_malformed_formula_exit_two_with_position(self, example_dir, capsys):
        code, _, err = run(capsys, [
            "check", str(example_dir / "tarasoff.game"), PLAY, "K[a p",
        ])
        assert code == 2
        assert "position" in err

    def test_unknown_play_exit_two(self, example_dir, capsys):
        code, _, err = run(capsys, [
            "check", str(example_dir / "tarasoff.game"),
            "Oct | poddar=1,parents=1,university=0 | alive", "killed",
        ])
        assert code == 2
        assert "no such play" in err

    def test_json_round_trip(self, example_dir, capsys):
        code, out, _ = run(capsys, [
            "check", str(example_dir / "tarasoff.game"), PLAY,
            "B[university][parents] killed", "--json",
        ])
        got = json.loads(out)
        assert got["holds"] is True
        assert got["witness"] == {"parents": "0"}
        assert got["refutation"] is None

    def test_byte_identical_reruns(self, example_dir, capsys):
        argv = ["check", str(example_dir / "tarasoff.game"), PLAY,
                "B[university][parents] killed", "--json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestValid:
    def test_valid_formula(self, example_dir, capsys):
        code, out, _ = run(capsys, [
            "valid", str(example_dir / "tarasoff.game"),
            "K[parents] killed -> killed",
        ])
        assert code == 0 and "holds" in out

    def test_refuted_formula_reports_play(self, example_dir, capsys):
        code, out, _ = run(capsys, [
            "valid", str(example_dir / "tarasoff.game"), "killed", "--json",
        ])
        assert code == 1
        got = json.loads(out)
        assert got["holds"] is False
        assert got["refutation"]["outcome"] == "alive"


class TestBudgetEnvironment:
    def test_non_integer_budget_exits_two_with_one_line(self, example_dir,
                                                        capsys, monkeypatch):
        monkeypatch.setenv("DTW_BUDGET", "abc")
        code, out, err = run(capsys, [
            "valid", str(example_dir / "tarasoff.game"),
            "K[parents] killed -> killed",
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "DTW_BUDGET" in err


class TestDeepNesting:
    @pytest.mark.parametrize("text", [
        "(" * 400 + "killed" + ")" * 400,
        "~" * 5000 + "killed",
    ])
    def test_exits_two_with_one_line(self, example_dir, capsys, text):
        code, out, err = run(capsys, [
            "valid", str(example_dir / "tarasoff.game"), text,
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nested more than" in err and "position 101" in err


class TestProve:
    def test_accepted(self, example_dir, capsys):
        code, out, _ = run(capsys, [
            "prove", str(example_dir / "lemma3_a_b_p.prf"),
        ])
        assert code == 0
        assert out.strip() == "accepted (12 lines)"

    def test_rejected_reports_line(self, example_dir, tmp_path, capsys):
        bad = tmp_path / "bad.prf"
        bad.write_text("goal: q\n1. q   taut\n", encoding="utf-8")
        code, out, _ = run(capsys, ["prove", str(bad), "--json"])
        assert code == 1
        got = json.loads(out)
        assert got["accepted"] is False and got["error_line"] == 1

    def test_theorem_citation_via_library_dir(self, example_dir, capsys):
        code, out, _ = run(capsys, [
            "prove", str(example_dir / "lemma6_n1_thm.prf"),
            "--library", str(example_dir),
        ])
        assert code == 0

    def test_citation_without_library_rejected(self, example_dir, capsys):
        code, _, _ = run(capsys, [
            "prove", str(example_dir / "lemma6_n1_thm.prf"),
        ])
        assert code == 1


class TestDeepProofLine:
    """A left-associated chain parses to an AST about 1,200 levels deep
    within the nesting limit; checking, comparing and printing it must
    not recurse once per level."""

    CHAIN = "(" + " & ".join(["p"] * 600) + ") -> p"

    def script(self, tmp_path, justification):
        path = tmp_path / "deep.prf"
        path.write_text(f"goal: {self.CHAIN}\n1. {self.CHAIN}   {justification}\n",
                        encoding="utf-8")
        return str(path)

    def test_tautology_accepted(self, tmp_path, capsys):
        code, out, err = run(capsys, ["prove", self.script(tmp_path, "taut")])
        assert (code, out, err) == (0, "accepted (1 lines)\n", "")

    def test_wrong_axiom_rejected_with_the_formula(self, tmp_path, capsys):
        code, out, err = run(capsys, ["prove", self.script(tmp_path, "axiom Truth-K")])
        assert code == 1 and err == ""
        assert out.startswith("rejected at line 1: axiom-mismatch (~(~(~(")
        assert out.endswith(" -> p is not an instance of Truth-K)\n")


class TestCountermodel:
    def test_found_prints_game_and_play(self, capsys):
        code, out, _ = run(capsys, [
            "countermodel", "K[a,b]p -> K[a]p",
            "--max-states", "2", "--max-agents", "2",
        ])
        assert code == 1
        assert "agents:" in out and "play:" in out

    def test_none_found(self, capsys):
        code, out, _ = run(capsys, [
            "countermodel", "K[a]p -> K[a,b]p",
            "--max-states", "2", "--max-agents", "2",
        ])
        assert code == 0
        assert "no countermodel" in out

    def test_random_mode_requires_seed(self, capsys):
        code, _, err = run(capsys, [
            "countermodel", "K[a,b]p -> K[a]p", "--random",
        ])
        assert code == 2
        assert "seed" in err

    def test_json_output_reloads(self, capsys):
        from dtw.game import load_game

        code, out, _ = run(capsys, [
            "countermodel", "K[a,b]p -> K[a]p", "--json",
        ])
        assert code == 1
        got = json.loads(out)
        assert got["found"] is True
        reloaded = load_game(got["game"])
        assert reloaded.agents == ("a", "b")


class TestFuzz:
    def test_clean_schema(self, capsys):
        code, out, _ = run(capsys, [
            "fuzz", "Truth", "--iters", "300", "--seed", "7",
        ])
        assert code == 0
        assert "no counterexample (300 instantiations)" in out

    def test_violated_side_condition_found(self, capsys):
        code, out, _ = run(capsys, [
            "fuzz", "JointResponsibility", "--iters", "1000", "--seed", "7",
            "--violate-side-conditions", "--json",
        ])
        assert code == 1
        got = json.loads(out)
        assert got["counterexample"] is True
        assert "game" in got and "instance" in got

    def test_determinism_across_runs(self, capsys):
        argv = ["fuzz", "JointResponsibility", "--iters", "500", "--seed", "3",
                "--violate-side-conditions", "--json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_unknown_schema_exit_two(self, capsys):
        code, _, err = run(capsys, ["fuzz", "Bogus", "--seed", "1"])
        assert code == 2
        assert "unknown schema" in err


class TestMinimal:
    def test_kind_one(self, example_dir, capsys):
        code, out, _ = run(capsys, [
            "minimal", "1", str(example_dir / "tarasoff.game"), PLAY, "killed",
            "--knowers", "university", "--actors", "parents",
        ])
        assert code == 0
        assert "holds" in out

    def test_kind_four_reports_witness(self, example_dir, capsys):
        code, out, _ = run(capsys, [
            "minimal", "4", str(example_dir / "tarasoff.game"), PLAY, "killed",
            "--knowers", "university", "--json",
        ])
        assert code == 0
        got = json.loads(out)
        assert got["holds"] is True
        assert got["witness_actors"] == ["parents"]

    def test_kind_four_rejects_actors(self, example_dir, capsys):
        code, _, err = run(capsys, [
            "minimal", "4", str(example_dir / "tarasoff.game"), PLAY, "killed",
            "--knowers", "university", "--actors", "parents",
        ])
        assert code == 2


class TestExample:
    def test_writes_expected_files(self, example_dir):
        names = {p.name for p in example_dir.iterdir()}
        assert "tarasoff.game" in names
        assert "tarasoff2.game" in names
        assert "lemma7_n2.prf" in names

    def test_bundled_games_load(self, example_dir):
        from dtw.game import load_game

        g3 = load_game((example_dir / "tarasoff.game").read_text())
        g2 = load_game((example_dir / "tarasoff2.game").read_text())
        assert len(g3.plays) == 16 and len(g2.plays) == 8

    def test_unknown_example(self, capsys):
        code, _, err = run(capsys, ["example", "trolley"])
        assert code == 2


# Arbitrary text, and text close enough to the syntax to get past the parser.
_FORMULA_PIECES = ("killed", "dead", "p", "K", "B", "Kd", "[", "]", ",", "(", ")",
                   "university", "parents", "poddar", "~", "&", "|", "->", "<->",
                   "false", " ", "$", "é", "_")
_formulas = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(_FORMULA_PIECES), max_size=14).map("".join),
    st.sampled_from(("B[university][parents] killed", "K[parents] killed -> killed",
                     "Kd[poddar] ~killed", "B[ghost][parents] killed")),
)
_plays = st.one_of(
    st.text(max_size=40),
    st.just(PLAY),
    st.builds(lambda a, b, c: f"{a} | {b} | {c}", st.text(max_size=8),
              st.text(max_size=16), st.text(max_size=8)),
)


def _spliced(text):
    return st.builds(lambda at, junk: text[:at] + junk + text[at:],
                     st.integers(0, len(text)), st.text(max_size=12))


_TARASOFF = example_files()["tarasoff.game"]
_games = st.one_of(st.text(max_size=60), st.binary(max_size=40), st.just(_TARASOFF),
                   _spliced(_TARASOFF))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


class TestExitCodeContract:
    """Every input ends in exit code 0, 1 or 2 with no exception escaping:
    2 for operational errors, argparse's usage errors included."""

    @pytest.mark.filterwarnings("ignore:proposition")
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.sampled_from(("check", "valid", "minimal", "prove", "countermodel")),
           game=_games, play=_plays, formula=_formulas, kind=st.integers(1, 4),
           as_json=st.booleans())
    def test_exit_code_is_zero_one_or_two(self, workdir, command, game, play,
                                          formula, kind, as_json):
        game_path = workdir / "arbitrary.game"
        game_path.write_bytes(game if isinstance(game, bytes) else game.encode())
        script_path = workdir / "arbitrary.prf"
        script_path.write_bytes(
            game if isinstance(game, bytes)
            else f"goal: {formula}\n1. {formula}   taut\n".encode())
        argv = {
            "check": ["check", str(game_path), play, formula],
            "valid": ["valid", str(game_path), formula],
            "minimal": ["minimal", str(kind), str(game_path), play, formula,
                        "--knowers", "university"]
                       + ([] if kind == 4 else ["--actors", "parents"]),
            "prove": ["prove", str(script_path)],
            "countermodel": ["countermodel", formula, "--max-agents", "1",
                             "--max-states", "1", "--max-actions", "1",
                             "--max-outcomes", "1"],
        }[command] + (["--json"] if as_json else [])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()

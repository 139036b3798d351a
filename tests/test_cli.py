"""Command-line interface: exit codes, JSON round trips, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dtw import cli, lemmas, proof, semantics
from dtw.cli import main
from dtw.formula import render
from dtw.lemmas import example_files
from dtw.proof import Library

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
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

    def test_agent_assigned_twice_exit_two(self, example_dir, capsys):
        code, out, err = run(capsys, [
            "check", str(example_dir / "tarasoff.game"),
            "Oct | poddar=1,poddar=0,parents=1,university=0 | alive", "killed",
        ])
        assert (code, out) == (2, "")
        assert err == "error: play spec assigns agent 'poddar' twice\n"

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

    @pytest.mark.parametrize("line, error", [
        ("propaganda killed: 1", "unknown directive 'propaganda killed'"),
        ("indistinguishable poddar: {Oct Nov}",
         "unknown directive 'indistinguishable poddar'"),
        ("prop z: 1_0", "prop indices must be integers, got '1_0'"),
        ("prop z: ٣", "prop indices must be integers, got '٣'"),
    ])
    def test_misread_lines_exit_two(self, example_dir, tmp_path, capsys, line,
                                    error):
        path = tmp_path / "bad.game"
        text = (example_dir / "tarasoff.game").read_text(encoding="utf-8")
        path.write_text(text + line + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["valid", str(path), "killed"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {error} (line {text.count(chr(10)) + 1})")


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

    def test_negative_budget_exits_two_with_one_line(self, example_dir,
                                                     capsys, monkeypatch):
        monkeypatch.setenv("DTW_BUDGET", "-5")
        code, out, err = run(capsys, [
            "valid", str(example_dir / "tarasoff.game"), "p",
        ])
        assert (code, out) == (2, "")
        assert err == "error: DTW_BUDGET must be a non-negative integer, got '-5'\n"


class TestUnvaluedProposition:
    def test_warning_is_one_line_on_stderr(self, example_dir):
        """The whole stderr of the command, byte for byte: no install path,
        line number or source line; stdout is the verdict alone."""
        run = subprocess.run(
            [sys.executable, "-m", "dtw.cli", "valid", "tarasoff.game", "zzz -> zzz"],
            cwd=example_dir, capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert run.returncode == 0
        assert run.stdout == b"holds\n"
        assert run.stderr == (b"warning: proposition 'zzz' has no valuation in this "
                              b"game; treating it as false everywhere\n")

    def test_two_unvalued_propositions_warn_in_first_occurrence_order(
            self, example_dir):
        run = subprocess.run(
            [sys.executable, "-m", "dtw.cli", "valid", "tarasoff.game", "zzz -> yyy"],
            cwd=example_dir, capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert run.returncode == 0
        assert run.stdout == b"holds\n"
        assert run.stderr == (
            b"warning: proposition 'zzz' has no valuation in this game; "
            b"treating it as false everywhere\n"
            b"warning: proposition 'yyy' has no valuation in this game; "
            b"treating it as false everywhere\n")

    def test_warning_made_an_error_exits_two_with_one_line(self, example_dir):
        run = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dtw.cli", "valid", "tarasoff.game",
             "zzz -> zzz"],
            cwd=example_dir, capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert run.returncode == 2
        assert run.stdout == b""
        assert run.stderr == (b"error: proposition 'zzz' has no valuation in this "
                              b"game; treating it as false everywhere\n")


class TestWarningsAsErrors:
    """``python -W error -m dtw.cli``: a warning at start-up would be an
    error, such as the one runpy gives for a ``dtw.cli`` that the package
    had already put in ``sys.modules``, or one from loading a lazy module."""

    def run(self, example_dir, formula):
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "dtw.cli", "check", "tarasoff.game",
             PLAY, formula],
            cwd=example_dir, capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def test_check_prints_a_verdict_and_nothing_on_stderr(self, example_dir):
        run = self.run(example_dir, "K[university] killed")
        assert run.returncode in (0, 1)
        assert run.stdout.startswith((b"holds\n", b"does not hold\n"))
        assert run.stderr == b""

    def test_bad_formula_exits_two_with_one_line(self, example_dir):
        run = self.run(example_dir, "K[a p")
        assert (run.returncode, run.stdout) == (2, b"")
        assert run.stderr.startswith(b"error: ") and run.stderr.count(b"\n") == 1


class TestClosedStdout:
    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_closed_pipe_exits_two_without_a_traceback(self, extra):
        """The pipe's read end is closed before the child starts, so its
        first write to stdout fails."""
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "dtw.cli", "fuzz", "Monotonicity", "--seed", "1",
                 "--iters", "500", "--violate-side-conditions", *extra],
                stdout=write, stderr=subprocess.PIPE, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
            )
        finally:
            os.close(write)
        assert run.returncode == 2
        assert b"Traceback" not in run.stderr
        assert b"Exception ignored" not in run.stderr


class TestDeepNesting:
    @pytest.mark.parametrize("opener, code", [
        ("~", 1), ("(", 1), ("K[parents] ", 1), ("B[university][parents] ", 1),
        ("killed -> ", 0),
    ], ids=["~", "(", "K", "B", "->"])
    def test_prints_a_verdict(self, example_dir, capsys, opener, code):
        """100,000 levels: a verdict on stdout, nothing on stderr."""
        depth = 10**5
        text = opener * depth + "killed" + ")" * (depth if opener == "(" else 0)
        got, out, err = run(capsys, ["valid", str(example_dir / "tarasoff.game"), text])
        assert (got, err) == (code, "")
        assert out.startswith("holds\n" if code == 0 else "does not hold\nrefuted by play: ")


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

    def test_non_utf8_library_script_exits_two_with_one_line(self, example_dir,
                                                              tmp_path, capsys):
        (tmp_path / "bad.prf").write_bytes(b"goal: p\n1. \xff   taut\n")
        code, out, err = run(capsys, [
            "prove", str(example_dir / "lemma3_a_b_p.prf"), "--library", str(tmp_path),
        ])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read ") and err.count("\n") == 1

    def test_missing_library_exits_two_with_one_line(self, example_dir, tmp_path,
                                                     capsys):
        missing = tmp_path / "missing"
        code, out, err = run(capsys, [
            "prove", str(example_dir / "lemma3_a_b_p.prf"), "--library", str(missing),
        ])
        assert (code, out, err) == (2, "", f"error: library directory not found: {missing}\n")

    def test_library_that_is_a_file_exits_two_with_one_line(self, example_dir, capsys):
        script = example_dir / "lemma3_a_b_p.prf"
        code, out, err = run(capsys, ["prove", str(script), "--library", str(script)])
        assert (code, out, err) == (
            2, "", f"error: library path is not a directory: {script}\n")

    def test_library_checks_a_broken_script_once(self, tmp_path, monkeypatch, capsys):
        """t1 cites t2, which cites t3, so the library takes three rounds to
        fill; the broken script fails for a reason that does not depend on
        the library, so it is checked in the first round only."""
        library = tmp_path / "library"
        library.mkdir()
        for name, text in {
            "a_broken": "goal: q\n1. q   taut\n",
            "t1": "goal: K[b] K[a] (p -> p)\n1. K[a] (p -> p)   thm t2\n"
                  "2. K[b] K[a] (p -> p)   nec 1 [b]\n",
            "t2": "goal: K[a] (p -> p)\n1. p -> p   thm t3\n2. K[a] (p -> p)   nec 1 [a]\n",
            "t3": "goal: p -> p\n1. p -> p   taut\n",
        }.items():
            (library / f"{name}.prf").write_text(text, encoding="utf-8")
        main_script = tmp_path / "main.prf"
        main_script.write_text("goal: K[b] K[a] (p -> p)\n1. K[b] K[a] (p -> p)   thm t1\n",
                               encoding="utf-8")
        checked = Counter()
        check_proof = proof.check_proof

        def counted(script, library=None):
            checked[render(script.goal)] += 1
            return check_proof(script, library)

        monkeypatch.setattr(proof, "check_proof", counted)
        registry = Library()
        cli._load_library_dir(registry, library)
        assert sorted(registry.as_dict()) == ["t1", "t2", "t3"]
        assert checked == {"q": 1, "K[b] K[a] (p -> p)": 3, "K[a] (p -> p)": 2, "p -> p": 1}
        code, out, err = run(capsys, ["prove", str(main_script), "--library", str(library)])
        assert (code, out, err) == (0, "accepted (1 lines)\n", "")


class TestDeepProofLine:
    """A left-associated chain parses to an AST about 1,200 levels deep;
    checking, comparing and printing it must not recurse once per level."""

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

    @pytest.mark.parametrize("extra", [
        ["--iters", "-3"], ["--seed", "5", "--iters", "7"], ["--seed", "5"],
        ["--iters", "1000"],
    ])
    def test_seed_and_iters_without_random_exit_two_with_one_line(self, capsys,
                                                                  extra):
        code, out, err = run(capsys, ["countermodel", "p -> p"] + extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--random" in err

    @pytest.mark.parametrize("extra,iterations", [([], 1000), (["--iters", "7"], 7)])
    def test_random_mode_samples_1000_games_unless_told(self, capsys, monkeypatch,
                                                       extra, iterations):
        seen = []
        monkeypatch.setattr(semantics, "countermodel_search",
                            lambda f, bounds: seen.append(bounds))
        code, _, _ = run(capsys, ["countermodel", "p -> p", "--random",
                                  "--seed", "5"] + extra)
        assert code == 0
        assert [(b.mode, b.seed, b.iterations) for b in seen] == [
            ("random", 5, iterations)]

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

    # Stdout bytes and exit codes, captured before schemas were compiled
    # once per fuzz run.
    @pytest.mark.parametrize("golden, code, argv", [
        ("fuzz_truth_seed7.txt", 0, ["Truth", "--seed", "7"]),
        ("fuzz_truth_seed7.json", 0, ["Truth", "--seed", "7", "--json"]),
        ("fuzz_joint_violated_seed7.txt", 1,
         ["JointResponsibility", "--seed", "7", "--violate-side-conditions"]),
        ("fuzz_joint_violated_seed7.json", 1,
         ["JointResponsibility", "--seed", "7", "--violate-side-conditions", "--json"]),
    ])
    def test_output_matches_golden(self, capsys, golden, code, argv):
        assert run(capsys, ["fuzz", *argv]) == (
            code, (GOLDEN / golden).read_text(encoding="utf-8"), "")

    @pytest.mark.parametrize("seed", ["1", "7"])
    def test_violated_subset_condition_found(self, capsys, seed):
        argv = ["fuzz", "Monotonicity", "--iters", "500", "--seed", seed]
        code, out, _ = run(capsys, argv)
        assert (code, out) == (0, "no counterexample (500 instantiations)\n")
        code, out, _ = run(capsys, argv + ["--violate-side-conditions", "--json"])
        assert code == 1
        got = json.loads(out)
        assert got["counterexample"] is True
        assert got["schema"] in ("Monotonicity-K", "Monotonicity-B")

    @pytest.mark.parametrize("schema", ["Truth", "lemma2", "Truth-B"])
    def test_violating_no_side_condition_exit_two(self, capsys, schema):
        code, out, err = run(capsys, ["fuzz", schema, "--seed", "1",
                                      "--violate-side-conditions"])
        assert (code, out) == (2, "")
        assert err == f"error: schema {schema!r} has no side conditions to violate\n"


class TestNamePools:
    @pytest.mark.parametrize("argv, message", [
        (["fuzz", "Truth", "--seed", "1", "--iters", "5", "--max-agents", "40",
          "--max-props", "40"], "max_agents is 40, but only 8 agent names"),
        (["fuzz", "Truth", "--seed", "1", "--iters", "5", "--max-props", "6"],
         "max_props is 6, but only 5 prop names"),
        (["countermodel", "p", "--max-agents", "9"],
         "max_agents is 9, but only 8 agent names"),
        (["countermodel", "p", "--random", "--seed", "1", "--max-agents", "9"],
         "max_agents is 9, but only 8 agent names"),
    ])
    def test_bounds_past_the_pools_exit_two_with_one_line(self, capsys, argv,
                                                          message):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message} are available\n"


class TestSamplingBudget:
    @pytest.mark.parametrize("env, argv", [
        ({}, ["fuzz", "Truth", "--seed", "1", "--iters", "50"]),
        ({"DTW_BUDGET": "1000"}, ["countermodel", "p -> p", "--random", "--seed", "1"]),
    ])
    def test_large_sampling_bounds_exit_two_with_one_line(self, capsys, monkeypatch,
                                                          env, argv):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, out, err = run(capsys, argv + ["--max-agents", "8", "--max-actions",
                                             "8", "--max-states", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: random sampling could build at least ")
        assert err.count("\n") == 1

    def test_outcomes_over_the_budget_exit_two_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setenv("DTW_BUDGET", "1000")
        assert run(capsys, ["fuzz", "Truth", "--seed", "1", "--max-outcomes", "1001"]) == (
            2, "", "error: random sampling could draw from 1001 outcomes per game, "
                   "budget is 1000\n")


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

    # sha256 of each file as written before the value classes were
    # hand-written and the Tarasoff games were built by one helper.
    GOLDEN_SHA256 = {
        "lemma1_n2.prf":
            "02b6f0686202cf15ea51a7a0f86a70fd876ff336b4f70370fb6c227b75cc4ea6",
        "lemma1_n3.prf":
            "f7052eb7b569be44f05a742ae57a806275aae08fc3aa819b9fdacdc56828722a",
        "lemma2_a_p.prf":
            "42b02271d60b66bfa954ba45429aea66e4409c56d273c1c4cf6f974b3bb6626a",
        "lemma3_a_b_p.prf":
            "57fc8ee2eaf34bad9f9ea04302958845e629563b7a61abb92a581cb56cbf20d5",
        "lemma4_and_comm.prf":
            "b113796c2e0e567ef9829a675b2bae4cce204738dfff5341e9169f2f068989af",
        "lemma5_a_p.prf":
            "5fc4d75ee49ea918cff93763816e7f8f1e264aee0a758174097a61ffb4c0ac39",
        "lemma6_n0.prf":
            "e155d34b7524652e0ba163dcb87b89fbabcb367a0b220af5f6b82c318c2af534",
        "lemma6_n1.prf":
            "bc495bced9cabde277eae573c8861ecf1973464d2ce6758501676cb798c986d5",
        "lemma6_n1_thm.prf":
            "b581a58f50275833bfeaa17439e04407817b794ffea1c9185564d77e4928c748",
        "lemma6_n2.prf":
            "428adb5e99d2a22ee4ab8eeb6f36b9989f523ff68fd433264d81538669490bf0",
        "lemma6_n3.prf":
            "f47d3260e201ec60fb910f9845fbd948d94af0689bd17e691170369fd6d212e1",
        "lemma7_n2.prf":
            "ea24d5b0c5e96aeeeda447c8c724c4a57eff99ae90df9dc4795cdcb973b05f1a",
        "tarasoff.game":
            "0be500a63bfd9da0259a940db2461f18ce42d20a7dd6cee589cf75477ed8f6e0",
        "tarasoff2.game":
            "7e44f7255b0f02b70a6ca7a6d75d06320d2f5d0f00e1b001298eb7f3a5574db4",
    }

    def test_files_match_golden_digests(self, example_dir):
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in example_dir.iterdir()}
        assert got == self.GOLDEN_SHA256

    def test_unknown_example(self, tmp_path, monkeypatch, capsys):
        """The name is refused before any file is rendered or written."""
        monkeypatch.setattr(lemmas, "example_files", lambda: pytest.fail("rendered"))
        target = tmp_path / "out"
        code, out, err = run(capsys, ["example", "trolley", "--dir", str(target)])
        assert (code, out) == (2, "")
        assert err == "error: unknown example 'trolley'; available: tarasoff\n"
        assert not target.exists()

    def test_dir_that_is_a_file_exits_two_with_one_line(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        code, out, err = run(capsys, ["example", "tarasoff", "--dir", str(taken)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write to ") and err.count("\n") == 1


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
    2 for operational errors, argparse's usage errors and warnings that the
    filters turn into errors included."""

    @pytest.mark.filterwarnings("ignore:proposition")
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.sampled_from(("check", "valid", "minimal", "prove", "countermodel")),
           game=_games, play=_plays, formula=_formulas, kind=st.integers(1, 4),
           as_json=st.booleans(), warnings_are_errors=st.booleans())
    @example(command="check", game=b"Traceback",
             play="Oct | poddar=1,parents=1,university=0 | dead", formula="",
             kind=1, as_json=False, warnings_are_errors=False)
    def test_exit_code_is_zero_one_or_two(self, workdir, command, game, play,
                                          formula, kind, as_json, warnings_are_errors):
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
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            if warnings_are_errors:
                warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        # Error messages quote the offending input, which may itself read
        # "Traceback"; a printed traceback is a line that starts with its header.
        assert not re.search(r"^Traceback \(most recent call last\):", err.getvalue(),
                             re.MULTILINE), (argv, err.getvalue())

    @pytest.mark.parametrize("argv, given", [
        (["fuzz", "Truth", "--seed", "1", "--iters", "-5"], -5),
        (["countermodel", "p", "--random", "--seed", "1", "--iters", "-3"], -3),
    ], ids=["fuzz", "countermodel"])
    def test_negative_iterations_exit_two_with_one_line(self, capsys, argv, given):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: --iters must be at least 0, got {given}\n"

    @pytest.mark.parametrize("argv, option", [
        pytest.param(command + [option, "0"], option, id=f"{command[0]}-{option[2:]}")
        for command in (["fuzz", "Truth", "--seed", "1"], ["countermodel", "p"])
        for option in ("--max-agents", "--max-states", "--max-actions",
                       "--max-outcomes", "--max-props")
        if option != "--max-props" or command[0] == "fuzz"
    ])
    def test_zero_bound_names_the_option(self, capsys, argv, option):
        assert run(capsys, argv) == (
            2, "", f"error: {option} must be at least 1, got 0\n")

    def test_first_bad_bound_in_field_order_is_named(self, capsys):
        argv = ["fuzz", "Truth", "--seed", "1", "--iters", "-1",
                "--max-props", "0", "--max-actions", "-2"]
        assert run(capsys, argv) == (
            2, "", "error: --max-actions must be at least 1, got -2\n")

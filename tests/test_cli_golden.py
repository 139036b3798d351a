"""Every `dtw` command's output, byte for byte: stdout, stderr and exit code
of each invocation, in text and with ``--json``, and the help of the parser
and of each subcommand.  The expected outputs are in
``golden/cli_outputs.json``, keyed by case id."""

import json
from pathlib import Path

import pytest

from dtw.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "cli_outputs.json")
                    .read_text(encoding="utf-8"))
PLAY = "Oct | poddar=1,parents=1,university=0 | dead"
MINIMAL = ["tarasoff.game", PLAY, "killed", "--knowers", "university"]

# Case id -> argv; a relative path names a file of the bundle fixture.
CASES = {
    "check-holds": ["check", "tarasoff.game", PLAY, "B[university][parents] killed"],
    "check-refuted": ["check", "tarasoff.game", PLAY, "K[parents] killed"],
    "check-bad-formula": ["check", "tarasoff.game", PLAY, "K[a p"],
    "valid-holds": ["valid", "tarasoff.game", "killed -> killed"],
    "valid-refuted": ["valid", "tarasoff.game", "killed"],
    "countermodel-found": ["countermodel", "K[a] p"],
    "countermodel-none": ["countermodel", "p -> p"],
    "countermodel-random": ["countermodel", "p", "--random", "--seed", "3",
                            "--iters", "5"],
    "prove-accepted": ["prove", "lemma2_a_p.prf"],
    "prove-rejected": ["prove", "broken.prf"],
    "prove-library": ["prove", "lemma6_n1_thm.prf", "--library", "."],
    "prove-library-malformed": ["prove", "lemma2_a_p.prf", "--library", "malformed"],
    "fuzz-clean": ["fuzz", "Truth", "--seed", "1", "--iters", "20"],
    "fuzz-found": ["fuzz", "JointResponsibility", "--seed", "7",
                   "--violate-side-conditions"],
    "fuzz-unknown-violated": ["fuzz", "Nope", "--seed", "1",
                              "--violate-side-conditions"],
    "minimal-1": ["minimal", "1", *MINIMAL, "--actors", "parents"],
    "minimal-2-without-actors": ["minimal", "2", *MINIMAL],
    "minimal-4-witness": ["minimal", "4", *MINIMAL],
    "minimal-4-fails": ["minimal", "4", "tarasoff.game", PLAY, "~killed",
                        "--knowers", "university"],
}
COMMANDS = ["check", "valid", "countermodel", "prove", "fuzz", "minimal", "example"]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    target = tmp_path_factory.mktemp("bundle")
    assert main(["example", "tarasoff", "--dir", str(target)]) == 0
    (target / "broken.prf").write_text(
        "goal: p -> p\n1. p -> p   axiom Truth-K\n", encoding="utf-8")
    (target / "malformed").mkdir()
    (target / "malformed" / "bad.prf").write_text("goal: (p\n", encoding="utf-8")
    return target


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    captured = capsys.readouterr()
    return [code, captured.out, captured.err]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(bundle, capsys, monkeypatch, case, fmt):
    monkeypatch.chdir(bundle)
    argv = CASES[case] + (["--json"] if fmt == "json" else [])
    assert run(capsys, argv) == GOLDEN[f"{case}/{fmt}"]


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_matches_golden(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ([command] if command else []) + ["--help"]
    assert run(capsys, argv) == GOLDEN[f"{command or 'dtw'}/help"]


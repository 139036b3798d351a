"""The package's lazy modules: what ``import dtw`` and each ``dtw`` command
run, and the names the package serves from its modules."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import dtw
from dtw.cli import main
from dtw.formula import render
from dtw.parser import parse_formula

SRC = Path(__file__).resolve().parent.parent / "src"
PLAY = "Oct | poddar=1,parents=1,university=0 | dead"
LIBRARY = {"errors", "limits", "formula", "parser", "game", "axioms", "evaluation",
           "semantics", "proof", "minimality", "lemmas"}

# The names the package exports, by module, in that order.
EXPORTS = {
    "errors": ["BadParamsError", "DtwError", "EmptyInputError", "ParseError",
               "ResourceLimitError", "TooManyAtomsError", "UniverseTooLargeError",
               "UnknownAgentError", "UnknownPlayError", "UnknownStateError",
               "ValidationError"],
    "evaluation": ["Verdict", "holds", "valid_in_game"],
    "formula": ["Blame", "Coalition", "Formula", "Implies", "Know", "Not", "Prop",
                "agents_of", "big_conj", "big_disj", "coalition", "conj", "disj",
                "dual_know", "expand_minimality", "falsum", "iff", "props_of",
                "render", "subformulas", "verum"],
    "game": ["ActionProfile", "Game", "Play", "indist_state", "load_game", "make_game",
             "render_game_file", "tarasoff2_game", "tarasoff_game", "validate_game"],
    "lemmas": ["bundled_library", "bundled_scripts", "example_files",
               "gen_lemma_script"],
    "minimality": ["check_minimal", "minimal_verdict"],
    "parser": ["parse_formula"],
    "proof": ["CheckResult", "Library", "ProofLine", "ProofScript", "ScriptBuilder",
              "apply_deduction_theorem", "check_proof", "is_tautology", "match_axiom",
              "parse_script", "render_script"],
    "semantics": ["FuzzCounterexample", "SearchBounds", "countermodel_search",
                  "sample_game", "soundness_fuzz"],
}

# Prints, as JSON, the dtw modules in sys.modules and those whose code ran:
# a module not run yet is still an instance of the lazy loader's subclass.
REPORT = ("import json, sys, types\n"
          "print(json.dumps([sorted(n[4:] for n in sys.modules if n.startswith('dtw.')),\n"
          "                  sorted(n[4:] for n, m in sys.modules.items()\n"
          "                         if n.startswith('dtw.') and type(m) is types.ModuleType)]))\n")


def fresh(code, cwd=None):
    """Runs ``code`` in a fresh interpreter; the lines of its stdout."""
    run = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("bundle")
    assert main(["example", "tarasoff", "--dir", str(target)]) == 0
    return target


class TestImport:
    def test_import_registers_every_module_but_cli_and_runs_none(self):
        present, ran = json.loads(fresh("import dtw\n" + REPORT)[-1])
        assert (set(present), ran) == (LIBRARY, [])

    def test_a_name_runs_its_module_and_what_that_imports(self):
        present, ran = json.loads(fresh("import dtw\ndtw.parse_formula\n" + REPORT)[-1])
        assert set(present) == LIBRARY
        assert set(ran) == {"errors", "limits", "formula", "parser"}


# Each command, its exit code and the package modules it runs.
EVALUATE = {"errors", "limits", "formula", "parser", "game", "evaluation"}
COMMANDS = [
    (["check", "tarasoff.game", PLAY, "K[university] killed"], 1, EVALUATE),
    (["valid", "tarasoff.game", "K[parents] killed -> killed"], 0, EVALUATE),
    (["countermodel", "p -> K[a] p"], 1, EVALUATE | {"semantics"}),
    (["minimal", "1", "tarasoff.game", PLAY, "killed", "--knowers", "university",
      "--actors", "parents"], 0, EVALUATE | {"minimality"}),
    (["prove", "lemma3_a_b_p.prf"], 0,
     {"errors", "limits", "formula", "parser", "axioms", "proof"}),
    (["fuzz", "Truth", "--seed", "1", "--iters", "20"], 0,
     EVALUATE | {"semantics", "axioms"}),
    (["example", "tarasoff", "--dir", "out"], 0,
     {"errors", "limits", "formula", "parser", "game", "axioms", "proof",
      "lemmas"}),
    # Error paths: a parse error, a missing file and an unknown agent.
    (["check", "tarasoff.game", PLAY, "K[university killed"], 2, EVALUATE),
    (["valid", "missing.game", "killed"], 2, EVALUATE),
    (["check", "tarasoff.game", PLAY, "K[nobody] killed"], 2, EVALUATE),
]


class TestCommandModules:
    """The modules each command runs, in a fresh interpreter: ``check``,
    ``valid`` and ``minimal``, and their error paths, evaluate with
    ``evaluation`` and run no ``semantics`` code; ``check``, ``valid`` and
    ``countermodel`` run none of ``proof``, ``lemmas``, ``minimality`` or
    ``axioms``; ``prove`` runs none of ``game``, ``evaluation``,
    ``semantics``, ``minimality`` or ``lemmas``; only ``fuzz`` and the proof
    commands run ``axioms``."""

    @pytest.mark.parametrize("argv, code, ran", COMMANDS,
                             ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_command_runs_only_the_modules_it_uses(self, example_dir, argv, code, ran):
        exit_code, report = fresh(
            "import contextlib, io\n"
            "from dtw import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({argv!r})\n"
            "print(code)\n" + REPORT, cwd=example_dir)
        assert int(exit_code) == code
        assert set(json.loads(report)[1]) == ran | {"cli"}


class TestStandardLibrary:
    """No command loads ``dataclasses``, or ``inspect``, which it imports
    with ``ast`` and ``dis``: a fresh process pays for each module it loads.
    Only ``--json`` loads ``json``."""

    @pytest.mark.parametrize("argv, code, loaded", [
        *((argv, code, []) for argv, code, _ in COMMANDS),
        (["check", "tarasoff.game", PLAY, "K[university] killed", "--json"], 1,
         ["json"]),
        (["prove", "lemma3_a_b_p.prf", "--json"], 0, ["json"]),
    ], ids=lambda v: v[0] if isinstance(v, list) and v else None)
    def test_command_loads_only_what_it_uses(self, example_dir, argv, code, loaded):
        exit_code, got = fresh(
            "import contextlib, io, sys\n"
            "from dtw import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({argv!r})\n"
            "print(code)\n"
            "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n",
            cwd=example_dir)
        assert (int(exit_code), got) == (code, str(loaded))


class TestExports:
    def test_all_lists_the_names_the_package_exported(self):
        assert dtw.__all__ == [name for names in EXPORTS.values() for name in names]
        assert len(dtw.__all__) == 68

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_its_modules_object(self, module):
        source = getattr(dtw, module)
        for name in EXPORTS[module]:
            assert getattr(dtw, name) is getattr(source, name), name

    def test_semantics_re_exports_the_evaluators(self):
        for name in EXPORTS["evaluation"]:
            assert getattr(dtw.semantics, name) is getattr(dtw.evaluation, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from dtw import *", namespace)
        assert {name: namespace.get(name) for name in dtw.__all__} == {
            name: getattr(dtw, name) for name in dtw.__all__}
        assert set(dtw.__all__) <= set(dir(dtw))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'dtw' has no attribute 'nothing'"):
            dtw.nothing
        assert not hasattr(dtw, "play_bit")  # in dtw.evaluation, not exported

    def test_pickled_formula_loads_in_a_fresh_process(self):
        text = "B[a,b][c] (p -> K[a] ~q)"
        blob = pickle.dumps(parse_formula(text))
        got = fresh("import pickle\n"
                    f"f = pickle.loads(bytes.fromhex({blob.hex()!r}))\n"
                    "from dtw import parse_formula, render\n"
                    f"print(render(f), f == parse_formula({text!r}))\n")[-1]
        assert got == f"{render(parse_formula(text))} True"

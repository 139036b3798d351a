"""The benchmark's own answer checks, run as tests: smoke passes of the
search, modelcheck and prove workloads compare every answer with the
references under ``perfbench/``: the first countermodel byte for byte, the
verdicts, witnesses and refutations of the independent checker on games of
hundreds of plays, and the verdicts on correct-by-construction proof
scripts and their mutants.  Traced smoke passes of search, modelcheck and
prove also install the tracer, which fails if a function it wraps is renamed
or gone (``axioms.instantiate``, ``axioms.match_schema``,
``semantics.enumerate_games``, ``semantics.holds``,
``minimality.minimal_verdict``, ...); a fast test reads the tracer's list
and names any such function that its module no longer binds."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_resolves():
    """Each (module, function) of ``TRACED``, read from the source of
    perfbench/tracing.py without importing the harness, is bound."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    pairs = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    assert pairs
    missing = [f"{module}.{func}" for module, func in pairs
               if not hasattr(importlib.import_module(module), func)]
    assert missing == []


def smoke_run(workload, trace=0):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--smoke", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0


def test_search_smoke_run_gets_every_answer_right():
    smoke_run("search")


def test_modelcheck_smoke_run_gets_every_answer_right():
    smoke_run("modelcheck")


def test_prove_smoke_run_gets_every_answer_right():
    smoke_run("prove")


def test_traced_search_smoke_run_gets_every_answer_right():
    smoke_run("search", trace=1)


def test_traced_modelcheck_smoke_run_gets_every_answer_right():
    smoke_run("modelcheck", trace=1)


def test_traced_prove_smoke_run_gets_every_answer_right():
    smoke_run("prove", trace=1)

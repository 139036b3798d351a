"""The benchmark's own answer checks, run as tests: smoke passes of the
search, modelcheck and prove workloads compare every answer with the
references under ``perfbench/``: the first countermodel byte for byte, the
verdicts, witnesses and refutations of the independent checker on games of
hundreds of plays, and the verdicts on correct-by-construction proof
scripts and their mutants.  Traced smoke passes of search, modelcheck and
prove also install the tracer, which fails if a function it wraps is renamed
or gone (``axioms.instantiate``, ``axioms.match_schema``,
``semantics.enumerate_games``, ``semantics.holds``,
``minimality.minimal_verdict``, ...)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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

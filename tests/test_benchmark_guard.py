"""The benchmark's own answer checks, run as tests: smoke passes of the
search and prove workloads compare every answer with the references under
``perfbench/``: the first countermodel byte for byte, and the verdicts on
correct-by-construction proof scripts and their mutants."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def smoke_run(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--smoke", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0


def test_search_smoke_run_gets_every_answer_right():
    smoke_run("search")


def test_prove_smoke_run_gets_every_answer_right():
    smoke_run("prove")

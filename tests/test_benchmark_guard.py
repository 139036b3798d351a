"""The benchmark's own answer checks, run as a test: a smoke pass of the
search workload compares every answer, including the first countermodel
byte for byte, with the references under ``perfbench/``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_search_smoke_run_gets_every_answer_right():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--smoke", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0

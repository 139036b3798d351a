"""Tests of the benchmark harness itself, at smoke size.

    python3 -m pytest perfbench -q
"""

import contextlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import calibration  # noqa: E402
import dtw  # noqa: E402
import oracles  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dtw.semantics import random_formula  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    return json.loads(lines[-1]), meta


def traced_smoke(workload, seed):
    """A traced smoke run: (result, spans as (index, parent, name) rows)."""
    result, _ = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                      "--trace", "1", "--smoke")
    rows = (ROOT / ".perfbench_out" / f"spans-{workload}-{seed}.tsv").read_text()
    spans = [line.split("\t")[:3] for line in rows.splitlines()[1:]]
    return result, [(int(i), int(parent), name) for i, parent, name in spans]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_reports_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, meta = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                             "--trace", str(trace), "--smoke")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, meta["failures"]
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    assert meta["src_lines"] > 0 and meta["python"]


# The traced function each kind of op calls itself, by op-kind prefix.
CALLED_BY_OP = {
    "search.fuzz": "semantics.soundness_fuzz",
    "search.": "semantics.countermodel_search",
    "modelcheck.load": "game.load_game",
    "modelcheck.holds": "semantics.holds",
    "modelcheck.valid": "semantics.valid_in_game",
    "modelcheck.minimal": "minimality.minimal_verdict",
    "modelcheck.expand": "formula.expand_minimality",
    "prove.tautology": "proof.is_tautology",
    "prove.lemma": "lemmas.gen_lemma_script",
    "prove.deduction": "proof.apply_deduction_theorem",
    "prove.": "proof.check_proof",
    "cli.": "cli.main",
}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_traced_op_spans_the_function_it_calls(workload):
    _, spans = traced_smoke(workload, 6)
    children = {}
    for _, parent, name in spans:
        children.setdefault(parent, set()).add(name)
    ops = [(i, name[3:]) for i, _, name in spans if name.startswith("op.")]
    assert ops
    missed = [kind for i, kind in ops
              if next(f for prefix, f in CALLED_BY_OP.items() if kind.startswith(prefix))
              not in children.get(i, ())]
    assert missed == []


def test_traced_prove_sees_the_standalone_truth_tables():
    result, spans = traced_smoke("prove", 6)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["proof.is_tautology.max_atoms"] == 12  # widest smoke formula
    assert metrics["proof.is_tautology.hits"] > 0
    mutants = [i for i, _, name in spans if name == "op.prove.mutant"]
    checked = {parent for _, parent, name in spans if name == "proof.check_proof"}
    assert mutants and checked.issuperset(mutants)


@pytest.mark.parametrize("workload", ["search", "prove", "modelcheck"])
def test_work_counters_repeat_across_runs(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", "1",
            "--smoke")
    _, first = bench(*args, hash_seed="1")
    _, second = bench(*args, hash_seed="2")
    assert first["work_counters_repeat"] and second["work_counters_repeat"]
    assert first["work_counters"] == second["work_counters"]
    assert first["work_counters"]["bench.ops"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_wrong_answers_are_failures(workload):
    built = workloads.CATALOG[workload](4, True, ROOT)
    expected = run.expected_answers(built.ops)
    with built.launcher or contextlib.nullcontext():
        _, failures, *_ = run.run_pass(built, built.ops, expected, calibration.Meter())
    assert failures == []
    garbage = [workloads.Op(op.kind, object, op.check) for op in built.ops]
    _, failures, *_ = run.run_pass(built, garbage, expected, calibration.Meter())
    assert len(failures) == len(garbage)

    def boom():
        raise RuntimeError("unexpected")

    raising = [workloads.Op(op.kind, boom, op.check) for op in built.ops]
    _, failures, *_ = run.run_pass(built, raising, expected, calibration.Meter())
    assert len(failures) == len(raising)


def test_command_peak_memory_is_the_commands_own():
    ballast = bytearray(64 << 20)  # pages of this process, touched
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    with workloads.Launcher(ROOT) as launcher:
        done = launcher(["--help"])
    assert done.code == 0 and b"usage" in done.stdout
    assert 0 < done.maxrss_kb * 1024 < len(ballast)


def test_inputs_depend_only_on_the_seed():
    one = workloads.build_modelcheck(7, True, ROOT)
    two = workloads.build_modelcheck(7, True, ROOT)
    assert [op.kind for op in one.ops] == [op.kind for op in two.ops]
    loads = [op.run() for op in one.ops[:1]] + [op.run() for op in two.ops[:1]]
    assert dtw.render_game_file(loads[0]) == dtw.render_game_file(loads[1])


@pytest.mark.parametrize("seed", range(40))
def test_reference_checker_agrees_with_naive_oracle(seed):
    game = oracles.random_small_game(seed)
    rng = random.Random(seed)
    checker = ref.Checker(game)
    props = tuple(sorted(game.valuation)) or ("p",)
    for _ in range(5):
        f = random_formula(rng, props, game.agents, depth=3)
        mask = checker.mask(f)
        for i, play in enumerate(game.plays):
            assert bool(mask >> i & 1) == oracles.naive_holds(game, play, f)
        valid, refutation = checker.valid(f)
        assert valid == oracles.naive_valid(game, f)
        if not valid:
            assert refutation == next(i for i, p in enumerate(game.plays)
                                      if not oracles.naive_holds(game, p, f))


def test_reference_enumeration_matches_the_package_on_first_countermodels():
    for text in ("K[a,b]p -> K[a]p", "B[a][b]p -> K[a]p", "K[b]p -> K[a]p"):
        f = dtw.parse_formula(text)
        game, play = dtw.countermodel_search(f, dtw.SearchBounds())
        ref_game, ref_play = ref.first_countermodel(f, oracles.naive_holds)
        assert dtw.render_game_file(game) == ref.render_game(ref_game)
        assert ref.same_play(play, ref_play)


def test_tautology_inputs_are_what_they_claim():
    atoms = workloads.tautology_atoms(random.Random(1), 6)
    assert dtw.is_tautology(workloads.chain_tautology(atoms))
    assert not dtw.is_tautology(workloads.last_row_refuted(atoms))


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_calibration_does_not_touch_the_package():
    code = ("import sys, calibration; calibration.chunk(); "
            "sys.exit(any(m == 'dtw' or m.startswith('dtw.') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], cwd=HERE).returncode == 0


def test_latencies_are_scaled_by_the_chunks_around_their_op():
    meter = calibration.Meter()
    meter.chunks = [calibration.NOMINAL_S] * 4 + [2 * calibration.NOMINAL_S] * 4
    assert meter.scale(2) == 1.0  # chunks 0-3 around the op
    assert meter.scale(6) == 0.5  # chunks 4-7: the host ran at half speed
    assert meter.scale(4) == pytest.approx(2 / 3)  # two of each: median 1.5 chunks
    passes = [([0.1, 0.2], [], 0, 0.3, [2, 6])]
    assert run.at_nominal(passes, meter) == [([0.1, 0.1], [], 0, 0.3, [2, 6])]

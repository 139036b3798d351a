"""Benchmark of the dtw package: four seeded, closed-loop workloads.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

One client issues one op at a time.  A run builds the seeded inputs, then
repeats the workload's fixed op list (a pass) until ``--seconds`` of op
and calibration time are measured, checking every answer outside the timed
region.  Times are reported at a nominal host speed, measured between the
ops with a fixed kernel (see ``calibration.py``).  The
expected answers are computed before the first pass, in a forked child, so
that the references' state stays out of the memory of the timing process.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics, measured with spans around the package's public
functions.  Spans, run metadata and the full result
are written under ``.perfbench_out/`` in the checkout.

Run from the root of a checkout: the package is imported from ``src/``
and the naive oracles from ``tests/oracles.py``; nothing is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("search", "modelcheck", "prove", "cli")
SETUP_PROBES = 6  # fresh processes timing set-up, besides the run itself
SETUP_CHUNKS = 5  # calibration chunks after each set-up
START_PROBES = 5  # fresh processes per interpreter start-up measurement
MIN_PASSES = 3
TAIL_BLOCK = 3  # passes pooled for one tail sample
TRACED_SHARE = 0.6  # of a traced run's time spent on traced passes
WORK_COUNTERS = ("bench.ops", "semantics.enumerate_games.models",
                 "game.load_game.plays", "proof.is_tautology.calls",
                 "proof.is_tautology.hits", "limits.refusals")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and a minimum of one pass, for the tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_checkout() -> None:
    missing = [p for p in ("src/dtw/__init__.py", "tests/oracles.py",
                           "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"perfbench: not a dtw checkout, missing {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build(args):
    """Import the package and build the seeded inputs; returns the workload
    and the seconds this took."""
    start = time.perf_counter()
    import workloads
    workload = workloads.CATALOG[args.workload](args.seed, args.smoke, ROOT)
    return workload, time.perf_counter() - start


def child_seconds(argv, env=None) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_at_nominal(seconds: float) -> float:
    """A set-up time at the nominal host speed, from chunks run right after."""
    import calibration
    return seconds * calibration.factor([calibration.chunk() for _ in range(SETUP_CHUNKS)])


def setup_samples(args, first: float):
    """Set-up time of this run plus that of fresh probe processes, each at
    the nominal host speed."""
    samples = [first]
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    for _ in range(1 if args.smoke else SETUP_PROBES):
        out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True,
                             stdin=subprocess.DEVNULL, text=True).stdout
        samples.append(float(out.split()[-1]))
    return samples


def expected_answers(ops):
    """Every op's expected answer, computed in a forked child: the
    references' games, masks and enumeration walks then never live in this
    process, whose peak resident memory is a metric."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child writes its answers and exits, whatever happens
        status = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                pickle.dump([op.expect and op.expect() for op in ops], pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise SystemExit("perfbench: computing the expected answers failed")
    return pickle.loads(data)


def run_pass(workload, ops, expected, meter, tracer=None):
    """One pass over the op list: (latencies, failures, refusals, and each
    op's position among the ``meter``'s calibration chunks)."""
    from dtw.errors import ResourceLimitError
    workload.reset()
    latencies, failures, refusals, positions = [], [], 0, []
    for op, answer in zip(ops, expected):
        positions.append(meter.before_op())
        if tracer is not None:
            tracer.active = True
            span = tracer.begin("op." + op.kind)
        start = time.perf_counter()
        try:
            result, exc = op.run(), None
        except Exception as caught:  # the check decides whether it was expected
            result, exc = None, caught
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.finish(span)
            tracer.active = False
        meter.after_op(elapsed)
        latencies.append(elapsed)
        if isinstance(exc, ResourceLimitError):
            refusals += 1
        try:
            ok = op.check(result, exc, answer)
        except Exception as caught:
            ok = False
            exc = exc or caught
        if not ok:
            failures.append(f"{op.kind}: {exc!r}" if exc else op.kind)
    return latencies, failures, refusals, positions


def timed_passes(workload, ops, expected, seconds, min_passes, meter, tracer=None,
                 layers=None):
    """Passes until ``seconds`` of op and calibration time are measured:
    never fewer than ``min_passes``, and no pass started that the median
    pass says would overrun.  Checking answers is not counted.  With a
    tracer, each pass's per-layer numbers are appended to ``layers``."""
    passes = []
    measured = 0.0
    while True:
        mark = tracer.mark() if tracer is not None else 0
        chunks = len(meter.chunks)
        latencies, failures, refusals, positions = run_pass(workload, ops, expected,
                                                            meter, tracer)
        spent = sum(latencies) + sum(meter.chunks[chunks:])
        passes.append((latencies, failures, refusals, spent, positions))
        if tracer is not None:
            layers.append(layer_metrics(tracer, mark, refusals, len(ops)))
        measured += spent
        typical = statistics.median(p[3] for p in passes)
        if len(passes) >= min_passes and measured + typical > seconds:
            meter.close()
            return passes


def at_nominal(passes, meter):
    """The passes with each latency scaled to the nominal host speed, by the
    calibration chunks nearest to its op."""
    return [([t * meter.scale(at) for t, at in zip(p[0], p[4])],) + p[1:]
            for p in passes]


def by_kind(ops, passes):
    """Median latency in ms and count per pass of each kind of op."""
    kinds = {}
    for op, times in zip(ops, zip(*(p[0] for p in passes))):
        kinds.setdefault(op.kind, []).extend(times)
    return {kind: [len(t) // len(passes), round(statistics.median(t) * 1e3, 3)]
            for kind, t in kinds.items()}


def tail(latencies):
    """(latency with ten ops beyond it, or the slowest of fewer, percentile)."""
    ordered = sorted(latencies)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(passes, setup, peak_rss_kb):
    """Per-op latency at its median over the passes, summed, is the wall time
    of the op list.  The tail is taken in each block of ``TAIL_BLOCK`` passes,
    so its percentile does not depend on how many passes fit in the run, and
    reported as the median over blocks."""
    everything = [t for p in passes for t in p[0]]
    block = min(TAIL_BLOCK, len(passes))
    tails = [tail([t for p in passes[i:i + block] for t in p[0]])
             for i in range(0, len(passes) - block + 1, block)]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall_of(passes),
        "op_p50_ms": statistics.median(everything) * 1e3,
        "op_tail_ms": statistics.median(t for t, _ in tails) * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }, {"tail_percentile": round(tails[0][1], 2), "tail_block_ops": block * len(passes[0][0]),
        "tail_blocks": len(tails), "ops_timed": len(everything), "passes": len(passes),
        "ops_per_pass": len(passes[0][0])}


def layer_metrics(tracer, mark, refusals, n_ops):
    """Per-layer numbers of the spans recorded since ``mark`` (one pass)."""
    out = {}
    for name, (calls, busy) in tracer.aggregate(mark).items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = busy
    counts = tracer.counts
    lookups = out.get("proof.is_tautology.calls", 0)
    out["proof.is_tautology.hit_ratio"] = (
        counts["proof.is_tautology.hits"] / lookups if lookups else 0.0)
    planned = counts["semantics.enumerate_games.planned"]
    out["semantics.enumerate_games.visited_share"] = (
        counts["semantics.enumerate_games.models"] / planned if planned else 0.0)
    for key in ("semantics.enumerate_games.models", "game.load_game.plays",
                "proof.is_tautology.hits",
                "formula.expand_minimality.nodes", "proof.is_tautology.max_atoms"):
        out[key] = counts[key]
    out["limits.refusals"] = refusals
    out["bench.ops"] = n_ops
    counts.clear()
    return out


def start_up_costs():
    """Bare interpreter start, and what ``import dtw.cli`` adds to it."""
    env = dict(os.environ, PYTHONPATH="src")
    bare = statistics.median(child_seconds([sys.executable, "-c", "pass"], env)
                             for _ in range(START_PROBES))
    loaded = statistics.median(child_seconds([sys.executable, "-c", "import dtw.cli"], env)
                               for _ in range(START_PROBES))
    return {"cli.python_start_s": bare, "cli.import_s": loaded - bare}


def traced_run(args, workload, expected):
    """Untraced passes, then traced ones; per-layer numbers are medians over
    the traced passes, and the work counters must repeat in each of them.
    The overhead compares the two at the nominal host speed."""
    import calibration
    from tracing import Tracer
    ops = workload.in_process_ops or workload.ops
    meter = calibration.Meter()
    plain = timed_passes(workload, ops, expected, args.seconds * (1 - TRACED_SHARE), 1,
                         meter)
    tracer = Tracer()
    layers = []
    with tracer:
        traced = timed_passes(workload, ops, expected, args.seconds * TRACED_SHARE, 1,
                              meter, tracer, layers)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.tsv")
    # Work counters repeat exactly from pass to pass; times take the median.
    metrics = {key: statistics.median(p.get(key, 0) for p in layers)
               for key in set().union(*layers)}
    metrics.update((key, value) for key, value in layers[0].items()
                   if isinstance(value, int))
    metrics["trace.overhead_s"] = (wall_of(at_nominal(traced, meter))
                                   - wall_of(at_nominal(plain, meter)))
    metrics.update(start_up_costs())
    counters = [{key: p.get(key, 0) for key in WORK_COUNTERS} for p in layers]
    return plain + traced, metrics, counters


def wall_of(passes) -> float:
    return sum(statistics.median(times) for times in zip(*(p[0] for p in passes)))


def metadata(args):
    src = ROOT / "src"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(src.rglob("*.py")))
    cpu = platform.processor() or None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((line.split(":", 1)[1].strip()
                    for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_model": cpu, "git_commit": git_commit(), "src_lines": lines,
    }


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             stdin=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    workload, first_setup = build(args)
    if args.setup_probe:
        print(repr(setup_at_nominal(first_setup)))
        return 0
    e2e_units, layer_units = declared_metrics()
    setup = ([first_setup] if args.trace
             else setup_samples(args, setup_at_nominal(first_setup)))
    # ``in_process_ops`` mirror ``ops`` one for one and share their answers.
    expected = expected_answers(workload.ops)
    for op in workload.ops + (workload.in_process_ops or []):
        op.expect = None  # frees the references' inputs
    # Inputs and expected answers live for the whole run; keep them out of
    # the collector's way so that it sees what the ops allocate.
    gc.collect()
    gc.freeze()
    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    min_passes = 1 if args.smoke else MIN_PASSES
    counters = None
    launcher = workload.launcher
    raw_wall = host_factor = None
    if args.trace:
        passes, layers, counters = traced_run(args, workload, expected)
        metrics = {name: layers.get(name, 0) for name in layer_units}
        units = layer_units
    else:
        import calibration
        meter = calibration.Meter()
        with launcher or contextlib.nullcontext():
            measured = timed_passes(workload, workload.ops, expected, args.seconds,
                                    min_passes, meter)
        passes = at_nominal(measured, meter)
        raw_wall, host_factor = wall_of(measured), calibration.factor(meter.chunks)
    failures = [f for p in passes for f in p[1]]
    attempted = sum(len(p[0]) for p in passes)
    peak_kb = (launcher.peak_rss_kb if launcher and not args.trace
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    e2e, shape = end_to_end(passes, setup, peak_kb)
    if not args.trace:
        metrics, units = e2e, e2e_units
    repeat_ok = counters is None or all(c == counters[0] for c in counters)
    info = metadata(args)
    ops = workload.in_process_ops if args.trace and workload.in_process_ops else workload.ops
    info.update(shape, error_share=len(failures) / attempted,
                op_kinds_ms=by_kind(ops, passes),
                setup_samples_s=setup, work_counters=counters and counters[0],
                wall_measured_s=raw_wall, host_factor=host_factor,
                peak_rss_before_ops_mb=rss_before_kb / 1024.0,
                work_counters_repeat=repeat_ok, failures=sorted(set(failures))[:20])
    print("meta " + json.dumps(info, sort_keys=True))
    for name in sorted(metrics):
        print(f"  {name:48s} {fmt(metrics[name]):>14s} {units[name]}")
    print(f"  {'error_share':48s} {fmt(len(failures) / attempted):>14s} share"
          f"  ({len(failures)} of {attempted} ops)")
    print(f"  op_tail_ms is p{shape['tail_percentile']} of {shape['tail_block_ops']} ops,"
          f" median of {shape['tail_blocks']} blocks; {shape['ops_timed']} ops timed in"
          f" {shape['passes']} passes of {shape['ops_per_pass']}")
    result = {
        "correct": not failures and repeat_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": info, "result": result,
                    "latencies_s": [p[0] for p in passes]}, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

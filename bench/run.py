#!/usr/bin/env python3
"""Planner benchmark: one workload's `gen`, then `solve` in a closed loop, in process.

    python3 bench/run.py --workload desk_evict --seed 42 --seconds 30 --trace 0

The program is imported from the ``src`` directory beside this one and driven
through ``replicaplan.cli.main``, one command at a time, by a single caller
with no extra threads or processes.  A run

1. builds the workload's instance with ``gen`` and draws its start
   placement, if it has one;
2. runs ``solve`` again and again until another one would overrun
   ``--seconds`` (at least twice), checks every plan with ``verify.py``,
   and reports medians;
3. rebuilds the instance with ``gen`` for half a second (at least once)
   before every plan, and reports the median ``gen`` wall time as
   ``setup_s``: host noise comes in bursts, so samples spread over the run
   agree better between runs than samples taken back to back.

With ``--trace 1`` every second ``solve`` and every ``gen`` run under the
wrappers of ``tracing.py`` and the per-layer metrics are reported instead;
the plain ``solve`` runs between them give ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Instance files live
in ``.bench_run/`` under the repository root and are removed at exit; the
spans of a traced run are left there as JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SCRATCH = ROOT / ".bench_run"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_BATCH_S = 0.5  # each batch of `gen` repeats stops once it has taken this long
MIN_PLANS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="planner seed passed to solve")
    p.add_argument("--seconds", type=float, required=True, help="time budget of the solve loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks the instance for the benchmark's own tests")
    p.add_argument("--instance-seed", type=int, default=workloads.INSTANCE_SEED,
                   help=f"gen seed; {workloads.HELD_OUT_INSTANCE_SEED} is the held-out instance")
    p.add_argument("--record", action="store_true",
                   help="store this run's digests and counters in expected.json")
    return p.parse_args(argv)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def call(cli, argv, err) -> int:
    """``cli.main``, with a crash turned into a failed command and its traceback."""
    try:
        return cli.main(argv)
    except Exception:  # the loop must go on and count the failure
        err.write(traceback.format_exc())
        return -1


def invoke(cli, argv, root: str, tracer):
    """Run one CLI command; returns (wall seconds, exit code, stderr, trace run or None)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            start = time.perf_counter()
            code = call(cli, argv, err)
            return time.perf_counter() - start, code, err.getvalue(), None
        with tracer.command(root) as run:
            code = call(cli, argv, err)
    _, start, end, _, _ = tracer.spans[run["root"]]
    return end - start, code, err.getvalue(), run


def layer_metrics(tracer, gen_runs, solve_runs, plain_walls) -> tuple[dict, list]:
    """Per-layer values: median over traced gens plus median over traced solves."""
    gens = [tracer.summarize(r) for r in gen_runs]
    solves = [tracer.summarize(r) for r in solve_runs]
    problems = []
    values = {}
    for metric in PER_LAYER:
        if metric in tracing.COUNTS:
            seen = {s[metric] for s in solves}
            if len(seen) > 1:
                problems.append(f"{metric} differs between traced plans: {sorted(seen)}")
            values[metric] = solves[0][metric]
        elif metric in tracing.LAYER.values():
            values[metric] = (statistics.median([g.get(metric, 0.0) for g in gens])
                              + statistics.median([s.get(metric, 0.0) for s in solves]))
    intervals = [ms for s in solves for ms in s["intervals_ms"]]
    p50, p99 = np.percentile(intervals, [50, 99]) if intervals else (0.0, 0.0)
    values["heuristics.iter_ms_p50"] = float(p50)
    values["heuristics.iter_ms_p99"] = float(p99)
    values["heuristics.iter_samples"] = len(intervals)
    values["heuristics.commit_ratio"] = (
        values["heuristics.flips"] / values["heuristics.iterations"]
        if values["heuristics.iterations"] else 0.0)
    values["trace.solve_cmd_s"] = statistics.median([s["wall_s"] for s in solves])
    values["trace.overhead_s"] = values["trace.solve_cmd_s"] - statistics.median(plain_walls)
    return values, problems


def record(wl, args, out: Path, verify) -> None:
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    result = json.loads((out / "result.json").read_text())
    entry = verify.digests(out)
    entry.update({k: result[k] for k in ("iterations", "flips", "evictions", "c_old", "c_new")})
    expected.setdefault(wl.name, {}).setdefault(args.size, {})[
        f"{args.instance_seed}:{args.seed}"] = entry
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


def run(args, work: Path) -> int:
    # the planner under test is importable only once main() has put src/ on the path
    from replicaplan import cli, costs, heuristics, model, topology, workload

    import verify

    wl = workloads.WORKLOADS[args.workload]
    if args.size == "tiny":
        wl = wl.tiny()
    mods = {"topology": topology, "workload": workload, "model": model, "costs": costs,
            "heuristics": heuristics, "cli": cli}
    tracer = tracing.Tracer(mods) if args.trace else None
    inst = work / "instance"
    setup_times, gen_runs = [], []

    def setup_batch() -> bool:
        """Rebuild the instance a few times; batches sit between plans to spread the samples."""
        started = time.perf_counter()
        while True:
            wall, code, err, trace_run = invoke(
                cli, wl.gen_argv(args.instance_seed, str(inst)), "cli.gen", tracer)
            if code != 0:
                print(f"error: gen exited {code}: {err.strip()}", file=sys.stderr)
                return False
            setup_times.append(wall)
            if trace_run is not None:
                gen_runs.append(trace_run)
            if time.perf_counter() - started >= SETUP_BATCH_S:
                return True

    if not setup_batch():
        return 1
    scenario = model.Scenario.load(inst / "scenario.json")
    l = np.loadtxt(inst / "cost_matrix.csv", delimiter=",", dtype=np.int64, ndmin=2)
    x_old = None
    if wl.start_extras:
        x_start = workloads.draw_start_placement(scenario, wl.start_extras, args.instance_seed)
        x_old = str(work / "x_old.json")
        model.save_placement(x_start, x_old)
    else:
        x_start = model.primary_only_placement(scenario.servers, scenario.objects)
    meta = {"workload": wl.name, "why": wl.why, "size": args.size, "seed": args.seed,
            "instance_seed": args.instance_seed, "seconds": args.seconds, "trace": args.trace,
            "gen": wl.gen_argv(args.instance_seed, "instance"),
            "solve": wl.solve_argv(args.seed, "instance", "plan", x_old and "x_old.json"),
            "start_extras": wl.start_extras, "instance": scenario.meta,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": git_commit(),
            "loop": "closed, one caller, in process"}
    print(json.dumps({"meta": meta}, sort_keys=True))
    expected = None
    if not args.record and EXPECTED.is_file():
        expected = json.loads(EXPECTED.read_text()).get(wl.name, {}).get(args.size, {}).get(
            f"{args.instance_seed}:{args.seed}")

    attempted = failed = 0
    plan_s, plain_walls, iteration_walls, solve_runs = [], [], [], []
    first_digests = row = None
    loop_start = time.perf_counter()
    while True:
        started = time.perf_counter()
        if attempted and not setup_batch():
            return 1
        traced = tracer is not None and attempted % 2 == 1
        out = work / f"plan{attempted}"
        wall, code, err, trace_run = invoke(
            cli, wl.solve_argv(args.seed, str(inst), str(out), x_old), "cli.solve",
            tracer if traced else None)
        attempted += 1
        if code != 0:
            problems = [f"solve exited {code}: {err.strip()}"]
        else:
            try:
                problems = verify.check_plan(scenario, l, x_start, wl.cap, out, expected)
                got = verify.digests(out)
                row = verify.read_row(out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"artifacts unreadable: {exc!r}"]
            else:
                first_digests = first_digests or got
                if got != first_digests:
                    problems.append("artifacts differ from the run's first plan")
        if problems:
            failed += 1
            for problem in problems:
                print(f"plan {attempted} FAILED: {problem}")
        elif traced:
            solve_runs.append(trace_run)
        else:
            plain_walls.append(wall)
            plan_s.append(int(row["runtime_ms"]) / 1000)
        if args.record and attempted == 1 and not problems:
            record(wl, args, out, verify)
        shutil.rmtree(out, ignore_errors=True)
        iteration_walls.append(time.perf_counter() - started)
        predicted = time.perf_counter() - loop_start + statistics.median(iteration_walls)
        if attempted >= MIN_PLANS and predicted > args.seconds:
            break

    if not plain_walls or (tracer is not None and not solve_runs):
        print("error: no plan passed verification; nothing to report", file=sys.stderr)
        return 1
    correct = failed == 0
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "plan_s": statistics.median(plan_s),
            "solve_cmd_s": statistics.median(plain_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cost_ratio": int(row["c_new"]) / int(row["c_old"]),
            "min_avail_new": float(row["min_avail_new"]),
        }
        units = END_TO_END
        samples = {"setup_s": [round(t, 4) for t in setup_times],
                   "plan_s": plan_s,
                   "solve_cmd_s": [round(t, 4) for t in plain_walls]}
    else:
        values, problems = layer_metrics(tracer, gen_runs, solve_runs, plain_walls)
        for problem in problems:
            print(f"FAILED: {problem}")
        correct = correct and not problems
        units = PER_LAYER
        samples = {"traced gens": len(gen_runs), "traced plans": len(solve_runs),
                   "plain plans": len(plain_walls)}
        spans = SCRATCH / f"spans-{wl.name}-{args.size}-{args.instance_seed}-{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")

    print(f"samples: {json.dumps(samples)}")
    for name, unit in units.items():
        print(f"{name:28} {values[name]:>16.6f} {unit}")
    print(f"{'verify_fail_rate':28} {failed / attempted:>16.6f} 1  ({failed} of {attempted} plans)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "replicaplan" / "cli.py").is_file():
        print(f"error: planner sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = SCRATCH / f"{args.workload}-{args.size}-{args.instance_seed}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

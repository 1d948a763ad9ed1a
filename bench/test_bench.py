"""Smoke tests for the benchmark on tiny instances.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from replicaplan import cli, costs, heuristics, model, topology, workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_and_verifies(name, trace):
    proc = bench("--workload", name, "--seed", "42", "--seconds", "1", "--trace", trace,
                 "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for metric in spec:
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                   for line in lines), metric["name"]
    assert any(line.startswith("verify_fail_rate") for line in lines)
    meta = next(json.loads(line)["meta"] for line in lines if line.startswith('{"meta"'))
    for key in ("nproc", "python", "numpy", "commit", "seed", "instance_seed", "gen", "solve",
                "instance"):
        assert key in meta


def test_traced_counts_match_the_plan():
    proc = bench("--workload", "replan_tight", "--seed", "42", "--seconds", "1", "--trace", "1",
                 "--size", "tiny")
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    recorded = json.loads((HERE / "expected.json").read_text())["replan_tight"]["tiny"]["42:42"]
    assert metrics["heuristics.flips"] == recorded["flips"]
    assert metrics["heuristics.evictions"] == recorded["evictions"]
    assert metrics["heuristics.iterations"] == recorded["iterations"]
    assert metrics["model.add_replica_calls"] == recorded["flips"]
    assert metrics["model.remove_replica_calls"] == recorded["evictions"]
    # one check of the start placement, one in the state build, one per commit
    assert metrics["model.validate_calls"] == recorded["flips"] + 2


def test_held_out_instance_matches_its_recording():
    proc = bench("--workload", "desk_evict", "--seed", "7", "--instance-seed", "7",
                 "--seconds", "1", "--trace", "0", "--size", "tiny")
    assert json.loads(proc.stdout.splitlines()[-1])["correct"], proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "desk_evict", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_every_wrapped_callable(tmp_path):
    mods = {"topology": topology, "workload": workload, "model": model, "costs": costs,
            "heuristics": heuristics, "cli": cli}
    targets = tracing._targets(mods)
    before = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
              for owner, attr, _ in targets]
    tracer = tracing.Tracer(mods)
    wl = workloads.WORKLOADS["desk_evict"].tiny()
    with tracer.command("cli.gen") as run:
        assert heuristics.solve is not before[-1]
        assert cli.main(wl.gen_argv(42, str(tmp_path))) == 0
    after = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
             for owner, attr, _ in targets]
    assert all(a is b for a, b in zip(before, after))
    assert tracer.summarize(run)["topology.apsp_s"] > 0


def test_gate_rejects_a_tampered_plan(tmp_path):
    wl = workloads.WORKLOADS["desk_evict"].tiny()
    inst, out = tmp_path / "instance", tmp_path / "plan"
    assert cli.main(wl.gen_argv(42, str(inst))) == 0
    assert cli.main(wl.solve_argv(42, str(inst), str(out), None)) == 0
    scenario = model.Scenario.load(inst / "scenario.json")
    l = topology.all_pairs_shortest_paths(topology.load_topology(inst / "topology.json")).l
    x_start = model.primary_only_placement(scenario.servers, scenario.objects)
    recorded = json.loads((HERE / "expected.json").read_text())["desk_evict"]["tiny"]["42:42"]
    assert verify.check_plan(scenario, l, x_start, wl.cap, out, recorded) == []

    result = json.loads((out / "result.json").read_text())
    result["schedule"] = result["schedule"][:-1]
    (out / "result.json").write_text(json.dumps(result))
    problems = verify.check_plan(scenario, l, x_start, wl.cap, out, recorded)
    assert any("replayed" in p for p in problems)
    assert any("digest" in p for p in problems)

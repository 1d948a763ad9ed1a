"""Correctness gate applied to every plan the benchmark produces.

A plan passes when its schedule replays onto the start placement to exactly
``placement.json``, the result is a valid placement within the replica cap,
its costs match a fresh recomputation, every committed step lowers the cost,
``result.json`` and ``results.csv`` agree, and, where a digest is recorded for
the workload and seeds, both artifacts are byte-identical to the recording
(``runtime_ms`` blanked), which holds plans to the repository's fixed point.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from replicaplan import costs
from replicaplan.cli import RESULTS_HEADER
from replicaplan.heuristics import Add, action_from_dict, replay_schedule
from replicaplan.model import build_nearest_index, load_placement, validate_placement



def digests(out: Path) -> dict:
    """SHA-256 of result.json, and of results.csv with its runtime_ms column blanked."""
    lines = (out / "results.csv").read_text().splitlines()
    blanked = [lines[0]] + [line.rsplit(",", 1)[0] + "," for line in lines[1:]]
    return {
        "result_json": hashlib.sha256((out / "result.json").read_bytes()).hexdigest(),
        "results_csv": hashlib.sha256("\n".join(blanked).encode()).hexdigest(),
    }


def read_row(out: Path) -> dict:
    rows = list(csv.DictReader(io.StringIO((out / "results.csv").read_text())))
    if len(rows) != 1 or list(rows[0]) != RESULTS_HEADER.split(","):
        raise ValueError(f"results.csv must hold the header and one row, got {len(rows)} rows")
    return rows[0]


def _fresh_cost(x, l, traffic) -> int:
    near, _ = build_nearest_index(x, l)
    return costs.total_access_cost(x, near, traffic, l).total


def check_plan(scenario, l: np.ndarray, x_start: np.ndarray, cap: int, out: Path,
               expected: dict | None) -> list[str]:
    """Return every way the plan in ``out`` fails; an empty list means it passed."""
    result = json.loads((out / "result.json").read_text())
    row = read_row(out)
    servers, objects, traffic = scenario.servers, scenario.objects, scenario.traffic
    m, n = servers.count, objects.count
    problems = []

    schedule = [action_from_dict(a) for a in result["schedule"]]
    x_new = load_placement(out / "placement.json", m, n)
    if not np.array_equal(replay_schedule(x_start, schedule), x_new):
        problems.append("schedule replayed onto the start placement differs from placement.json")
    adds = [a for a in schedule if isinstance(a, Add)]
    if any(a.transfer_cost != int(objects.sizes[a.object_id]) * int(l[a.server, a.source])
           for a in adds):
        problems.append("an add's transfer cost is not size x cost from its source")
    if sum(a.transfer_cost for a in adds) != result["impl_cost_total"]:
        problems.append("impl_cost_total is not the sum of the adds' transfer costs")
    for v in validate_placement(x_new, servers, objects):
        problems.append(f"placement invalid: {v.detail}")
    counts = x_new.sum(axis=0)
    gained = (x_new > x_start).any(axis=0)
    if (counts[gained] > cap).any():
        problems.append(f"an object that gained a replica ends above the cap {cap}")

    if result["c_old"] != _fresh_cost(x_start, l, traffic):
        problems.append("c_old differs from a fresh total_access_cost of the start placement")
    if result["c_new"] != _fresh_cost(x_new, l, traffic):
        problems.append("c_new differs from a fresh total_access_cost of placement.json")
    chain = [result["c_old"]]
    for step in result["steps"]:
        if step["c_before"] != chain[-1] or not step["c_after"] < step["c_before"]:
            problems.append(f"step on server {step['server']} object {step['object']} "
                            f"does not lower the cost from the previous step's")
            break
        chain.append(step["c_after"])
    if chain[-1] != result["c_new"]:
        problems.append("the steps' cost chain does not end at c_new")
    if len(result["steps"]) != result["flips"] or len(adds) != result["flips"] or \
            len(schedule) - len(adds) != result["evictions"]:
        problems.append("flip or eviction counts disagree with the schedule")

    avail = costs.availability_per_object(x_new, servers.failure_probs)
    same = {"c_old": str(result["c_old"]), "c_new": str(result["c_new"]),
            "impl_cost": str(result["impl_cost_total"]), "flips": str(result["flips"]),
            "evictions": str(result["evictions"]), "min_avail_new": repr(float(avail.min()))}
    for field, value in same.items():
        if row[field] != value:
            problems.append(f"results.csv {field}={row[field]} but expected {value}")

    if expected is not None:
        for counter in ("iterations", "flips", "evictions", "c_old", "c_new"):
            if result[counter] != expected[counter]:
                problems.append(f"{counter}={result[counter]} but {expected[counter]} is recorded")
        got = digests(out)
        for name, digest in got.items():
            if expected[name] != digest:
                problems.append(f"{name} digest {digest[:12]} differs from the recorded "
                                f"{expected[name][:12]}")
    return problems

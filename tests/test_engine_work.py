"""Exact pins of the engine's work: how often each step runs, and over how much.

The engine's skip rules (kept window scores, the stale-row re-max, the row
limit, dead windows, the eviction bound and the in-place list rewrite) keep
every plan as it is, so neither the oracle nor a plan digest sees one go.
These tests count, from outside the package, the calls a solve makes to the
engine's steps and the cells, rows and columns each call covers, and pin
every count exactly for all four planners on three instances:

- ``micro``, the hand-checkable instance of ``conftest.py``;
- ``tight``, a 12 x 80 ``gen`` instance with ``slack:0.6`` capacities,
  started from the primaries plus up to two extra replicas per object,
  each added where it fits, so that every planner evicts at cap 3;
- ``open``, a 12 x 80 ``gen`` instance with ``unbounded`` capacities, where
  every server has room for the largest object and so the row limit skips
  every row.

A change in the engine's work shows as a changed pin.
"""

import collections
import random

import numpy as np
import pytest

from replicaplan import (
    PlacementState,
    Scenario,
    SolverConfig,
    all_pairs_shortest_paths,
    load_topology,
    primary_only_placement,
    solve,
)
from replicaplan.cli import main
from replicaplan.heuristics import ALGORITHMS, _GreedyEngine

# Each counted engine method, and the key and measure of what one call covers,
# read before the call.  A method's calls are counted under its own name.
STEPS = {
    "_sweep": None,
    "_score": ("cells_scored", lambda engine, net, rows, sizes: net.size),
    "_refresh": ("rows_remaxed", lambda engine, rows: engine._row_best[rows].size),
    "_resolve": ("cells_priced", lambda engine, i: int(engine._pending[i].sum())),
    "_entries": None,
    "_store": None,
    "_columns": ("columns_computed", lambda engine, cols: engine.st.replica_counts[cols].size),
}

KEYS = ("_sweep", "_score", "cells_scored", "_refresh", "rows_remaxed", "_resolve",
        "cells_priced", "_entries", "_store", "_columns", "columns_computed",
        "iterations", "flips", "evictions")

PINS = {  # (instance, planner): one count per entry of KEYS
    ("micro", "aagg"): (3, 4, 14, 3, 6, 0, 0, 0, 0, 3, 4, 3, 2, 0),
    ("micro", "aagro"): (4, 4, 12, 4, 12, 0, 0, 0, 0, 3, 4, 4, 2, 0),
    ("micro", "gg"): (3, 4, 14, 3, 6, 0, 0, 0, 0, 3, 4, 3, 2, 0),
    ("micro", "gro"): (4, 4, 12, 4, 12, 0, 0, 0, 0, 3, 4, 4, 2, 0),
    ("tight", "aagg"): (56, 111, 8448, 143, 285, 87, 2600, 200, 89, 56, 184, 56, 55, 49),
    ("tight", "aagro"): (128, 128, 1536, 324, 1732, 196, 196, 240, 101, 63, 200, 142, 62, 58),
    ("tight", "gg"): (61, 121, 9252, 172, 319, 111, 3019, 222, 98, 61, 191, 61, 60, 51),
    ("tight", "gro"): (127, 127, 1524, 304, 1701, 177, 177, 237, 103, 62, 199, 141, 61, 58),
    ("open", "aagg"): (161, 161, 2880, 161, 542, 0, 0, 0, 0, 161, 240, 161, 160, 0),
    ("open", "aagro"): (240, 240, 2880, 240, 2880, 0, 0, 0, 0, 161, 240, 240, 160, 0),
    ("open", "gg"): (161, 161, 2880, 161, 637, 0, 0, 0, 0, 161, 240, 161, 160, 0),
    ("open", "gro"): (240, 240, 2880, 240, 2880, 0, 0, 0, 0, 161, 240, 240, 160, 0),
}


def counting(monkeypatch):
    """``solve`` that also returns its work: a dict with one count per entry of ``KEYS``."""
    counts = collections.Counter()

    def wrap(name, covers):
        original = getattr(_GreedyEngine, name)

        def step(engine, *args):
            counts[name] += 1
            if covers is not None:
                key, measure = covers
                counts[key] += measure(engine, *args)
            return original(engine, *args)

        monkeypatch.setattr(_GreedyEngine, name, step)

    for name, covers in STEPS.items():
        wrap(name, covers)

    def run(state, config) -> dict:
        counts.clear()
        result = solve(state, config)
        counts.update(iterations=result.iterations, flips=result.flips,
                      evictions=result.evictions)
        return {key: counts[key] for key in KEYS}

    return run


def gen_state(out, policy: str, extra: int) -> PlacementState:
    """A 12 x 80 ``gen`` instance under capacity ``policy``, budgeted for caps 1..3.

    The start holds the primaries and, per object in id order, up to
    ``extra`` more replicas on distinct drawn servers, each added only
    where it fits.
    """
    assert main(["gen", "--nodes", "12", "--objects", "80", "--capacity-policy", policy,
                 "--caps", "1..3", "--seed", "1", "--out", str(out)]) == 0
    scenario = Scenario.load(out / "scenario.json")
    servers, objects = scenario.servers, scenario.objects
    x = primary_only_placement(servers, objects)
    free = servers.capacities - x.astype(np.int64) @ objects.sizes
    rng = random.Random(0)
    m = servers.count
    for k, (size, primary) in enumerate(zip(objects.sizes.tolist(),
                                            objects.primaries.tolist())):
        for i in rng.sample([j for j in range(m) if j != primary], extra):
            if free[i] >= size:
                x[i, k], free[i] = 1, free[i] - size
    return PlacementState(all_pairs_shortest_paths(load_topology(out / "topology.json")),
                          servers, objects, scenario.traffic, x)


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    return {
        "tight": (gen_state(tmp_path_factory.mktemp("tight"), "slack:0.6", 2), 3),
        "open": (gen_state(tmp_path_factory.mktemp("open"), "unbounded", 0), 3),
    }


class TestWorkPins:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_micro(self, micro, monkeypatch, algorithm):
        work = counting(monkeypatch)(micro.state(), SolverConfig(algorithm=algorithm))
        assert work == dict(zip(KEYS, PINS["micro", algorithm]))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("name", ["tight", "open"])
    def test_gen(self, instances, monkeypatch, name, algorithm):
        state, cap = instances[name]
        work = counting(monkeypatch)(state, SolverConfig(algorithm=algorithm,
                                                         max_replicas_per_object=cap))
        assert work == dict(zip(KEYS, PINS[name, algorithm]))

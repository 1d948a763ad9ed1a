"""Spans around the planner's public calls, recorded from the benchmark's side.

While a traced command runs, the public functions of each module and the
``Scenario``, ``CostMatrix`` and ``PlacementState`` methods named in
``_targets`` are replaced by timing wrappers.  ``heuristics.solve`` is
wrapped to inject an ``on_commit`` hook, which together with the model and
cost calls splits the planner's time into phases:

- ``init``: solve entry until its first ``total_access_cost`` returns
  (state copy, ``delta`` build, starting cost);
- ``score``: the end of init or of a commit until the next replica add or
  drop, or until the final ground-truth recompute (sweeps and eviction
  planning);
- ``commit``: the first add or drop of a flip until ``on_commit`` (delta and
  eviction-cache upkeep, admission and validity checks);
- ``finalize``: the final ground-truth recompute and result assembly.

Everything is restored when the command ends, so untraced commands run the
program exactly as shipped.  Spans are kept in memory and written out once.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> the per-layer metric its self time is summed into
LAYER = {
    "cli.solve": "cli.self_s",
    "cli.gen": "cli.gen_self_s",
    "topology.generate_ba_topology": "topology.gen_s",
    "topology.assign_link_costs": "topology.gen_s",
    "topology.all_pairs_shortest_paths": "topology.apsp_s",
    "topology.save_topology": "topology.io_s",
    "topology.load_topology": "topology.io_s",
    "topology.CostMatrix.to_csv": "topology.io_s",
    "workload.generate_object_catalog": "workload.catalog_s",
    "workload.generate_traffic": "workload.traffic_s",
    "workload.synthetic_availability": "workload.availability_s",
    "model.Scenario.save": "model.scenario_io_s",
    "model.Scenario.load": "model.scenario_io_s",
    "model.save_placement": "model.placement_io_s",
    "model.load_placement": "model.placement_io_s",
    "model.PlacementState.from_scenario": "model.state_build_s",
    "model.PlacementState.__init__": "model.state_build_s",
    "model.validate_placement": "model.validate_s",
    "model.PlacementState.add_replica": "model.mutate_s",
    "model.PlacementState.remove_replica": "model.mutate_s",
    "heuristics.init": "heuristics.init_s",
    "heuristics.score": "heuristics.score_s",
    "heuristics.commit": "heuristics.commit_s",
    "heuristics.finalize": "heuristics.finalize_s",
    "costs.total_access_cost": "costs.access_cost_s",
    "costs.replicator_availability": "costs.availability_s",
    "costs.availability_per_object": "costs.availability_s",
}

# count metric -> the spans whose calls it counts
CALLS = {
    "model.validate_calls": ("model.validate_placement",),
    "model.add_replica_calls": ("model.PlacementState.add_replica",),
    "model.remove_replica_calls": ("model.PlacementState.remove_replica",),
    "costs.availability_calls": ("costs.replicator_availability",
                                 "costs.availability_per_object"),
}

COUNTS = ("model.validate_calls", "model.add_replica_calls", "model.remove_replica_calls",
          "model.nearest_rows_changed", "heuristics.iterations", "heuristics.flips",
          "heuristics.evictions", "costs.availability_calls")

_SELF_TOL = 1e-6  # seconds of clock jitter tolerated when checking that spans nest


def _targets(mods) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped callable.

    A function imported by name into another module is patched there too,
    so calls through either name are seen.
    """
    topology, workload, model, costs, heuristics, cli = (
        mods[k] for k in ("topology", "workload", "model", "costs", "heuristics", "cli"))
    return [
        (topology, "generate_ba_topology", "topology.generate_ba_topology"),
        (topology, "assign_link_costs", "topology.assign_link_costs"),
        (topology, "all_pairs_shortest_paths", "topology.all_pairs_shortest_paths"),
        (topology, "save_topology", "topology.save_topology"),
        (topology, "load_topology", "topology.load_topology"),
        (topology.CostMatrix, "to_csv", "topology.CostMatrix.to_csv"),
        (workload, "generate_object_catalog", "workload.generate_object_catalog"),
        (workload, "generate_traffic", "workload.generate_traffic"),
        (workload, "synthetic_availability", "workload.synthetic_availability"),
        (model.Scenario, "save", "model.Scenario.save"),
        (model.Scenario, "load", "model.Scenario.load"),
        (model, "save_placement", "model.save_placement"),
        (cli, "save_placement", "model.save_placement"),
        (model, "load_placement", "model.load_placement"),
        (cli, "load_placement", "model.load_placement"),
        (model.PlacementState, "from_scenario", "model.PlacementState.from_scenario"),
        (model.PlacementState, "__init__", "model.PlacementState.__init__"),
        (model, "validate_placement", "model.validate_placement"),
        (heuristics, "validate_placement", "model.validate_placement"),
        (cli, "validate_placement", "model.validate_placement"),
        (model.PlacementState, "add_replica", "model.PlacementState.add_replica"),
        (model.PlacementState, "remove_replica", "model.PlacementState.remove_replica"),
        (costs, "total_access_cost", "costs.total_access_cost"),
        (costs, "replicator_availability", "costs.replicator_availability"),
        (costs, "availability_per_object", "costs.availability_per_object"),
        (heuristics, "solve", "heuristics.solve"),
    ]


class Tracer:
    """Records spans ``[name, start, end, parent index, run id]`` for traced commands."""

    def __init__(self, mods):
        self.mods = mods
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.runs: list[dict] = []
        self.phase: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str, now: float) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, now, now, parent, len(self.runs) - 1])

    def _close(self, now: float) -> None:
        self.spans[self.stack.pop()][2] = now

    def _switch(self, phase: str) -> None:
        """End the open planner phase (the innermost open span) and start ``phase``."""
        now = self.clock()
        self._close(now)
        self._open(phase, now)
        self.phase = phase

    @contextmanager
    def command(self, name: str):
        """Trace one CLI command as a root span; yields the run's record."""
        run = {"root": len(self.spans), "counts": Counter(), "commits": []}
        self.runs.append(run)
        self._install()
        self._open(name, self.clock())
        try:
            yield run
        finally:
            self._close(self.clock())
            self._uninstall()
            self.phase = None

    # -- wrapping ---------------------------------------------------------

    def _install(self) -> None:
        for owner, attr, name in _targets(self.mods):
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, raw))

    def _uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name: str, fn):
        if name == "heuristics.solve":
            return self._wrap_solve(fn)
        before = after = None
        nested_in = None
        if name.endswith(("add_replica", "remove_replica")):
            def before():
                if self.phase == "heuristics.score":
                    self._switch("heuristics.commit")

            def after(changed):
                self.runs[-1]["counts"]["model.nearest_rows_changed"] += len(changed)
        elif name == "costs.total_access_cost":
            def before():
                if self.phase == "heuristics.score":
                    self._switch("heuristics.finalize")

            def after(_):
                if self.phase == "heuristics.init":
                    self._switch("heuristics.score")
        elif name == "costs.replicator_availability":
            nested_in = "costs.availability_per_object"  # one call per object there

        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nested_in is not None and stack and spans[stack[-1]][0] == nested_in:
                return fn(*args, **kwargs)
            if before is not None:
                before()
            self._open(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(clock())
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_solve(self, fn):
        @functools.wraps(fn)
        def solve(state, config, on_commit=None, on_mutation=None):
            run = self.runs[-1]

            def commit_hook(st, step):
                run["commits"].append(self.clock())
                self._switch("heuristics.score")
                if on_commit is not None:
                    on_commit(st, step)

            self._open("heuristics.init", self.clock())
            self.phase = "heuristics.init"
            try:
                result = fn(state, config, on_commit=commit_hook, on_mutation=on_mutation)
            finally:
                self._close(self.clock())
                self.phase = None
            run["counts"].update({"heuristics.iterations": result.iterations,
                                  "heuristics.flips": result.flips,
                                  "heuristics.evictions": result.evictions})
            if len(run["commits"]) != result.flips:
                raise RuntimeError("on_commit fired a different number of times than flips")
            return result

        return solve

    # -- results ----------------------------------------------------------

    def summarize(self, run: dict) -> dict:
        """Self time per layer metric, call counts and commit intervals of one run."""
        rid = self.spans[run["root"]][4]
        mine = [(idx, s) for idx, s in enumerate(self.spans) if s[4] == rid]
        covered = defaultdict(float)
        for _, (_, start, end, parent, _) in mine:
            if parent >= 0:
                covered[parent] += end - start
        values = defaultdict(float)
        calls = Counter()
        for idx, (name, start, end, _, _) in mine:
            own = end - start - covered[idx]
            if own < -_SELF_TOL:
                raise RuntimeError(f"span {name} is shorter than its children: spans do not nest")
            values[LAYER[name]] += own
            calls[name] += 1
        root = self.spans[run["root"]]
        accounted = sum(values.values())
        if abs(accounted - (root[2] - root[1])) > _SELF_TOL * len(mine):
            raise RuntimeError("self times do not add up to the command's wall time")
        for metric, names in CALLS.items():
            values[metric] = sum(calls[n] for n in names)
        for metric in COUNTS:
            if metric not in CALLS:
                values[metric] = run["counts"][metric]
        values["wall_s"] = root[2] - root[1]
        values["intervals_ms"] = [1000 * b - 1000 * a
                                  for a, b in zip(run["commits"], run["commits"][1:])]
        return dict(values)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start - self.origin,
                                     "end": end - self.origin, "parent": parent,
                                     "run": run}) + "\n")


"""Greedy replica-placement planners.

Four planners share one engine.  ``aagg`` repeatedly scans every candidate
flip (placing one object on one server it does not yet hold), scores each by
(access saving - eviction damage - transfer bytes) weighted by the target
server's availability, and commits the best strictly-positive one until none
remains.  ``aagro`` restricts the same scan to one object at a time, visiting
objects once in a seeded random order.  ``gg`` and ``gro`` are the
availability-blind twins: same control flow, unweighted score, no
availability admission check.

When a target server lacks space, non-primary replicas it hosts are evicted
least-damaging-first until the newcomer fits; a candidate whose evictions
cannot free enough space is skipped.  Scoring compares candidates with strict
inequality while scanning in ascending (server, object) order, so ties keep
the lowest-numbered flip.

The engine is the only implementation of flip scoring: the access saving
``delta`` of every candidate add comes from one kernel, :func:`_delta`, and
every plan, with or without evictions, is built by one method,
``_plan_with_evictions``.  :func:`solve` is the one entry point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import costs
from .errors import ParameterError
from .model import PlacementState, validate_placement

ALGORITHMS = ("aagg", "aagro", "gg", "gro")
SCOPES = ("focal_object", "all_changed_objects")


@dataclass(frozen=True)
class SolverConfig:
    """Planner knobs; ``max_replicas_per_object=None`` means unlimited."""

    algorithm: str = "aagg"
    max_replicas_per_object: int | None = None
    availability_scope: str = "focal_object"
    availability_semantics: str = "corrected"
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ParameterError(f"unknown algorithm {self.algorithm!r}")
        if self.max_replicas_per_object is not None and self.max_replicas_per_object < 1:
            raise ParameterError("max_replicas_per_object must be >= 1")
        if self.availability_scope not in SCOPES:
            raise ParameterError(f"unknown availability scope {self.availability_scope!r}")
        if self.availability_semantics not in costs.SEMANTICS:
            raise ParameterError(
                f"unknown availability semantics {self.availability_semantics!r}"
            )


@dataclass(frozen=True)
class Add:
    server: int
    object_id: int
    source: int
    transfer_cost: int


@dataclass(frozen=True)
class Evict:
    server: int
    object_id: int


@dataclass(frozen=True)
class StepStat:
    """Bookkeeping for one committed flip (evictions folded in)."""

    server: int
    object_id: int
    c_before: int
    c_after: int
    transfer_cost: int
    benefit: float


@dataclass(eq=False)
class PlacementResult:
    """Outcome of one planner run."""

    x_new: np.ndarray
    schedule: tuple
    steps: tuple
    c_old: int
    c_new: int
    impl_cost_total: int
    benefit_total: float
    iterations: int

    @property
    def flips(self) -> int:
        return sum(1 for a in self.schedule if isinstance(a, Add))

    @property
    def evictions(self) -> int:
        return sum(1 for a in self.schedule if isinstance(a, Evict))

    def to_json_dict(self) -> dict:
        return {
            "c_old": self.c_old,
            "c_new": self.c_new,
            "impl_cost_total": self.impl_cost_total,
            "benefit_total": self.benefit_total,
            "iterations": self.iterations,
            "flips": self.flips,
            "evictions": self.evictions,
            "schedule": [action_to_dict(a) for a in self.schedule],
            "steps": [
                {
                    "server": s.server,
                    "object": s.object_id,
                    "c_before": s.c_before,
                    "c_after": s.c_after,
                    "transfer_cost": s.transfer_cost,
                    "benefit": s.benefit,
                }
                for s in self.steps
            ],
        }


def action_to_dict(action) -> dict:
    if isinstance(action, Add):
        return {
            "action": "add",
            "server": action.server,
            "object": action.object_id,
            "source": action.source,
            "transfer_cost": action.transfer_cost,
        }
    return {"action": "evict", "server": action.server, "object": action.object_id}


def action_from_dict(payload: dict):
    if payload["action"] == "add":
        return Add(
            int(payload["server"]),
            int(payload["object"]),
            int(payload["source"]),
            int(payload["transfer_cost"]),
        )
    if payload["action"] == "evict":
        return Evict(int(payload["server"]), int(payload["object"]))
    raise ParameterError(f"unknown schedule action {payload['action']!r}")


def replay_schedule(x_old, schedule) -> np.ndarray:
    """Re-apply a schedule to a placement; raises if any step is inconsistent."""
    from .errors import StructuralError

    x = np.array(x_old, dtype=np.int8)
    for action in schedule:
        if isinstance(action, Add):
            if x[action.source, action.object_id] != 1:
                raise StructuralError(
                    f"add of object {action.object_id} sources from non-replicator "
                    f"{action.source}"
                )
            if x[action.server, action.object_id] != 0:
                raise StructuralError(
                    f"object {action.object_id} already on server {action.server}"
                )
            x[action.server, action.object_id] = 1
        elif isinstance(action, Evict):
            if x[action.server, action.object_id] != 1:
                raise StructuralError(
                    f"evicting object {action.object_id} absent from server {action.server}"
                )
            x[action.server, action.object_id] = 0
        else:
            raise ParameterError(f"unknown schedule action {action!r}")
    return x


def _delta(state: PlacementState, cols: slice) -> np.ndarray:
    """Access-cost saving of adding each object in ``cols`` to each server.

    Every server keeps its current nearest replicator unless the target
    server is cheaper; the result is the traffic-weighted sum of those
    per-server savings, an M x len(cols) int64 matrix.
    """
    gain = state.d[:, cols][:, None, :] - state.l[:, :, None]
    np.maximum(gain, 0, out=gain)  # in place: one M x M x len(cols) temporary
    return np.einsum("jic,jc->ic", gain, state.traffic[:, cols])


@dataclass
class _Plan:
    server: int
    object_id: int
    gain: int           # access saving of the add alone
    transfer_cost: int
    damage: int         # access-cost increase from planned evictions
    evictions: tuple
    benefit: float      # realized score; int under availability-blind scoring


class _GreedyEngine:
    def __init__(self, state: PlacementState, config: SolverConfig,
                 on_commit=None, on_mutation=None):
        self.st = state.copy()
        self.cfg = config
        self.use_factor = config.algorithm in ("aagg", "aagro")
        self.avail = 1.0 - self.st.servers.failure_probs
        self.tol = costs.AVAILABILITY_TOL
        self.cap_val = config.max_replicas_per_object or self.st.num_servers
        self.on_commit = on_commit
        self.on_mutation = on_mutation
        m, n = self.st.x.shape
        self.delta = np.empty((m, n), dtype=np.int64)
        for s in range(0, n, 128):  # column chunks bound the M x M x 128 temporary
            self.delta[:, s:s + 128] = _delta(self.st, slice(s, s + 128))
        self.c = costs.total_access_cost(self.st.x, self.st.n, self.st.traffic,
                                         self.st.l).total
        self.c_old = self.c
        self.schedule: list = []
        self.steps: list = []
        self.impl_total = 0
        self.benefit_total = 0
        self.iterations = 0
        self._evict_cache: dict[int, list] = {}

    # -- sweeping ---------------------------------------------------------

    def _sweep(self, cs: slice):
        """Score every candidate in the column window; return the best plan.

        Candidates that fit without evictions all realize exactly their
        pre-score, so the best of them falls out of one vectorized argmax
        and only that winner is planned; eviction-needing candidates are
        planned individually in descending upper-bound order with early
        cutoff.
        """
        st = self.st
        start = cs.start
        xs = st.x[:, cs]
        ds = st.d[:, cs]
        sz = st.objects.sizes[cs]
        raw = self.delta[:, cs] - sz[None, :] * ds
        eligible = (xs == 0) & (raw > 0) & (st.replica_counts[cs] < self.cap_val)[None, :]
        if self.use_factor and self.cfg.availability_semantics == "literal":
            # Literal availability shrinks with every added replica, so the
            # admission check can veto candidates outright; vectorized here.
            prods = np.where(xs == 1, self.avail[:, None], 1.0).prod(axis=0)
            eligible &= prods[None, :] * self.avail[:, None] >= prods[None, :] - self.tol
        if not eligible.any():
            return None
        space = st.free[:, None] >= sz[None, :]

        values = raw * self.avail[:, None] if self.use_factor else raw
        masked = np.where(eligible & space, values, 0)
        best_val = 0
        best_pos = None
        best_plan = None
        if masked.max() > 0:
            i, c = divmod(int(np.argmax(masked)), masked.shape[1])
            best_plan = self._plan_with_evictions(i, start + c)
            best_val, best_pos = best_plan.benefit, (i, start + c)

        needing = eligible & ~space
        if needing.any():
            icol, ccol = np.nonzero(needing)
            uppers = raw[icol, ccol] * self.avail[icol] if self.use_factor \
                else raw[icol, ccol]
            order = np.lexsort((ccol, icol, -uppers))
            for t in order:
                if uppers[t] < best_val:
                    break  # sorted descending: nothing later can win
                plan = self._plan_with_evictions(int(icol[t]), start + int(ccol[t]))
                if plan is None:
                    continue
                pos = (plan.server, plan.object_id)
                if plan.benefit > best_val or (
                    plan.benefit == best_val and best_pos is not None and pos < best_pos
                ):
                    best_val, best_pos, best_plan = plan.benefit, pos, plan
        return best_plan

    def _plan_with_evictions(self, i: int, k: int):
        """Score flip (i, k), evicting least-damaging replicas only if i lacks space.

        Returns None when evictions cannot free enough space or, under the
        ``all_changed_objects`` scope, would lower an evictee's availability.
        """
        st = self.st
        sizes = st.objects.sizes
        needed = int(sizes[k]) - int(st.free[i])
        freed = 0
        damage = 0
        taken = []
        for dmg, kk, sz in (self._evictable(i) if needed > 0 else ()):
            if freed >= needed:
                break
            taken.append(kk)
            damage += dmg
            freed += sz
        if freed < needed:
            return None
        if self.use_factor and self.cfg.availability_scope == "all_changed_objects":
            for kk in taken:
                if not self._eviction_keeps_availability(i, kk):
                    return None
        gain = int(self.delta[i, k])
        tcost = int(sizes[k]) * int(st.d[i, k])
        net = gain - damage - tcost
        val = net * float(self.avail[i]) if self.use_factor else net
        return _Plan(i, k, gain, tcost, damage, tuple(taken), val)

    def _evictable(self, i: int) -> list:
        """Non-primary replicas on server i, cheapest-to-lose first."""
        cached = self._evict_cache.get(i)
        if cached is None:
            st = self.st
            cached = []
            for kk in np.flatnonzero(st.x[i]):
                kk = int(kk)
                if int(st.objects.primaries[kk]) == i:
                    continue
                cached.append((self._removal_damage(i, kk), kk, int(st.objects.sizes[kk])))
            cached.sort()
            self._evict_cache[i] = cached
        return cached

    def _removal_damage(self, i: int, kk: int) -> int:
        """Access-cost increase if replica (i, kk) were dropped right now."""
        st = self.st
        reps = np.flatnonzero(st.x[:, kk])
        reps = reps[reps != i]
        affected = np.flatnonzero(st.n[:, kk] == i)
        if affected.size == 0:
            return 0
        rerouted = st.l[affected[:, None], reps[None, :]].min(axis=1)
        return int(((rerouted - st.d[affected, kk]) * st.traffic[affected, kk]).sum())

    def _update_evictables(self, i: int, k: int, evictions: tuple) -> None:
        """Re-score only cache entries whose columns a commit touched.

        Removal damage depends solely on its own column's placement and
        nearest index, so entries for untouched columns stay valid; the
        committing server additionally gains an entry for the new replica
        and loses the evicted ones.
        """
        st = self.st
        touched = {k, *evictions}
        for j, entries in self._evict_cache.items():
            if not any(kk in touched for _, kk, _ in entries) and j != i:
                continue
            fresh = [
                (self._removal_damage(j, kk), kk, szv) if kk in touched else (dmg, kk, szv)
                for dmg, kk, szv in entries
                if st.x[j, kk]
            ]
            if j == i and int(st.objects.primaries[k]) != i:
                fresh.append((self._removal_damage(i, k), k, int(st.objects.sizes[k])))
            fresh.sort()
            self._evict_cache[j] = fresh

    def _eviction_keeps_availability(self, i: int, kk: int) -> bool:
        st = self.st
        reps = np.flatnonzero(st.x[:, kk])
        sem = self.cfg.availability_semantics
        before = costs.replicator_availability(st.servers.failure_probs, reps, sem)
        after = costs.replicator_availability(
            st.servers.failure_probs, reps[reps != i], sem
        )
        return after >= before - self.tol

    # -- committing -------------------------------------------------------

    def _commit(self, plan: _Plan) -> None:
        st = self.st
        i, k = plan.server, plan.object_id
        c_before = self.c
        for kk in plan.evictions:
            st.remove_replica(i, kk)
            self._refresh_delta_col(kk)
            self.schedule.append(Evict(i, kk))
            if self.on_mutation:
                self.on_mutation(st)
        if self.use_factor:
            avail_before = costs.replicator_availability(
                st.servers.failure_probs, st.replicators(k), self.cfg.availability_semantics
            )
        source = int(st.n[i, k])
        tcost = int(st.objects.sizes[k]) * int(st.d[i, k])
        if tcost != plan.transfer_cost:
            raise RuntimeError("planned transfer cost diverged from state")
        st.add_replica(i, k)
        self._refresh_delta_col(k)
        self.schedule.append(Add(i, k, source, tcost))
        if self.on_mutation:
            self.on_mutation(st)
        if self.use_factor:
            avail_after = costs.replicator_availability(
                st.servers.failure_probs, st.replicators(k), self.cfg.availability_semantics
            )
            if avail_after < avail_before - self.tol:
                raise RuntimeError("focal object availability regressed on commit")
        bad = validate_placement(st.x, st.servers, st.objects)
        if bad:
            raise RuntimeError(f"commit produced an invalid placement: {bad[0].detail}")
        c_after = c_before - (plan.gain - plan.damage)
        step = StepStat(i, k, c_before, c_after, tcost, plan.benefit)
        self.steps.append(step)
        self.c = c_after
        self.impl_total += tcost
        self.benefit_total = self.benefit_total + plan.benefit
        self._update_evictables(i, k, plan.evictions)
        if self.on_commit:
            self.on_commit(st, step)

    def _refresh_delta_col(self, k: int) -> None:
        self.delta[:, k:k + 1] = _delta(self.st, slice(k, k + 1))

    # -- drivers ----------------------------------------------------------

    def run_global(self) -> None:
        n = self.st.num_objects
        if n == 0:
            return
        full = slice(0, n)
        while True:
            self.iterations += 1
            plan = self._sweep(full)
            if plan is None:
                break
            self._commit(plan)

    def run_random_object(self) -> None:
        order = list(range(self.st.num_objects))
        random.Random(self.cfg.seed).shuffle(order)
        for k in order:
            while True:
                self.iterations += 1
                plan = self._sweep(slice(k, k + 1))
                if plan is None:
                    break
                self._commit(plan)

    def result(self) -> PlacementResult:
        st = self.st
        ground_truth = costs.total_access_cost(st.x, st.n, st.traffic, st.l).total
        if ground_truth != self.c:
            raise RuntimeError("incrementally tracked cost drifted from ground truth")
        return PlacementResult(
            x_new=st.x.copy(),
            schedule=tuple(self.schedule),
            steps=tuple(self.steps),
            c_old=self.c_old,
            c_new=self.c,
            impl_cost_total=self.impl_total,
            benefit_total=self.benefit_total,
            iterations=self.iterations,
        )


def solve(state: PlacementState, config: SolverConfig,
          on_commit: Callable | None = None,
          on_mutation: Callable | None = None) -> PlacementResult:
    """Run the configured planner on a copy of ``state``.

    ``on_mutation(state)`` fires after every replica add/drop and
    ``on_commit(state, step)`` after every committed flip; both observe the
    engine's working state and must not mutate it.
    """
    engine = _GreedyEngine(state, config, on_commit=on_commit, on_mutation=on_mutation)
    if config.algorithm in ("aagg", "gg"):
        engine.run_global()
    else:
        engine.run_random_object()
    return engine.result()

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
cannot free enough space is skipped.  A replica's damage is the cost of
rerouting the servers it serves to their next-cheapest replicator; one
vectorized pass per server prices all its replicas, kept sorted by (damage,
object) with prefix sums of sizes and damages, so one binary search scores
every eviction-needing candidate on it.  Ties keep the lowest (server, object).

Scores are kept exact and incremental.  The engine caches the score matrix
of the column window it sweeps.  A commit on server i that adds object k and
evicts some objects dirties the columns of k and the evictees and the rows of
i and of every holder of those columns; the next sweep of the window scores
only those rows and columns again.  An eviction-needing candidate first
holds its eviction-free score, an upper bound, and is scored exactly only
when that bound reaches the top of the matrix.

The engine is the only implementation of flip scoring: the access saving
``delta`` of every candidate add comes from one per-column kernel,
:func:`_delta`, ``delta[:, k] = traffic[:, k] @ max(d[:, k, None] - l, 0)``,
run over every column at set-up and over a commit's touched columns by
``_invalidate``.  Every score comes from one block kernel, ``_score``, plus
``_resolve`` for eviction damage, and the winner's plan, with or without
evictions, from the same per-server prefix sums in ``_plan``.  :func:`solve`
is the one entry point.  Availability-weighted scores are floats, so
instances whose scores could reach 2**53 are refused.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import costs
from .errors import ParameterError, StructuralError
from .model import PlacementState, _check_headroom, validate_placement

ALGORITHMS = ("aagg", "aagro", "gg", "gro")
SCOPES = ("focal_object", "all_changed_objects")
FLOAT_EXACT_LIMIT = 2**53


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


def _delta(state: PlacementState, cols) -> np.ndarray:
    """Access-cost saving of adding each object in ``cols`` to each server.

    ``cols`` is a slice or an index array.  Every server keeps its current
    nearest replicator unless the target server is cheaper, so column k of
    the M x len(cols) int64 result is
    ``traffic[:, k] @ max(d[:, k, None] - l, 0)``: one M x M gain matrix at
    a time, summed exactly in int64 under the model's headroom check.
    """
    d, traffic = state.d[:, cols], state.traffic[:, cols]
    out = np.empty(d.shape, dtype=np.int64)
    for c in range(d.shape[1]):
        out[:, c] = traffic[:, c] @ np.maximum(d[:, c, None] - state.l, 0)
    return out


@dataclass
class _Plan:
    server: int
    object_id: int
    gain: int           # access saving of the add alone
    transfer_cost: int
    damage: int         # access-cost increase from planned evictions
    evictions: tuple
    benefit: float      # realized score; int under availability-blind scoring


class _Evictables(NamedTuple):
    """One server's evictable (non-primary) replicas, sorted by (damage, object).

    ``cum_damage`` and ``blocked`` carry one sentinel past the end (0 and
    True), so a search that runs off ``cum_size`` lands on "cannot free
    enough space".
    """

    objects: np.ndarray     # int64 object ids
    damages: np.ndarray     # int64 access-cost increase of each eviction alone
    lowers: np.ndarray      # bool: eviction lowers the evictee's availability
    cum_size: np.ndarray    # bytes freed by evicting entries [0..t]
    cum_damage: np.ndarray  # damage of evicting entries [0..t]
    blocked: np.ndarray     # any of lowers[0..t] (guarded scope only)


class _GreedyEngine:
    def __init__(self, state: PlacementState, config: SolverConfig,
                 on_commit=None, on_mutation=None):
        self.st = state.copy()
        self.cfg = config
        self.use_factor = config.algorithm in ("aagg", "aagro")
        if self.use_factor:  # weighted scores are floats, exact only below 2**53
            _check_headroom(self.st.l, self.st.objects.sizes, self.st.traffic,
                            FLOAT_EXACT_LIMIT)
        self.guard_evictees = (self.use_factor
                               and config.availability_scope == "all_changed_objects")
        self.avail = 1.0 - self.st.servers.failure_probs
        self.tol = costs.AVAILABILITY_TOL
        self.cap_val = config.max_replicas_per_object or self.st.servers.count
        self.on_commit = on_commit
        self.on_mutation = on_mutation
        self.delta = _delta(self.st, slice(None))
        self.c = costs.total_access_cost(self.st.x, self.st.n, self.st.traffic,
                                         self.st.l).total
        self.c_old = self.c
        self.schedule: list = []
        self.steps: list = []
        self.iterations = 0
        self._evict_cache: dict[int, _Evictables] = {}
        # Scores of the last swept column window, kept across commits.
        self._window: slice | None = None
        self._scores: np.ndarray | None = None   # M x W; an upper bound where pending
        self._pending: np.ndarray | None = None  # bool M x W: eviction damage not yet scored
        self._dirty_rows: set[int] = set()
        self._dirty_cols: set[int] = set()       # object ids, inside the window or not

    # -- sweeping ---------------------------------------------------------

    def _sweep(self, cs: slice):
        """Return the best plan of the column window ``cs``, or None if none is positive.

        The window's M x len(cs) score matrix is kept across commits.  A new
        window is scored whole; on the same window only the rows and columns
        a commit made dirty are scored again (see ``_invalidate``).  A
        candidate that fits holds its exact score: its net saving ``raw``
        (access saving minus transfer bytes), times ``avail[i]`` under
        availability weighting.  A candidate that needs space holds its
        eviction-free value as an upper bound and is marked pending: eviction
        damage is never negative, and a blocked candidate scores 0.

        The first argmax of the matrix wins.  While it is pending, all of its
        server's pending candidates are resolved exactly (``_resolve``) and
        the argmax is taken again.  Bounds never fall below exact scores, so
        a non-pending argmax is also the first argmax of the exact scores:
        ties keep the lowest (server, object).  It is planned only if its
        score is positive.
        """
        if cs != self._window:
            self._window = cs
            self._scores, self._pending = self._score(slice(None), cs)
        else:
            cols = [k - cs.start for k in self._dirty_cols if cs.start <= k < cs.stop]
            if cols:
                block = self._score(slice(None), np.array(cols) + cs.start)
                self._scores[:, cols], self._pending[:, cols] = block
            if self._dirty_rows and len(cols) < cs.stop - cs.start:  # else all rescored
                rows = list(self._dirty_rows)
                self._scores[rows], self._pending[rows] = self._score(rows, cs)
        self._dirty_rows.clear()
        self._dirty_cols.clear()
        scores = self._scores
        while True:
            i, c = divmod(int(np.argmax(scores)), scores.shape[1])
            if not self._pending[i, c]:
                break
            self._resolve(i)
        if scores[i, c] <= 0:
            return None
        plan = self._plan(i, cs.start + c)
        if plan.benefit != scores[i, c]:
            raise RuntimeError("winning plan diverged from its score")
        return plan

    def _score(self, rows, cols) -> tuple[np.ndarray, np.ndarray]:
        """Scores and pending mask of the block ``rows`` x ``cols``.

        One of the two is a slice and the other a slice or an index list.
        Ineligible candidates (held, at the replica cap, not saving anything,
        or vetoed by literal availability) score 0.
        """
        st = self.st
        sz = st.objects.sizes[cols]
        raw = self.delta[rows, cols] - sz * st.d[rows, cols]
        eligible = (st.x[rows, cols] == 0) & (raw > 0) & (st.replica_counts[cols] < self.cap_val)
        if self.use_factor and self.cfg.availability_semantics == "literal":
            # Literal availability shrinks with every added replica, so the
            # admission check can veto candidates outright.
            prods = costs._availability(st.x[:, cols] == 1, st.servers.failure_probs, "literal")
            eligible &= prods * self.avail[rows, None] >= prods - self.tol
        if not eligible.any():  # common in one-column windows late in a run
            return np.zeros(raw.shape, float if self.use_factor else raw.dtype), eligible
        values = raw * self.avail[rows, None] if self.use_factor else raw
        return np.where(eligible, values, 0), eligible & (st.free[rows, None] < sz)

    def _resolve(self, i: int) -> None:
        """Replace server i's pending bounds in the window by exact scores.

        Each candidate evicts the shortest prefix of i's evictable replicas
        (sorted by (damage, object)) whose sizes cover the shortfall: a
        binary search on the prefix sums of sizes finds it, the prefix sum of
        damages is its damage, and the score is ``raw - damage``, weighted
        like the rest.  It scores 0 when no prefix frees enough space or,
        under the ``all_changed_objects`` scope, when an evictee in the
        prefix would lose availability.
        """
        st = self.st
        local = np.flatnonzero(self._pending[i])
        ks = self._window.start + local
        sz = st.objects.sizes[ks]
        ev = self._evictable(i)
        t = np.searchsorted(ev.cum_size, sz - st.free[i])
        net = self.delta[i, ks] - sz * st.d[i, ks] - ev.cum_damage[t]
        if self.use_factor:
            net = net * self.avail[i]
        self._scores[i, local] = np.where(ev.blocked[t], 0, net)
        self._pending[i, local] = False

    def _plan(self, i: int, k: int) -> _Plan:
        """Plan flip (i, k), evicting the prefix ``_sweep`` scored if i lacks space."""
        st = self.st
        size = int(st.objects.sizes[k])
        needed = size - int(st.free[i])
        taken, damage = (), 0
        if needed > 0:
            ev = self._evictable(i)
            t = int(np.searchsorted(ev.cum_size, needed))
            taken = tuple(int(kk) for kk in ev.objects[:t + 1])
            damage = int(ev.cum_damage[t])
        gain = int(self.delta[i, k])
        tcost = size * int(st.d[i, k])
        net = gain - damage - tcost
        val = net * float(self.avail[i]) if self.use_factor else net
        return _Plan(i, k, gain, tcost, damage, taken, val)

    def _evictable(self, i: int) -> _Evictables:
        """Server i's evictable replicas with their prefix sums, built on first use."""
        cached = self._evict_cache.get(i)
        if cached is None:
            objs = np.flatnonzero(self.st.x[i])
            cached = self._evictables(*self._entries(i, objs))
            self._evict_cache[i] = cached
        return cached

    def _entries(self, i: int, objs: np.ndarray) -> tuple:
        """(objects, damages, lowers) of the non-primary replicas among ``objs`` on i.

        The damage of (i, k) is ``sum_j [n[j,k] == i] * (r[j,k] - d[j,k]) * traffic[j,k]``,
        with r[j,k] j's cost to its cheapest replicator of k other than i (second-nearest,
        ties counted twice): one ``reduceat`` over the other replicators' columns, none
        empty as the primary stays.  ``lowers`` compares availability without and with row i.
        """
        st = self.st
        objs = objs[(st.x[i, objs] == 1) & (st.objects.primaries[objs] != i)]
        others = st.x[:, objs] == 1
        others[i] = False
        col, rep = np.nonzero(others.T)  # grouped by column, servers ascending
        r = np.minimum.reduceat(st.l[:, rep], np.searchsorted(col, np.arange(objs.size)), axis=1)
        extra = (r - st.d[:, objs]) * st.traffic[:, objs]
        damages = np.where(st.n[:, objs] == i, extra, 0).sum(axis=0)
        lowers = np.zeros(objs.size, dtype=bool)
        if self.guard_evictees:
            both = np.hstack((others, st.x[:, objs] == 1))  # without row i, then with it
            after, before = np.split(costs._availability(
                both, st.servers.failure_probs, self.cfg.availability_semantics), 2)
            lowers = after < before - self.tol
        return objs, damages, lowers

    def _evictables(self, objs, damages, lowers) -> _Evictables:
        """Sort entries by (damage, object) and take their prefix sums."""
        order = np.lexsort((objs, damages))
        objs, damages, lowers = objs[order], damages[order], lowers[order]
        return _Evictables(
            objects=objs,
            damages=damages,
            lowers=lowers,
            cum_size=np.cumsum(self.st.objects.sizes[objs]),
            cum_damage=np.append(np.cumsum(damages), 0),
            blocked=np.append(np.logical_or.accumulate(lowers), True),
        )

    def _invalidate(self, i: int, touched: np.ndarray) -> None:
        """Bring the caches up to date after a commit on server i.

        ``touched`` holds the added object and the evicted ones.  Their
        columns' nearest index, placement and replica counts changed, so
        their ``delta`` columns are recomputed here, once all of the commit's
        mutations are done, and their scores are dirty.  An evictable entry's
        damage and availability flag depend only on its own column, so only
        the servers holding a touched column, plus ``i`` (whose free space
        changed), have cached entries and row scores to redo.
        """
        st = self.st
        self.delta[:, touched] = _delta(st, touched)
        rows = {i, *np.flatnonzero(st.x[:, touched].any(axis=1)).tolist()}
        for j in rows:
            ev = self._evict_cache.get(j)
            if ev is None:
                continue
            keep = ~np.isin(ev.objects, touched)
            objs, damages, lowers = self._entries(j, touched)
            self._evict_cache[j] = self._evictables(
                np.concatenate((ev.objects[keep], objs)),
                np.concatenate((ev.damages[keep], damages)),
                np.concatenate((ev.lowers[keep], lowers)),
            )
        self._dirty_rows |= rows
        self._dirty_cols.update(touched.tolist())

    # -- committing -------------------------------------------------------

    def _commit(self, plan: _Plan) -> None:
        st = self.st
        i, k = plan.server, plan.object_id
        c_before = self.c
        for kk in plan.evictions:
            st.remove_replica(i, kk)
            self.schedule.append(Evict(i, kk))
            if self.on_mutation:
                self.on_mutation(st)
        source = int(st.n[i, k])
        tcost = int(st.objects.sizes[k]) * int(st.d[i, k])
        if tcost != plan.transfer_cost:
            raise RuntimeError("planned transfer cost diverged from state")
        st.add_replica(i, k)
        self.schedule.append(Add(i, k, source, tcost))
        if self.on_mutation:
            self.on_mutation(st)
        if self.use_factor:
            held = np.repeat(st.x[:, [k]] == 1, 2, axis=1)  # the focal column after, then before
            held[i, 1] = False
            after, before = costs._availability(held, st.servers.failure_probs,
                                                self.cfg.availability_semantics)
            if after < before - self.tol:
                raise RuntimeError("focal object availability regressed on commit")
        bad = validate_placement(st.x, st.servers, st.objects)
        if bad:
            raise RuntimeError(f"commit produced an invalid placement: {bad[0].detail}")
        c_after = c_before - (plan.gain - plan.damage)
        step = StepStat(i, k, c_before, c_after, tcost, plan.benefit)
        self.steps.append(step)
        self.c = c_after
        self._invalidate(i, np.array([k, *plan.evictions], dtype=np.int64))
        if self.on_commit:
            self.on_commit(st, step)

    # -- drivers ----------------------------------------------------------

    def run(self) -> None:
        """Commit each column window's best flip until none is positive.

        The global planners use one window holding every object, the
        random-order planners one window per object, in seeded order.
        """
        n = self.st.objects.count
        if self.cfg.algorithm in ("aagg", "gg"):
            windows = [slice(0, n)] if n else []
        else:
            order = list(range(n))
            random.Random(self.cfg.seed).shuffle(order)
            windows = [slice(k, k + 1) for k in order]
        for window in windows:
            while True:
                self.iterations += 1
                plan = self._sweep(window)
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
            impl_cost_total=sum(s.transfer_cost for s in self.steps),
            # Left to right from 0: builtin sum compensates float sums from Python 3.12.
            benefit_total=functools.reduce(operator.add, (s.benefit for s in self.steps), 0),
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
    engine.run()
    return engine.result()

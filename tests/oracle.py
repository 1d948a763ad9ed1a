"""Brute-force reference implementations used only by the test suite.

Everything here recomputes from first principles -- no incremental indexes,
no vectorized deltas -- so agreement with the package is meaningful.  The
greedy reference mirrors the planners' decision rules (ascending scans,
strict-inequality winner selection, least-damaging evictions) while computing
every quantity by full re-enumeration.
"""

from __future__ import annotations

import heapq
import math
import random

import numpy as np


def dijkstra_matrix(node_count: int, edges) -> np.ndarray:
    """Per-source Dijkstra all-pairs distances; independent of the package's sweep."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(node_count)]
    for u, v, cost in edges:
        adj[u].append((v, cost))
        adj[v].append((u, cost))
    out = np.zeros((node_count, node_count), dtype=np.int64)
    for src in range(node_count):
        dist = [None] * node_count
        heap = [(0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if dist[u] is not None:
                continue
            dist[u] = d
            for v, cost in adj[u]:
                if dist[v] is None:
                    heapq.heappush(heap, (d + cost, v))
        if any(d is None for d in dist):
            raise ValueError("disconnected graph")
        out[src] = dist
    return out


def brute_nearest(x, l, i: int, k: int) -> int:
    best, best_id = None, None
    for j in range(len(x)):
        if x[j][k]:
            if best is None or l[i][j] < best:
                best, best_id = l[i][j], j
    return best_id


def brute_object_cost(k, x, r, l) -> int:
    m = len(x)
    reps = [j for j in range(m) if x[j][k]]
    return sum(min(l[i][j] for j in reps) * r[i][k] for i in range(m))


def brute_total_cost(x, r, l) -> int:
    n = len(x[0]) if len(x) else 0
    return sum(brute_object_cost(k, x, r, l) for k in range(n))


def brute_availability(reps, f, semantics: str) -> float:
    if semantics == "corrected":
        return 1.0 - math.prod(float(f[i]) for i in sorted(reps))
    return math.prod(1.0 - float(f[i]) for i in sorted(reps))


TOL = 1e-12


class BruteGreedy:
    """Slow reference planner restating the documented decision rules in plain Python."""

    def __init__(self, l, capacities, f, sizes, primaries, r, x0,
                 algorithm="aagg", cap=None, scope="focal_object",
                 semantics="corrected", seed=0):
        self.l = [list(map(int, row)) for row in np.asarray(l)]
        self.capacities = list(map(int, capacities))
        self.f = list(map(float, f))
        self.sizes = list(map(int, sizes))
        self.primaries = list(map(int, primaries))
        self.r = [list(map(int, row)) for row in np.asarray(r)]
        self.x = [list(map(int, row)) for row in np.asarray(x0)]
        self.m = len(self.capacities)
        self.n = len(self.sizes)
        self.algorithm = algorithm
        self.cap = cap if cap is not None else self.m
        self.scope = scope
        self.semantics = semantics
        self.seed = seed
        self.use_factor = algorithm in ("aagg", "aagro")
        self.iterations = 0  # one per window sweep, the last one committing nothing
        self.commits: list[tuple[int, int]] = []
        self.values: list = []  # committed scores, float under weighting else int
        self.schedule: list[tuple] = []  # ("evict", i, k) / ("add", i, k, src, cost)

    # -- helpers ----------------------------------------------------------

    def _used(self, x, i):
        return sum(self.sizes[k] for k in range(self.n) if x[i][k])

    def _fits(self, x, i, k):
        return self._used(x, i) + self.sizes[k] <= self.capacities[i]

    def _replicas(self, x, k):
        return [i for i in range(self.m) if x[i][k]]

    def _avail_ok(self, reps_before, reps_after):
        before = brute_availability(reps_before, self.f, self.semantics)
        after = brute_availability(reps_after, self.f, self.semantics)
        return after >= before - TOL

    def _positive_flips(self, x, column=None):
        base = brute_total_cost(x, self.r, self.l)
        out = []
        ks = range(self.n) if column is None else [column]
        for i in range(self.m):
            for k in ks:
                if x[i][k]:
                    continue
                if sum(row[k] for row in x) >= self.cap:
                    continue
                src = brute_nearest(x, self.l, i, k)
                trial = [row[:] for row in x]
                trial[i][k] = 1
                saving = base - brute_total_cost(trial, self.r, self.l)
                net = saving - self.sizes[k] * self.l[i][src]
                pre = net * (1.0 - self.f[i]) if self.use_factor else net
                if pre > 0:
                    out.append((i, k))
        return out

    def _evaluate(self, x, i, k):
        """Score flip (i, k) against committed state x; None if inadmissible."""
        base = brute_total_cost(x, self.r, self.l)
        trial = [row[:] for row in x]
        evicted = []
        while not self._fits(trial, i, k):
            best_kk, best_score = None, None
            for kk in range(self.n):
                if trial[i][kk] and self.primaries[kk] != i:
                    probe = [row[:] for row in trial]
                    probe[i][kk] = 0
                    score = base - brute_total_cost(probe, self.r, self.l)
                    if self.use_factor:
                        score = score * (1.0 - self.f[i])
                    if best_score is None or score > best_score:
                        best_kk, best_score = kk, score
            if best_kk is None:
                break
            trial[i][best_kk] = 0
            evicted.append(best_kk)
        if not self._fits(trial, i, k):
            return None
        focal_before = self._replicas(x, k)
        src = brute_nearest(x, self.l, i, k)
        trial[i][k] = 1
        if self.use_factor:
            if not self._avail_ok(focal_before, self._replicas(trial, k)):
                return None
            if self.scope == "all_changed_objects":
                for kk in evicted:
                    if not self._avail_ok(self._replicas(x, kk), self._replicas(trial, kk)):
                        return None
        transfer = self.sizes[k] * self.l[i][src]
        saving = base - brute_total_cost(trial, self.r, self.l)
        value = saving - transfer
        if self.use_factor:
            value = value * (1.0 - self.f[i])
        return value, trial, evicted, src, transfer

    def _commit_best(self, column=None) -> bool:
        self.iterations += 1
        flips = self._positive_flips(self.x, column)
        best = 0
        chosen = None
        for i, k in flips:  # ascending (i, k): strict > keeps the first
            outcome = self._evaluate(self.x, i, k)
            if outcome is None:
                continue
            if outcome[0] > best:
                best = outcome[0]
                chosen = (i, k, outcome)
        if chosen is None:
            return False
        i, k, (value, trial, evicted, src, transfer) = chosen
        for kk in evicted:
            self.schedule.append(("evict", i, kk))
        self.schedule.append(("add", i, k, src, transfer))
        self.commits.append((i, k))
        self.values.append(value)
        self.x = trial
        return True

    def run(self):
        if self.algorithm in ("aagg", "gg"):
            windows = [None] if self.n else []
        else:
            windows = list(range(self.n))
            random.Random(self.seed).shuffle(windows)
        for column in windows:
            while self._commit_best(column):
                pass
        return self


def random_connected_graph(rng: random.Random, m: int, cost_max: int = 9):
    """Spanning tree plus a few extra edges, all with positive integer costs."""
    edges = {}
    for v in range(1, m):
        u = rng.randrange(v)
        edges[(u, v)] = rng.randint(1, cost_max)
    for _ in range(rng.randint(0, m)):
        u, v = rng.randrange(m), rng.randrange(m)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = rng.randint(1, cost_max)
    return [(u, v, c) for (u, v), c in sorted(edges.items())]


def random_instance(rng: random.Random, m_max=4, n_max=3, zero_failures=False,
                    slack_max=8, traffic_max=20, size_max=5, m_min=1):
    """Small random instance; returns plain-python pieces for oracle use."""
    m = rng.randint(m_min, m_max)
    n = rng.randint(1, n_max)
    edges = random_connected_graph(rng, m)
    l = dijkstra_matrix(m, edges)
    sizes = [rng.randint(1, size_max) for _ in range(n)]
    primaries = [rng.randrange(m) for _ in range(n)]
    loads = [sum(sizes[k] for k in range(n) if primaries[k] == i) for i in range(m)]
    capacities = [max(loads[i], 1) + rng.randint(0, slack_max) for i in range(m)]
    traffic = [
        [0 if rng.random() < 0.3 else rng.randint(0, traffic_max) for _ in range(n)]
        for _ in range(m)
    ]
    if zero_failures:
        f = [0.0] * m
    else:
        f = [round(rng.uniform(0.0, 0.6), 3) for _ in range(m)]
    return l, capacities, f, sizes, primaries, traffic

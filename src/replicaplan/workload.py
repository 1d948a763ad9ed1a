"""Workload synthesis: object catalogs, traffic matrices, server availability.

Traffic is a matrix of total bytes each server requests per object.  The
``zipf`` model makes object popularity follow rank^(-skew) under a seeded
rank-to-object permutation and splits each object's volume evenly across
servers; ``uniform`` spreads the total evenly over all cells.  Integer volumes
are apportioned exactly (largest-remainder), so matrix totals match the
requested volume to the byte.

Server failure probabilities come either from a synthetic distribution or
from an interval trace: a CSV of per-node up/down intervals.  A node's
observation horizon spans its first record start to its last record end;
time inside the horizon not covered by a ``down`` record counts as up.
"""

from __future__ import annotations

import csv
import math
import numbers
import random
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TraceError
from .model import INT64_LIMIT, ObjectCatalog
from .topology import _whole


# Highest failure probability a trace estimate may take.
_F_MAX = 0.99


@dataclass(frozen=True)
class TrafficModel:
    """How request volume is spread over objects and servers."""

    kind: str = "zipf"
    zipf_skew: float = 0.8
    total_volume: int = 50_000_000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("uniform", "zipf"):
            raise ParameterError(f"unknown traffic kind {self.kind!r}")
        skew = self.zipf_skew
        if (isinstance(skew, bool) or not isinstance(skew, numbers.Real)
                or not (math.isfinite(skew) and skew >= 0)):
            raise ParameterError(f"zipf skew must be a finite number >= 0, got {skew!r}")
        object.__setattr__(self, "total_volume", _whole(self.total_volume, "total volume"))
        if not 0 < self.total_volume < INT64_LIMIT:
            raise ParameterError("total volume must be positive and below 2**63")


@dataclass(frozen=True)
class TraceRecord:
    node: int
    start: float
    end: float
    state: str


@dataclass(frozen=True)
class FailureTrace:
    """Validated interval records plus each node's observation horizon."""

    records: tuple[TraceRecord, ...]
    horizons: dict[int, tuple[float, float]]

    @property
    def nodes(self) -> list[int]:
        return sorted(self.horizons)


def generate_object_catalog(n_objects: int, size_lo: int, size_hi: int,
                            n_servers: int, seed: int) -> ObjectCatalog:
    """Draw object sizes uniformly from [lo, hi] and primaries uniformly over servers."""
    n_objects, n_servers = _whole(n_objects, "object count"), _whole(n_servers, "server count")
    size_lo, size_hi = _whole(size_lo, "size_lo"), _whole(size_hi, "size_hi")
    if n_objects < 1:
        raise ParameterError("need at least one object")
    if size_lo <= 0 or size_lo > size_hi:
        raise ParameterError(f"size range must satisfy 0 < lo <= hi, got [{size_lo}, {size_hi}]")
    if n_servers < 1:
        raise ParameterError("need at least one server")
    rng = random.Random(seed)
    sizes = [rng.randint(size_lo, size_hi) for _ in range(n_objects)]
    primaries = [rng.randrange(n_servers) for _ in range(n_objects)]
    return ObjectCatalog(sizes, primaries)


def _apportion(total: int, weights) -> np.ndarray:
    """Split ``total`` into integer shares proportional to ``weights``, summing exactly."""
    weights = np.asarray(weights, dtype=np.float64)
    wsum = weights.sum()
    if total == 0 or wsum == 0:
        return np.zeros(len(weights), dtype=np.int64)
    quota = total * (weights / wsum)
    floors = [math.floor(q) for q in quota.tolist()]  # exact ints: no int64 cast to wrap
    leftover = total - sum(floors)
    if not 0 <= leftover <= len(floors):  # float quotas are inexact above 2**53
        raise ParameterError(f"volume {total} is too large to split exactly over "
                             f"{len(floors)} weights")
    shares = np.array(floors, dtype=np.int64)
    if leftover:
        frac = quota - shares
        # Stable sort: ties go to the lower index, keeping output seed-free here.
        order = np.argsort(-frac, kind="stable")
        shares[order[:leftover]] += 1
    return shares


def generate_traffic(model: TrafficModel, n_servers: int, n_objects: int) -> np.ndarray:
    """Build the request matrix for ``model``.

    Volume is split by popularity alone, not by object size, so column shares
    stay exactly Zipf.
    """
    n_servers, n_objects = _whole(n_servers, "server count"), _whole(n_objects, "object count")
    if n_servers < 1 or n_objects < 1:
        raise ParameterError("traffic needs at least one server and one object")
    rng = random.Random(model.seed)
    r = np.zeros((n_servers, n_objects), dtype=np.int64)
    if model.kind == "uniform":
        cells = n_servers * n_objects
        base, rem = divmod(model.total_volume, cells)
        r += base
        for idx in rng.sample(range(cells), rem):
            r.flat[idx] += 1
        return r
    # zipf: rank weights, seeded rank->object permutation, even server split.
    weights = np.arange(1, n_objects + 1, dtype=np.float64) ** (-model.zipf_skew)
    by_rank = _apportion(model.total_volume, weights)
    perm = list(range(n_objects))
    rng.shuffle(perm)
    for rank, k in enumerate(perm):
        volume = int(by_rank[rank])
        base, rem = divmod(volume, n_servers)
        r[:, k] += base
        if rem:
            for i in rng.sample(range(n_servers), rem):
                r[i, k] += 1
    return r


def load_failure_trace(path) -> FailureTrace:
    """Parse and validate an interval trace CSV (header: node_id,start,end,state)."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["node_id", "start", "end", "state"]:
            raise TraceError(f"{path}: expected header 'node_id,start,end,state'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise TraceError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                node = int(row[0])
                start = float(row[1])
                end = float(row[2])
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: {exc}") from exc
            state = row[3].strip().lower()
            if state not in ("up", "down"):
                raise TraceError(f"{path}:{lineno}: state must be 'up' or 'down', got {row[3]!r}")
            if node < 0:
                raise TraceError(f"{path}:{lineno}: negative node id {node}")
            if not (math.isfinite(start) and math.isfinite(end)):
                raise TraceError(f"{path}:{lineno}: interval times must be finite, "
                                 f"got start {start} and end {end}")
            if end <= start:
                raise TraceError(f"{path}:{lineno}: interval end {end} <= start {start}")
            records.append(TraceRecord(node, start, end, state))
    horizons: dict[int, tuple[float, float]] = {}
    by_node: dict[int, list[TraceRecord]] = {}
    for rec in records:
        by_node.setdefault(rec.node, []).append(rec)
    for node, recs in by_node.items():
        recs.sort(key=lambda rec: rec.start)
        for prev, cur in zip(recs, recs[1:]):
            if cur.start < prev.end:
                raise TraceError(
                    f"{path}: node {node} has overlapping intervals "
                    f"[{prev.start}, {prev.end}) and [{cur.start}, {cur.end})"
                )
        horizons[node] = (recs[0].start, recs[-1].end)
    return FailureTrace(records=tuple(records), horizons=horizons)


def _failure_shares(trace: FailureTrace) -> dict[int, float]:
    """Each traced node's downtime share of its horizon, clamped to [0, 0.99].

    The clamp keeps a permanently dead node from zeroing out every
    availability product it joins.
    """
    downtime: dict[int, float] = {}
    for rec in trace.records:
        if rec.state == "down":
            downtime[rec.node] = downtime.get(rec.node, 0.0) + (rec.end - rec.start)
    return {node: min(max(downtime.get(node, 0.0) / (t1 - t0), 0.0), _F_MAX)
            for node, (t0, t1) in trace.horizons.items()}


def trace_availability_for_servers(trace: FailureTrace, n_servers: int) -> np.ndarray:
    """Fold a trace of arbitrary node ids onto ``n_servers`` servers.

    Node ids map to servers modulo the server count; when several nodes land
    on one server their estimates are averaged.  Servers with no mapped node
    get failure probability 0.  No array is sized by the node ids, so a huge
    id costs nothing.
    """
    n_servers = _whole(n_servers, "server count")
    if n_servers < 1:
        raise ParameterError("need at least one server")
    shares = _failure_shares(trace)
    f = np.zeros(n_servers, dtype=np.float64)
    hits = np.zeros(n_servers, dtype=np.int64)
    for node in trace.nodes:
        f[node % n_servers] += shares[node]
        hits[node % n_servers] += 1
    nonzero = hits > 0
    f[nonzero] /= hits[nonzero]
    return f


def synthetic_availability(n_servers: int, spec: str, seed: int) -> np.ndarray:
    """Draw per-server failure probabilities from 'constant:F' or 'uniform:LO:HI'."""
    n_servers = _whole(n_servers, "server count")
    if n_servers < 1:
        raise ParameterError("need at least one server")
    if not isinstance(spec, str):
        raise ParameterError(f"availability spec must be a string, got {spec!r}")
    kind, *bounds = spec.split(":")
    if (kind, len(bounds)) not in (("constant", 1), ("uniform", 2)):
        raise ParameterError(
            f"availability spec must be 'constant:F' or 'uniform:LO:HI', got {spec!r}"
        )
    try:
        lo, hi = float(bounds[0]), float(bounds[-1])
    except ValueError as exc:
        raise ParameterError(f"malformed availability spec {spec!r}: {exc}") from exc
    if not (0.0 <= lo <= hi < 1.0):
        raise ParameterError(f"availability spec bounds must satisfy 0 <= lo <= hi < 1: {spec!r}")
    if kind == "constant":
        return np.full(n_servers, lo, dtype=np.float64)
    rng = random.Random(seed)
    return np.array([rng.uniform(lo, hi) for _ in range(n_servers)], dtype=np.float64)

"""Workload synthesis: object catalogs, traffic matrices, server availability.

Traffic is a matrix of total bytes each server requests per object.  The
``zipf`` model makes object popularity follow rank^(-skew) under a seeded
rank-to-object permutation and splits each object's volume evenly across
servers; ``uniform`` spreads the total evenly over all cells.  Integer volumes
are apportioned exactly (largest-remainder), so matrix totals match the
requested volume to the byte.

Server failure probabilities come either from a synthetic distribution or
from an interval trace: per-node up/down intervals, read from a CSV or built
in code.  ``TraceRecord`` and ``FailureTrace`` check every rule the CSV
loader applies, so a trace built in code obeys the same rules.  A node's
observation horizon spans its first record start to its last record end;
time inside the horizon not covered by a ``down`` record counts as up.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TraceError
from .model import INT64_LIMIT, ObjectCatalog
from .topology import _choice, _count, _items, _nonnegative, _range, _rng, _whole


# Highest failure probability a trace estimate may take.
_F_MAX = 0.99


def _time(value, what: str) -> float:
    """``value`` as a float; refuses bools, non-numbers, NaN, infinities and inexact values."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            time = float(value)
        except OverflowError:  # an int too large for a float
            time = math.inf
        if math.isfinite(time) and time == value:
            return time
    raise TraceError(f"interval times must be finite and exact as floats, got {what} {value!r}")


@dataclass(frozen=True)
class TraceRecord:
    """One interval ``[start, end)`` in which a node was ``up`` or ``down``."""

    node: int
    start: float
    end: float
    state: str

    def __post_init__(self):
        node = _whole(self.node, "node id", TraceError)
        if node < 0:
            raise TraceError(f"negative node id {node}")
        start, end = _time(self.start, "start"), _time(self.end, "end")
        if end <= start:
            raise TraceError(f"interval end {end} <= start {start}")
        if not isinstance(self.state, str) or self.state not in ("up", "down"):
            raise TraceError(f"state must be 'up' or 'down', got {self.state!r}")
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)


@dataclass(frozen=True)
class FailureTrace:
    """Interval records; no two intervals of one node overlap, and each node's horizon is finite."""

    records: tuple[TraceRecord, ...]

    def __post_init__(self):
        records = _items(self.records, "trace records", TraceError)
        by_node: dict[int, list[TraceRecord]] = {}
        for rec in records:
            if not isinstance(rec, TraceRecord):
                raise TraceError(f"trace records must be TraceRecord, got {rec!r}")
            by_node.setdefault(rec.node, []).append(rec)
        for node, recs in by_node.items():
            recs.sort(key=lambda rec: rec.start)
            for prev, cur in zip(recs, recs[1:]):
                if cur.start < prev.end:
                    raise TraceError(
                        f"node {node} has overlapping intervals "
                        f"[{prev.start}, {prev.end}) and [{cur.start}, {cur.end})"
                    )
            if not math.isfinite(recs[-1].end - recs[0].start):
                raise TraceError(f"node {node}'s horizon [{recs[0].start}, {recs[-1].end}) "
                                 f"is too long for a float")
        object.__setattr__(self, "records", records)


def generate_object_catalog(n_objects: int, size_lo: int, size_hi: int,
                            n_servers: int, seed: int) -> ObjectCatalog:
    """Draw object sizes uniformly from [lo, hi] and primaries uniformly over servers."""
    n_objects, n_servers = _count(n_objects, "object count"), _count(n_servers, "server count")
    size_lo, size_hi = _range(size_lo, size_hi, "size")
    rng = _rng(seed)
    sizes = [rng.randint(size_lo, size_hi) for _ in range(n_objects)]
    primaries = [rng.randrange(n_servers) for _ in range(n_objects)]
    return ObjectCatalog(sizes, primaries)


def _apportion(total: int, weights) -> np.ndarray:
    """Split ``total`` into integer shares proportional to ``weights``, summing exactly.

    Largest remainder in exact integers, ties to the lower index.  Float
    weights are dyadic rationals, scaled here to one power-of-two denominator.
    """
    ratios = [w.as_integer_ratio() for w in np.asarray(weights, dtype=np.float64).tolist()]
    denominator = max(d for _, d in ratios)
    scaled = [p * (denominator // d) for p, d in ratios]
    wsum = sum(scaled)
    shares, remainders = zip(*(divmod(total * w, wsum) for w in scaled))
    result = np.array(shares, dtype=np.int64)
    order = sorted(range(len(shares)), key=remainders.__getitem__, reverse=True)
    result[order[:total - sum(shares)]] += 1
    return result


def generate_traffic(n_servers: int, n_objects: int, kind: str = "zipf",
                     zipf_skew: float = 0.8, total_volume: int = 50_000_000,
                     seed: int = 0) -> np.ndarray:
    """Build an ``n_servers`` x ``n_objects`` request matrix of ``total_volume`` bytes.

    ``kind`` is ``uniform`` or ``zipf``; ``zipf_skew`` must be a finite
    number >= 0 and the volume a count below 2**63.  Volume is split by
    popularity alone, not by object size, so column shares stay exactly Zipf.
    """
    n_servers, n_objects = _count(n_servers, "server count"), _count(n_objects, "object count")
    _choice(kind, ("uniform", "zipf"), "traffic kind")
    zipf_skew = _nonnegative(zipf_skew, "zipf skew")
    total_volume = _count(total_volume, "total volume")
    if total_volume >= INT64_LIMIT:
        raise ParameterError("total volume must be below 2**63")
    rng = _rng(seed)
    r = np.empty((n_servers, n_objects), dtype=np.int64)
    if kind == "uniform":
        cells = n_servers * n_objects
        base, rem = divmod(total_volume, cells)
        r.fill(base)
        r.flat[rng.sample(range(cells), rem)] += 1
        return r
    # zipf: rank weights, seeded rank->object permutation, even server split.
    # Each object's +1 rows are one sample of distinct servers, so no
    # (server, object) pair repeats and one fancy-indexed += is exact.
    weights = np.arange(1, n_objects + 1, dtype=np.float64) ** (-zipf_skew)
    base, rem = np.divmod(_apportion(total_volume, weights), n_servers)
    perm = list(range(n_objects))
    rng.shuffle(perm)
    r[:, perm] = base
    servers = range(n_servers)
    rows = np.fromiter(itertools.chain.from_iterable(rng.sample(servers, c) for c in rem.tolist()),
                       dtype=np.intp, count=int(rem.sum()))
    r[rows, np.repeat(perm, rem)] += 1
    return r


def load_failure_trace(path) -> FailureTrace:
    """Parse an interval trace CSV (header: node_id,start,end,state).

    The records and the trace check themselves; each refusal names
    ``path`` and, for one record, its line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise TraceError(f"{path}: not a CSV text file: {exc}") from exc
    if not rows or [h.strip() for h in rows[0]] != ["node_id", "start", "end", "state"]:
        raise TraceError(f"{path}: expected header 'node_id,start,end,state'")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            if len(row) != 4:
                raise TraceError(f"expected 4 fields, got {len(row)}")
            records.append(TraceRecord(int(row[0]), float(row[1]), float(row[2]),
                                       row[3].strip().lower()))
        except (TraceError, ValueError) as exc:  # ValueError: a field is not a number
            raise TraceError(f"{path}:{lineno}: {exc}") from exc
    try:
        return FailureTrace(records)
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}") from exc


def trace_availability_for_servers(trace: FailureTrace, n_servers: int) -> np.ndarray:
    """Fold a trace of arbitrary node ids onto ``n_servers`` servers.

    Each node's failure probability is its downtime share of its horizon,
    clamped to at most 0.99 so that a permanently dead node does not zero
    out every availability product it joins.  Node ids map to servers
    modulo the server count; when several nodes land on one server their
    estimates are averaged.  Servers with no mapped node get failure
    probability 0.  No array is sized by the node ids, so a huge id costs
    nothing.
    """
    if not isinstance(trace, FailureTrace):
        raise TraceError(f"trace must be a FailureTrace, got {trace!r}")
    n_servers = _count(n_servers, "server count")
    spans: dict[int, list[float]] = {}  # node -> [first start, last end, downtime]
    for rec in trace.records:
        span = spans.setdefault(rec.node, [rec.start, rec.end, 0.0])
        span[0], span[1] = min(span[0], rec.start), max(span[1], rec.end)
        if rec.state == "down":
            span[2] += rec.end - rec.start
    f = np.zeros(n_servers, dtype=np.float64)
    hits = np.zeros(n_servers, dtype=np.int64)
    for node in sorted(spans):
        t0, t1, down = spans[node]
        f[node % n_servers] += min(down / (t1 - t0), _F_MAX)
        hits[node % n_servers] += 1
    nonzero = hits > 0
    f[nonzero] /= hits[nonzero]
    return f


def synthetic_availability(n_servers: int, spec: str, seed: int) -> np.ndarray:
    """Draw per-server failure probabilities from 'constant:F' or 'uniform:LO:HI'."""
    n_servers, rng = _count(n_servers, "server count"), _rng(seed)
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
    return np.array([rng.uniform(lo, hi) for _ in range(n_servers)], dtype=np.float64)

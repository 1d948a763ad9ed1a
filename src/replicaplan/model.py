"""Domain state: server/object catalogs, traffic, placements, nearest index.

A placement is an M x N 0/1 matrix ``x`` (servers by objects).  Validity means
every server's replicas fit its storage and every object keeps a replica on
its primary server.  The nearest-replicator index ``n`` caches, per (server,
object), the id of the cheapest replicator.  One rule, ``_nearest`` (lowest id
on ties), computes it: for the whole matrix at set-up, and for the one
changed column after each added or dropped replica.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    ConstraintError,
    ParameterError,
    PreconditionError,
    StructuralError,
)
from .topology import (INT64_LIMIT, CostMatrix, _array, _integral, _read_json, _whole,
                       _write_json)


def _traffic(values, m: int, n: int) -> np.ndarray:
    """``values`` as an m x n int64 traffic matrix; an int64 array is not copied."""
    r = np.asarray(_integral(values, "traffic"), dtype=np.int64)
    if r.shape != (m, n):
        raise StructuralError(f"traffic must be {m}x{n}, got {r.shape}")
    if (r < 0).any():
        raise ParameterError("traffic entries must be non-negative")
    return r


def exact_sum(values: np.ndarray) -> int:
    """Exact sum of a non-negative int64 array, such as traffic or object sizes."""
    if int(values.max(initial=0)) <= (INT64_LIMIT - 1) // max(values.size, 1):
        return int(values.sum())
    return sum(int(v) for v in values.ravel())  # the int64 sum itself could wrap


def _loads(x, sizes: np.ndarray) -> np.ndarray:
    """Exact int64 bytes per server under ``x`` (sizes sum below 2**63); ``x`` is not copied."""
    return np.einsum("ij,j->i", x, sizes)


def _check_headroom(l: np.ndarray, sizes: np.ndarray, traffic: np.ndarray, limit: int) -> None:
    """Refuse instances whose exact costs could reach ``limit``, a power of two.

    Every access cost, saving and eviction damage (and every prefix sum of
    damages) is at most ``max(l) * sum(traffic)``, and every transfer cost
    at most ``max(l) * max(size)``.  The model keeps them below 2**63, the
    float-scored planners below 2**53.
    """
    max_l = int(l.max(initial=0))
    total, max_size = exact_sum(traffic), int(sizes.max(initial=0))
    if max_l * max(total, max_size) >= limit:
        raise ParameterError(
            f"max link cost {max_l} x max(total traffic {total}, max object size {max_size}) "
            f"reaches 2**{limit.bit_length() - 1}; costs and scores would not stay exact"
        )


@dataclass(frozen=True, eq=False)
class ServerCatalog:
    """Per-server storage capacity and long-run failure probability."""

    capacities: np.ndarray
    failure_probs: np.ndarray

    def __post_init__(self):
        caps = np.array(_integral(self.capacities, "capacities"), dtype=np.int64)
        raw = _array(self.failure_probs, "failure probabilities")
        if raw.dtype.kind not in "fiu":  # as in _integral; a float64 cast reads "0.1" as 0.1
            raise ParameterError(f"failure probabilities must be numbers, got {raw.dtype} values")
        probs = np.array(raw, dtype=np.float64)
        if caps.ndim != 1 or caps.size == 0:
            raise StructuralError("capacities must be a non-empty vector")
        if probs.shape != caps.shape:
            raise StructuralError("failure_probs must match capacities in length")
        if (caps <= 0).any():
            raise ParameterError("capacities must be positive")
        if not ((probs >= 0) & (probs < 1)).all():
            raise ParameterError("failure probabilities must lie in [0, 1)")
        caps.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "failure_probs", probs)

    @property
    def count(self) -> int:
        return int(self.capacities.size)


@dataclass(frozen=True, eq=False)
class ObjectCatalog:
    """Per-object byte size and primary server id."""

    sizes: np.ndarray
    primaries: np.ndarray

    def __post_init__(self):
        sizes = np.array(_integral(self.sizes, "object sizes"), dtype=np.int64)
        prim = np.array(_integral(self.primaries, "primary ids"), dtype=np.int64)
        if sizes.ndim != 1:
            raise StructuralError("sizes must be a vector")
        if prim.shape != sizes.shape:
            raise StructuralError("primaries must match sizes in length")
        if (sizes <= 0).any():
            raise ParameterError("object sizes must be positive")
        if (prim < 0).any():
            raise ParameterError("primary ids must be non-negative")
        if exact_sum(sizes) >= INT64_LIMIT:  # server loads could wrap in int64
            raise ParameterError("object sizes must sum to less than 2**63")
        sizes.setflags(write=False)
        prim.setflags(write=False)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "primaries", prim)

    @property
    def count(self) -> int:
        return int(self.sizes.size)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One problem instance minus the network: catalogs plus traffic."""

    servers: ServerCatalog
    objects: ObjectCatalog
    traffic: np.ndarray
    meta: dict | None = None

    def __post_init__(self):
        m = self.servers.count
        r = np.array(_traffic(self.traffic, m, self.objects.count))  # frozen copy
        if (self.objects.primaries >= m).any():
            raise ParameterError("primary ids must reference existing servers")
        r.setflags(write=False)
        object.__setattr__(self, "traffic", r)

    def save(self, path) -> None:
        payload = {
            "capacities": self.servers.capacities.tolist(),
            "failure_probs": self.servers.failure_probs.tolist(),
            "sizes": self.objects.sizes.tolist(),
            "primaries": self.objects.primaries.tolist(),
            "traffic": self.traffic.tolist(),
        }
        if self.meta is not None:
            payload["meta"] = self.meta
        _write_json(path, payload)

    @classmethod
    def load(cls, path) -> "Scenario":
        payload = _read_json(path, "scenario")
        try:
            servers = ServerCatalog(payload["capacities"], payload["failure_probs"])
            objects = ObjectCatalog(payload["sizes"], payload["primaries"])
            return cls(servers, objects, payload["traffic"], meta=payload.get("meta"))
        except KeyError as exc:
            raise StructuralError(f"scenario file {path} is missing field {exc}") from exc
        except TypeError as exc:  # e.g. a JSON object where numbers belong
            raise StructuralError(f"malformed scenario file {path}: {exc}") from exc


@dataclass(frozen=True)
class Violation:
    """One validity failure: kind is 'storage' (index=server) or 'primary' (index=object)."""

    kind: str
    index: int
    detail: str


def validate_placement(x, servers: ServerCatalog, objects: ObjectCatalog, *,
                       rows=None, cols=None) -> list[Violation]:
    """Return the storage/primary violations of placement ``x`` (empty if valid).

    ``rows`` and ``cols`` narrow the check to the listed servers' storage
    and the listed objects' primaries; ``None`` checks every one.  A
    narrowed call finds every violation only if ``x`` was valid before its
    last changes and each changed entry lies in a listed row and a listed
    column: a server's load and an object's primary bit move only with
    their own row or column.
    """
    x = np.asarray(x)
    m, n = servers.count, objects.count
    if x.shape != (m, n):
        raise StructuralError(f"placement must be {m}x{n}, got {x.shape}")
    rows, cols = _subset(rows, m, "rows"), _subset(cols, n, "cols")
    violations = []
    loads = _loads(x[rows], objects.sizes)
    over = loads > servers.capacities[rows]
    for i, load in zip(rows[over].tolist(), loads[over].tolist()):
        violations.append(
            Violation(
                "storage",
                i,
                f"server {i} stores {load} bytes over capacity {servers.capacities[i]}",
            )
        )
    primary_bits = x[objects.primaries[cols], cols]
    for k in cols[primary_bits != 1].tolist():
        violations.append(
            Violation(
                "primary",
                k,
                f"object {k} has no replica on its primary server {objects.primaries[k]}",
            )
        )
    return violations


def _subset(indices, count: int, what: str) -> np.ndarray:
    """``indices`` as an int64 array of positions in ``range(count)``; None means all."""
    if indices is None:
        return np.arange(count)
    idx = _integral(indices, what).astype(np.int64).reshape(-1)
    if ((idx < 0) | (idx >= count)).any():
        raise StructuralError(f"{what} must lie in [0, {count}), got {idx.tolist()}")
    return idx


def primary_only_placement(servers: ServerCatalog, objects: ObjectCatalog) -> np.ndarray:
    """The starting placement: each object exactly on its primary server."""
    m, n = servers.count, objects.count
    x = np.zeros((m, n), dtype=np.int8)
    x[objects.primaries, np.arange(n)] = 1
    loads = _loads(x, objects.sizes)
    over = np.flatnonzero(loads > servers.capacities)
    if over.size:
        i = int(over[0])
        raise CapacityError(
            f"primary replicas overflow server {i}: {loads[i]} > {servers.capacities[i]}"
        )
    return x


def _nearest(l, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each server's cheapest replicator among ``reps`` (lowest id on ties) and its cost."""
    sub = l[:, reps]
    pos = sub.argmin(axis=1)  # first minimum = lowest replicator id
    return reps[pos], sub.min(axis=1)


def build_nearest_index(x, l) -> tuple[np.ndarray, np.ndarray]:
    """Compute (nearest-id, nearest-distance) matrices for every (server, object)."""
    x = np.asarray(x)
    m, n = x.shape
    near = np.empty((m, n), dtype=np.int64)
    dist = np.empty((m, n), dtype=np.int64)
    for k in range(n):
        reps = np.flatnonzero(x[:, k])
        if reps.size == 0:
            raise StructuralError(f"object {k} has no replicator")
        near[:, k], dist[:, k] = _nearest(l, reps)
    return near, dist


class PlacementState:
    """A placement bound to one instance, with derived indexes kept in sync.

    Attributes ``x`` (placement), ``n``/``d`` (nearest replicator id and its
    cost), ``free`` (spare bytes per server) and ``replica_counts`` are all
    updated by :meth:`add_replica` / :meth:`remove_replica`.
    """

    def __init__(self, cost: CostMatrix, servers: ServerCatalog, objects: ObjectCatalog,
                 traffic, x):
        if cost.m != servers.count:
            raise StructuralError("cost matrix size must match server count")
        if (cost.l < 0).any():
            raise ParameterError("link costs must be non-negative")
        r = _traffic(traffic, servers.count, objects.count)
        _check_headroom(cost.l, objects.sizes, r, INT64_LIMIT)
        x = _integral(x, "placement")
        # Whole numbers in [0, 1]; the int8 cast below would keep -1 and 2.
        if x.min(initial=0) < 0 or x.max(initial=0) > 1:
            raise ParameterError("placement entries must be 0 or 1")
        violations = validate_placement(x, servers, objects)
        if violations:
            raise ConstraintError(
                "invalid starting placement: " + "; ".join(v.detail for v in violations)
            )
        self.l = cost.l
        self.servers = servers
        self.objects = objects
        self.traffic = r
        self.x = np.array(x, dtype=np.int8)
        self.n, self.d = build_nearest_index(self.x, self.l)
        self.free = servers.capacities - _loads(self.x, objects.sizes)
        self.replica_counts = self.x.sum(axis=0, dtype=np.int64)

    @classmethod
    def from_scenario(cls, cost: CostMatrix, scenario: Scenario, x=None) -> "PlacementState":
        if x is None:
            x = primary_only_placement(scenario.servers, scenario.objects)
        return cls(cost, scenario.servers, scenario.objects, scenario.traffic, x)

    def copy(self) -> "PlacementState":
        """An independent copy; the instance it is bound to is shared."""
        dup = copy.copy(self)
        for name in ("x", "n", "d", "free", "replica_counts"):
            setattr(dup, name, getattr(self, name).copy())
        return dup

    def add_replica(self, i: int, k: int) -> np.ndarray:
        """Place object ``k`` on server ``i``; returns servers whose nearest changed."""
        if self.x[i, k]:
            raise PreconditionError(f"server {i} already replicates object {k}")
        size = self.objects.sizes[k]
        if self.free[i] < size:
            raise CapacityError(
                f"server {i} lacks space for object {k} ({self.free[i]} < {size})"
            )
        return self._set(i, k, 1)

    def remove_replica(self, i: int, k: int) -> np.ndarray:
        """Drop object ``k`` from server ``i``; returns servers whose nearest changed."""
        if not self.x[i, k]:
            raise PreconditionError(f"server {i} does not replicate object {k}")
        if int(self.objects.primaries[k]) == i:
            raise ConstraintError(f"cannot drop object {k} from its primary server {i}")
        return self._set(i, k, 0)

    def _set(self, i: int, k: int, bit: int) -> np.ndarray:
        """Set ``x[i, k]`` to ``bit``, re-derive column k; returns rows whose (n, d) changed."""
        step = 1 if bit else -1
        self.x[i, k] = bit
        self.free[i] -= step * self.objects.sizes[k]
        self.replica_counts[k] += step
        new_n, new_d = _nearest(self.l, np.flatnonzero(self.x[:, k]))
        changed = np.flatnonzero(new_n != self.n[:, k])  # d moves only with n: d = l[j, n]
        self.n[:, k] = new_n
        self.d[:, k] = new_d
        return changed


def save_placement(x, path) -> None:
    """Write placement as {"objects": [{"id", "replicators"}, ...]}, ids ascending."""
    x = np.asarray(x)
    objects = [
        {"id": int(k), "replicators": [int(i) for i in np.flatnonzero(x[:, k])]}
        for k in range(x.shape[1])
    ]
    _write_json(path, {"objects": objects})


def load_placement(path, m: int, n: int) -> np.ndarray:
    payload = _read_json(path, "placement")
    x = np.zeros((m, n), dtype=np.int8)
    try:
        entries = payload["objects"]
        for entry in entries:
            k = _whole(entry["id"], "object id")
            if not 0 <= k < n:
                raise StructuralError(f"placement references unknown object {k}")
            for i in entry["replicators"]:
                i = _whole(i, "server id")
                if not 0 <= i < m:
                    raise StructuralError(f"placement references unknown server {i}")
                x[i, k] = 1
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"malformed placement file {path}: {exc}") from exc
    return x

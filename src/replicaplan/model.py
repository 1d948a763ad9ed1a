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

from .costs import _check_headroom, _failure_probs, _placement_links, _traffic, exact_sum
from .errors import (
    CapacityError,
    ConstraintError,
    ParameterError,
    PreconditionError,
    StructuralError,
)
from .topology import (INT64_LIMIT, CostMatrix, _array, _binary, _count, _freeze, _index,
                       _indices, _integral, _read_json, _write_json)


def _positive(values, what: str) -> np.ndarray:
    """``values`` as a new non-empty int64 vector of positive whole numbers, such as sizes."""
    arr = np.array(_integral(values, what), dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise StructuralError(f"{what} must be a non-empty vector, got shape {arr.shape}")
    if (arr <= 0).any():
        raise ParameterError(f"{what} must be positive")
    return arr


def _loads(x, sizes: np.ndarray) -> np.ndarray:
    """Exact int64 bytes per server under ``x`` (sizes sum below 2**63); ``x`` is not copied."""
    return np.einsum("ij,j->i", x, sizes)


@dataclass(frozen=True, eq=False)
class ServerCatalog:
    """Per-server storage capacity and long-run failure probability."""

    capacities: np.ndarray
    failure_probs: np.ndarray

    def __post_init__(self):
        caps = _positive(self.capacities, "capacities")
        probs = _failure_probs(self.failure_probs)
        if probs.shape != caps.shape:
            raise StructuralError("failure_probs must match capacities in length")
        _freeze(self, capacities=caps, failure_probs=probs)

    @property
    def count(self) -> int:
        return int(self.capacities.size)


@dataclass(frozen=True, eq=False)
class ObjectCatalog:
    """Per-object byte size and primary server id.

    A catalog cannot know the server count, so its primary ids are checked
    where a server catalog joins it, by ``_primaries``.
    """

    sizes: np.ndarray
    primaries: np.ndarray

    def __post_init__(self):
        sizes = _positive(self.sizes, "object sizes")
        prim = np.array(_integral(self.primaries, "primary ids"), dtype=np.int64)
        if prim.shape != sizes.shape:
            raise StructuralError("primaries must match sizes in length")
        if exact_sum(sizes) >= INT64_LIMIT:  # server loads could wrap in int64
            raise ParameterError("object sizes must sum to less than 2**63")
        _freeze(self, sizes=sizes, primaries=prim)

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
        _primaries(self.objects, m)
        _freeze(self, traffic=r)

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
        def parse(payload):
            servers = ServerCatalog(payload["capacities"], payload["failure_probs"])
            objects = ObjectCatalog(payload["sizes"], payload["primaries"])
            return cls(servers, objects, payload["traffic"], meta=payload.get("meta"))

        return _read_json(path, "scenario", parse)


def _primaries(objects: ObjectCatalog, m: int, cols=slice(None)) -> np.ndarray:
    """The primary ids of the objects ``cols``; refused unless each names one of ``m`` servers."""
    return _indices(objects.primaries[cols], m, "primary ids", ParameterError)


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
    their own row or column.  A listed object whose primary id names no
    server, and an entry other than 0 or 1 in a listed row, raise
    ``ParameterError``.
    """
    x = _array(x, "placement")
    m, n = servers.count, objects.count
    if x.shape != (m, n):
        raise StructuralError(f"placement must be {m}x{n}, got {x.shape}")
    rows, cols = _subset(rows, m, "rows"), _subset(cols, n, "cols")
    violations = []
    loads = _loads(_binary(x[rows], "placement"), objects.sizes)
    over = loads > servers.capacities[rows]
    for i, load in zip(rows[over].tolist(), loads[over].tolist()):
        violations.append(
            Violation(
                "storage",
                i,
                f"server {i} stores {load} bytes over capacity {servers.capacities[i]}",
            )
        )
    primary_bits = x[_primaries(objects, m, cols), cols]
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
    """``indices`` as an int64 vector of positions in ``range(count)``; None means all."""
    if indices is None:
        return np.arange(count)
    return _indices(indices, count, what).reshape(-1)


def primary_only_placement(servers: ServerCatalog, objects: ObjectCatalog) -> np.ndarray:
    """The starting placement: each object exactly on its primary server."""
    m, n = servers.count, objects.count
    x = np.zeros((m, n), dtype=np.int8)
    x[_primaries(objects, m), np.arange(n)] = 1
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
    return reps[pos], sub[np.arange(len(sub)), pos]


def build_nearest_index(x, l) -> tuple[np.ndarray, np.ndarray]:
    """Compute (nearest-id, nearest-distance) matrices for every (server, object).

    ``l`` must be M x M for the M x N placement ``x`` and follow
    ``CostMatrix``'s rule; ``x`` must hold only 0 and 1 and give every
    object a replicator.  Both matrices are column-major: each add or drop
    rewrites one column of each.
    """
    x, l = _placement_links(x, l)
    m, n = x.shape
    near = np.empty((m, n), dtype=np.int64, order="F")
    dist = np.empty((m, n), dtype=np.int64, order="F")
    for k in range(n):
        near[:, k], dist[:, k] = _nearest(l, np.flatnonzero(x[:, k]))
    return near, dist


class PlacementState:
    """A placement bound to one instance, with derived indexes kept in sync.

    Attributes ``x`` (placement), ``n``/``d`` (nearest replicator id and its
    cost), ``free`` (spare bytes per server) and ``replica_counts`` are all
    updated by :meth:`add_replica` / :meth:`remove_replica`.
    """

    def __init__(self, cost: CostMatrix, servers: ServerCatalog, objects: ObjectCatalog,
                 traffic, x):
        r = _traffic(traffic, servers.count, objects.count)
        _check_headroom(cost.l, objects.sizes, r, INT64_LIMIT)
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
        """An independent copy, each array in its own memory order; the instance is shared."""
        dup = copy.copy(self)
        for name in ("x", "n", "d", "free", "replica_counts"):
            setattr(dup, name, getattr(self, name).copy(order="K"))
        return dup

    def add_replica(self, i: int, k: int) -> np.ndarray:
        """Place object ``k`` on server ``i``; returns servers whose nearest changed."""
        i, k = self._ids(i, k)
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
        i, k = self._ids(i, k)
        if not self.x[i, k]:
            raise PreconditionError(f"server {i} does not replicate object {k}")
        if int(self.objects.primaries[k]) == i:
            raise ConstraintError(f"cannot drop object {k} from its primary server {i}")
        return self._set(i, k, 0)

    def _ids(self, i, k) -> tuple[int, int]:
        """``(i, k)`` as server and object ids; a negative id is refused, not read from the end."""
        m, n = self.x.shape
        return _index(i, m, "server id"), _index(k, n, "object id")

    def _set(self, i: int, k: int, bit: int) -> np.ndarray:
        """Set ``x[i, k]`` to ``bit``, re-derive column k; returns rows whose (n, d) changed."""
        step = 1 if bit else -1
        self.x[i, k] = bit
        self.free[i] -= step * self.objects.sizes[k]
        self.replica_counts[k] += step
        new_n, new_d = _nearest(self.l, self.x[:, k].nonzero()[0])
        changed = (new_n != self.n[:, k]).nonzero()[0]  # d moves only with n: d = l[j, n]
        self.n[:, k] = new_n
        self.d[:, k] = new_d
        return changed


def save_placement(x, path) -> None:
    """Write placement as {"objects": [{"id", "replicators"}, ...]}, ids ascending.

    ``x`` must hold only 0 and 1.
    """
    x = _binary(x, "placement")
    servers = np.nonzero(x.T)[1].tolist()  # grouped by object, ascending within each
    ends = np.cumsum(np.count_nonzero(x, axis=0)).tolist()
    objects = [{"id": k, "replicators": servers[start:end]}
               for k, (start, end) in enumerate(zip([0, *ends], ends))]
    _write_json(path, {"objects": objects})


def load_placement(path, m: int, n: int) -> np.ndarray:
    """The m x n placement in ``path``; ``m`` and ``n`` are read by the count rule first.

    Each object id may appear once, and each server once in its entry.
    """
    m, n = _count(m, "server count"), _count(n, "object count")

    def parse(payload):
        x = np.zeros((m, n), dtype=np.int8)
        listed = set()
        for entry in payload["objects"]:
            k = _index(entry["id"], n, "object id")
            if k in listed:
                raise StructuralError(f"placement file {path}: repeated object id {k}")
            listed.add(k)
            for i in entry["replicators"]:
                i = _index(i, m, "server id")
                if x[i, k]:
                    raise StructuralError(f"placement file {path}: object {k} has a repeated "
                                          f"server id {i}")
                x[i, k] = 1
        return x

    return _read_json(path, "placement", parse)

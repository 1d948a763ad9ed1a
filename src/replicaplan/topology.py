"""Server-network generation and reduction to a pairwise transfer-cost matrix.

Networks are undirected graphs with positive integer per-byte link costs.
The planner never looks at the graph itself; it consumes the dense matrix of
cheapest-path costs between every pair of servers.
"""

from __future__ import annotations

import json
import math
import numbers
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConnectivityError, ParameterError, StructuralError

# Sentinel for "no path yet" during the shortest-path sweep.  Kept far below
# the int64 overflow line so sentinel + sentinel stays representable.  Graph
# keeps the sum of its edge costs below it, so no path, however long, reaches
# it: a distance still at the sentinel after the sweep means "unreachable".
_UNREACHED = np.int64(2) ** 41

INT64_LIMIT = 2**63


def _array(values, what: str) -> np.ndarray:
    """``values`` as an array; a ragged nested list is a StructuralError."""
    try:
        return np.asarray(values)
    except ValueError as exc:  # numpy refuses inhomogeneous shapes
        raise StructuralError(f"{what} must be a rectangular array: {exc}") from exc


def _integral(values, what: str) -> np.ndarray:
    """``values`` as an array, refused unless every entry is an int64-sized integer.

    Checked before any int64 cast, which would truncate 1.7 to 1 and wrap
    NaN, inf and out-of-range values silently.
    """
    raw = _array(values, what)
    kind = raw.dtype.kind
    if kind == "f":
        ok = (np.isfinite(raw) & (raw == np.floor(raw))
              & (raw >= -INT64_LIMIT) & (raw < INT64_LIMIT))
    elif kind == "u":
        ok = raw < INT64_LIMIT
    elif kind == "i":
        return raw
    else:
        raise ParameterError(f"{what} must be integers below 2**63, got {raw.dtype} values")
    if not ok.all():
        raise ParameterError(f"{what} must be finite integers below 2**63")
    return raw


def _binary(values, what: str) -> np.ndarray:
    """``values`` as a matrix of 0s and 1s, such as a placement.

    Checked before any int8 cast, which would keep -1 and 2.
    """
    raw = _integral(values, what)
    if raw.ndim != 2:
        raise StructuralError(f"{what} must be a matrix, got shape {raw.shape}")
    if raw.min(initial=0) < 0 or raw.max(initial=0) > 1:
        raise ParameterError(f"{what} entries must be 0 or 1")
    return raw


def _whole(value, what: str, error=StructuralError) -> int:
    """``value`` as an int; refuses bools, strings and fractional or non-finite floats.

    ``10.0`` is accepted as 10, where ``int()`` would also turn 1.7 into 1.
    Refusals raise ``error``.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise error(f"{what} must be an integer, got {value!r}")


def _choice(value, options: tuple[str, ...], what: str, error=ParameterError) -> str:
    """``value``, refused with ``error`` unless it is one of the named ``options``.

    A non-string is refused before any comparison, so an array is not
    compared entry by entry.
    """
    if not (isinstance(value, str) and value in options):
        raise error(f"unknown {what} {value!r}")
    return value


def _spec(text, forms: dict[str, int], what: str) -> tuple[str, list[float]]:
    """A ``KIND:ARGS`` spec string as its kind and its numbers.

    ``forms`` maps each kind to how many ``:``-separated numbers it takes.
    """
    if not isinstance(text, str):
        raise ParameterError(f"{what} must be a string, got {text!r}")
    kind, *args = text.split(":")
    _choice(kind, tuple(forms), what)
    if len(args) != forms[kind]:
        raise ParameterError(f"bad {what} {text!r}: {kind} takes {forms[kind]} number(s)")
    try:
        return kind, [float(arg) for arg in args]
    except ValueError as exc:
        raise ParameterError(f"bad {what} {text!r}: {exc}") from exc


def _real(value, what: str, error=ParameterError, low=None) -> float:
    """``value`` as a float: a finite number, at least ``low`` if given, that a float holds exactly.

    Bools are not numbers here, and an int too large for a float is
    refused too, where ``float`` would raise OverflowError.  ``2**53 + 1``
    and ``Fraction(4, 5)`` are refused, not rounded.  A float, unlike a
    NumPy unsigned int, does not wrap when negated.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:
            real = math.inf
        if math.isfinite(real) and real == value and (low is None or real >= low):
            return real
    bound = "" if low is None else f" >= {low}"
    raise error(f"{what} must be a finite number{bound} exact as a float, got {value!r}")


def _rng(seed) -> random.Random:
    """A random generator seeded by ``seed``, a whole number; the one seed rule."""
    return random.Random(_whole(seed, "seed", ParameterError))


def _count(value, what: str, error=StructuralError) -> int:
    """``value`` as a whole number of at least 1; ``_whole``'s refusals raise ``error``."""
    count = _whole(value, what, error)
    if count < 1:
        raise ParameterError(f"{what} must be >= 1, got {count}")
    return count


def _range(lo, hi, what: str) -> tuple[int, int]:
    """The bounds of a ``what`` range: ``lo`` a count, ``hi`` a whole number of at least ``lo``."""
    lo, hi = _count(lo, f"{what}_lo"), _whole(hi, f"{what}_hi")
    if lo > hi:
        raise ParameterError(f"{what} range must satisfy 0 < lo <= hi, got [{lo}, {hi}]")
    return lo, hi


def _items(values, what: str, error=StructuralError) -> tuple:
    """``values`` as a tuple; one that is not iterable is refused with ``error``."""
    try:
        return tuple(values)
    except TypeError as exc:
        raise error(f"{what} must be iterable, got {values!r}") from exc


def _index(value, count: int, what: str) -> int:
    """``value`` as a server or object id: a whole number in ``range(count)``.

    Anything else, a negative id included, is a StructuralError.
    """
    i = _whole(value, what)
    if not 0 <= i < count:
        raise StructuralError(f"{what} {i} lies outside [0, {count})")
    return i


def _indices(values, count: int, what: str, error=StructuralError) -> np.ndarray:
    """``values`` as an int64 array of ids, each in ``range(count)``; ``_index`` for arrays.

    One range check: viewed as unsigned, a negative id is 2**63 or more.
    A non-integer entry is a ParameterError, an id outside the range
    ``error``.
    """
    ids = np.asarray(_integral(values, what), dtype=np.int64)
    if ids.view(np.uint64).max(initial=0) >= count:
        raise error(f"{what} must lie in [0, {count}), got ids from {ids.min()} to {ids.max()}")
    return ids


def _freeze(record, **arrays) -> None:
    """Mark each array read-only and set it as the field of that name of the frozen ``record``."""
    for name, array in arrays.items():
        array.setflags(write=False)
        object.__setattr__(record, name, array)


@dataclass(frozen=True)
class Graph:
    """Undirected server network; each edge carries a positive integer cost.

    Edge costs must sum to less than 2**41, which keeps every path cost exact
    and below the shortest-path sweep's "unreached" sentinel.
    """

    node_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        node_count = _count(self.node_count, "node count")
        seen = set()
        normalized = []
        for edge in _items(self.edges, "edges"):
            try:
                u, v, cost = edge
            except (TypeError, ValueError) as exc:  # not iterable, or not three entries
                raise StructuralError(f"edge {edge!r} must be a (u, v, cost) triple") from exc
            u, v = _index(u, node_count, "edge node"), _index(v, node_count, "edge node")
            if u == v:
                raise StructuralError(f"self-loop at node {u}")
            cost = _count(cost, f"cost of edge ({u}, {v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise StructuralError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append((key[0], key[1], cost))
        total = sum(cost for _, _, cost in normalized)
        if total >= int(_UNREACHED):
            raise ParameterError(f"edge costs sum to {total}, which reaches 2**41")
        normalized.sort()
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "edges", tuple(normalized))


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Dense symmetric matrix of cheapest per-byte transfer costs.

    Entries must be non-negative integers below 2**63.
    """

    l: np.ndarray

    def __post_init__(self):
        arr = np.array(_integral(self.l, "link costs"), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise StructuralError(f"cost matrix must be square, got shape {arr.shape}")
        if (arr < 0).any():
            raise ParameterError("link costs must be non-negative")
        _freeze(self, l=arr)

    def validate(self) -> None:
        """Check metric-style invariants; raises StructuralError on failure."""
        l = self.l
        if (np.diag(l) != 0).any():
            raise StructuralError("diagonal must be zero")
        if (l != l.T).any():
            raise StructuralError("matrix must be symmetric")
        off = l[~np.eye(len(l), dtype=bool)]
        if off.size and (off <= 0).any():
            raise StructuralError("off-diagonal costs must be positive")
        for h in range(len(l)):
            if (l > l[:, h, None] + l[None, h, :]).any():
                raise StructuralError(f"triangle inequality violated via node {h}")

    def to_csv(self, path) -> None:
        """Write the matrix as plain CSV, one row per source node, no header."""
        with open(path, "w", newline="") as fh:
            for row in self.l.tolist():
                fh.write(",".join(map(str, row)))
                fh.write("\n")


def generate_ba_topology(n: int, m_links: int, seed: int) -> Graph:
    """Grow a preferential-attachment network of ``n`` servers.

    Starts from two nodes joined by one edge; every further node attaches to
    ``m_links`` distinct existing nodes chosen with probability proportional
    to current degree.  While fewer than ``m_links`` nodes exist, the newcomer
    attaches to all of them.  ``m_links=1`` yields a tree.  Edge costs are a
    placeholder 1 until :func:`assign_link_costs` runs.
    """
    n, m_links, rng = _count(n, "node count"), _count(m_links, "m_links"), _rng(seed)
    if n > 1 and m_links >= n:
        raise ParameterError(f"m_links={m_links} must be < node count {n}")
    if n == 1:
        return Graph(1, ())

    edges = [(0, 1)]
    # One entry per degree unit; sampling from it is degree-proportional.
    repeated = [0, 1]
    for newcomer in range(2, n):
        want = min(m_links, newcomer)
        targets: set[int] = set()
        while len(targets) < want:
            targets.add(rng.choice(repeated))
        picked = sorted(targets)
        for t in picked:
            edges.append((t, newcomer))
        repeated.extend(picked)
        repeated.extend([newcomer] * want)
    return Graph(n, tuple((u, v, 1) for u, v in edges))


def assign_link_costs(graph: Graph, cost_lo: int, cost_hi: int, seed: int) -> Graph:
    """Return a copy of ``graph`` with integer costs drawn uniformly from [lo, hi]."""
    cost_lo, cost_hi = _range(cost_lo, cost_hi, "cost")
    rng = _rng(seed)
    # Edges are kept in canonical sorted order, so draws are reproducible.
    edges = tuple((u, v, rng.randint(cost_lo, cost_hi)) for u, v, _ in graph.edges)
    return Graph(graph.node_count, edges)


def all_pairs_shortest_paths(graph: Graph) -> CostMatrix:
    """Reduce a connected graph to its cheapest-path cost matrix."""
    m = graph.node_count
    # Fewer than m - 1 edges cannot connect m nodes; checked first so that a
    # huge node count with few edges never allocates the m x m matrix.
    connected = len(graph.edges) >= m - 1
    if connected:
        dist = np.full((m, m), _UNREACHED, dtype=np.int64)
        np.fill_diagonal(dist, 0)
        for u, v, cost in graph.edges:
            if cost < dist[u, v]:
                dist[u, v] = cost
                dist[v, u] = cost
        for h in range(m):
            np.minimum(dist, dist[:, h, None] + dist[None, h, :], out=dist)
        connected = not (dist == _UNREACHED).any()
    if not connected:
        raise ConnectivityError(
            f"graph with {m} nodes and {len(graph.edges)} edges is not connected"
        )
    matrix = CostMatrix(dist)
    matrix.validate()
    return matrix


def _write_json(path, payload) -> None:
    """Write ``payload`` as compact, key-sorted JSON plus a newline, in one write.

    The payload is encoded before ``path`` is opened, so one that JSON
    cannot hold raises StructuralError and leaves the file as it was.
    """
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    except (TypeError, ValueError) as exc:  # e.g. a set, a non-string key, a cycle
        raise StructuralError(f"cannot write {path} as JSON: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text)


def _read_json(path, what: str, parse):
    """``parse`` applied to the JSON object in ``path``; any other content is a StructuralError.

    A field ``parse`` finds missing (``KeyError``) or of the wrong kind
    (``TypeError``) is refused with a StructuralError that names ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise StructuralError(f"{what} file {path} is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise StructuralError(f"{what} file {path} must hold a JSON object")
    try:
        return parse(payload)
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"malformed {what} file {path}: {exc!r}") from exc


def save_topology(graph: Graph, path) -> None:
    payload = {"nodes": graph.node_count, "edges": [[u, v, c] for u, v, c in graph.edges]}
    _write_json(path, payload)


def load_topology(path) -> Graph:
    return _read_json(path, "topology",
                      lambda payload: Graph(payload["nodes"], tuple(payload["edges"])))

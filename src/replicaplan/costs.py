"""Exact cost and availability arithmetic for placements.

All traffic costs are exact integers: per-object access cost is the sum over
servers of (traffic bytes) x (per-byte cost to the nearest replicator).
Flip scoring lives only in the planner engine (:mod:`replicaplan.heuristics`),
which takes its ground-truth total and every availability from this module.

Two readings of object availability are supported.  Under the default
``corrected`` semantics servers carry failure probabilities and an object
survives unless every replicator fails: A = 1 - prod(f_i).  The ``literal``
semantics instead multiplies server availabilities: A = prod(1 - f_i), which
penalizes every added replica; it is kept runnable for comparison studies.
Every availability in the package comes from one kernel, ``_availability``,
over a bool server x object matrix.  Its product runs down the server axis
in ascending server order, so each value is the same float as the product
over the sorted replicator ids.  One comparison, ``_fell``, decides whether
an availability fell: by more than :data:`AVAILABILITY_TOL`.

This module also holds the rules every cost and availability input is read
by.  ``_placement_links`` reads a placement with its link costs, by
``CostMatrix``'s rule; ``_traffic`` reads traffic and ``_failure_probs``
failure probabilities; ``_check_headroom`` refuses an instance whose exact
costs could reach 2**63 (or 2**53 for float scores); and ``_replicated``
refuses an object without a replicator, whose cost and availability are
undefined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError
from .topology import (INT64_LIMIT, CostMatrix, _array, _binary, _choice, _index, _indices,
                       _integral, _items)

SEMANTICS = ("corrected", "literal")

#: Absolute tolerance for availability comparisons on binary floats.
AVAILABILITY_TOL = 1e-12


@dataclass(frozen=True)
class CostReport:
    """The schedule-wide access cost."""

    total: int


def total_access_cost(x, n, r, l) -> CostReport:
    """Access cost of the whole placement, summed over servers and objects.

    ``x`` is an M x N placement of 0s and 1s that gives every object a
    replicator, ``l`` its M x M link costs (non-negative integers, as in
    ``CostMatrix``), ``r`` its M x N traffic (non-negative integers, as in
    ``Scenario``) and ``n`` an M x N nearest index of integer server ids.
    ``max(l) * sum(r)`` must stay below 2**63, so the total is exact.
    """
    x, l = _placement_links(x, l)
    m = len(x)
    r = _traffic(r, *x.shape)
    _check_headroom(l, np.empty(0, dtype=np.int64), r, INT64_LIMIT)
    n = _indices(n, m, "nearest index")
    if n.shape != x.shape:
        raise StructuralError(f"nearest index must have shape {x.shape}, got shape {n.shape}")
    dist = l[np.arange(m)[:, None], n]
    # Summed without the M x N product; exact, as every partial sum stays below the total.
    return CostReport(total=int(np.einsum("ij,ij->", dist, r, dtype=np.int64)))


def _placement_links(x, l) -> tuple[np.ndarray, np.ndarray]:
    """The M x N placement ``x`` and its M x M link costs ``l``, read as a ``CostMatrix``.

    ``x`` must hold only 0 and 1, and give every object a replicator.
    """
    x, l = _array(x, "placement"), CostMatrix(l).l
    if x.ndim != 2 or len(l) != len(x):
        raise StructuralError(f"link costs must be M x M for an M x N placement, "
                              f"got shapes {l.shape} and {x.shape}")
    x = _binary(x, "placement")
    _replicated(x)
    return x, l


def _traffic(values, m: int, n: int) -> np.ndarray:
    """``values`` as an m x n int64 traffic matrix; an int64 array is not copied."""
    r = np.asarray(_integral(values, "traffic"), dtype=np.int64)
    if r.shape != (m, n):
        raise StructuralError(f"traffic must be {m}x{n}, got shape {r.shape}")
    if (r < 0).any():
        raise ParameterError("traffic entries must be non-negative")
    return r


def exact_sum(values: np.ndarray) -> int:
    """Exact sum of a non-negative int64 array, such as traffic or object sizes."""
    if int(values.max(initial=0)) <= (INT64_LIMIT - 1) // max(values.size, 1):
        return int(values.sum())
    return sum(int(v) for v in values.ravel())  # the int64 sum itself could wrap


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


def _replicated(held) -> None:
    """Refuse a server x object matrix ``held`` with a column that holds no replicator."""
    missing = np.flatnonzero(~held.any(axis=0))
    if missing.size:
        raise StructuralError(f"object {missing[0]} is unreplicated, so its cost and "
                              f"availability are undefined")


def _failure_probs(values) -> np.ndarray:
    """``values`` as a new float64 vector of failure probabilities, each in [0, 1)."""
    raw = _array(values, "failure probabilities")
    if raw.dtype.kind not in "fiu":  # as in _integral; a float64 cast reads "0.1" as 0.1
        raise ParameterError(f"failure probabilities must be numbers, got {raw.dtype} values")
    probs = np.array(raw, dtype=np.float64)
    if probs.ndim != 1:
        raise StructuralError(f"failure probabilities must be a vector, got shape {probs.shape}")
    if not ((probs >= 0) & (probs < 1)).all():
        raise ParameterError("failure probabilities must lie in [0, 1)")
    return probs


def _fell(after, before):
    """Whether availability ``after`` lies more than the tolerance below ``before``.

    The package's one comparison against :data:`AVAILABILITY_TOL`; both
    sides broadcast as numpy arrays.
    """
    return after < before - AVAILABILITY_TOL


def _availability(held, failure_probs, semantics: str) -> np.ndarray:
    """Availability of each column of the bool server x object matrix ``held``.

    ``semantics`` is one of :data:`SEMANTICS`, already checked by the
    caller: the public readers below and ``SolverConfig``.  The planners
    call this per window, so it does not check again.
    """
    probs = np.asarray(failure_probs, dtype=np.float64)[:, None]
    if semantics == "corrected":
        return 1.0 - np.where(held, probs, 1.0).prod(axis=0)
    return np.where(held, 1.0 - probs, 1.0).prod(axis=0)


def replicator_availability(failure_probs, replicators, semantics: str = "corrected") -> float:
    """Availability of an object held by the given replicator set, each a server id."""
    failure_probs = _failure_probs(failure_probs)
    held = np.zeros((failure_probs.size, 1), dtype=bool)
    for i in _items(replicators, "replicators"):
        held[_index(i, failure_probs.size, "replicator id")] = True
    _replicated(held)
    semantics = _choice(semantics, SEMANTICS, "availability semantics")
    return float(_availability(held, failure_probs, semantics)[0])


def availability_per_object(x, failure_probs, semantics: str = "corrected") -> np.ndarray:
    """Vector of object availabilities under the 0/1 placement ``x``."""
    probs = _failure_probs(failure_probs)
    x = _binary(x, "placement")
    if x.shape[0] != probs.size:
        raise StructuralError(f"placement must have one row per failure probability "
                              f"({probs.size}), got shape {x.shape}")
    held = x == 1
    _replicated(held)
    semantics = _choice(semantics, SEMANTICS, "availability semantics")
    return _availability(held, probs, semantics)

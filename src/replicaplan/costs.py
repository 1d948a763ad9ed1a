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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError
from .topology import _array, _binary, _index, _integral

SEMANTICS = ("corrected", "literal")

#: Absolute tolerance for availability comparisons on binary floats.
AVAILABILITY_TOL = 1e-12


@dataclass(frozen=True)
class CostReport:
    """The schedule-wide access cost."""

    total: int


def total_access_cost(x, n, r, l) -> CostReport:
    """Access cost of the whole placement, summed over servers and objects.

    The placement ``x``, nearest index ``n`` and traffic ``r`` must share
    one M x N shape, ``l`` must be M x M, and every id in ``n`` must name
    a server.  ``x`` must hold only 0 and 1, and ``n``, ``r`` and ``l``
    only integers.
    """
    x, n, r, l = (_array(a, what) for a, what in
                  ((x, "placement"), (n, "nearest index"), (r, "traffic"), (l, "link costs")))
    if x.ndim != 2 or n.shape != x.shape or r.shape != x.shape or l.shape != (len(x),) * 2:
        raise StructuralError(f"placement, nearest index, traffic and link costs must be "
                              f"M x N, M x N, M x N and M x M; got shapes "
                              f"{x.shape}, {n.shape}, {r.shape} and {l.shape}")
    x = _binary(x, "placement")
    n, r, l = (np.asarray(_integral(a, what), dtype=np.int64) for a, what in
               ((n, "nearest index"), (r, "traffic"), (l, "link costs")))
    m = len(x)
    if n.size and not 0 <= n.min() <= n.max() < m:
        raise StructuralError(f"nearest index names a server outside [0, {m})")
    if (x.sum(axis=0) == 0).any():
        missing = int(np.flatnonzero(x.sum(axis=0) == 0)[0])
        raise StructuralError(f"object {missing} has no replicator")
    dist = l[np.arange(m)[:, None], n]
    # Summed without the M x N product; exact, as every partial sum stays below the total.
    return CostReport(total=int(np.einsum("ij,ij->", dist, r, dtype=np.int64)))


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
    """Availability of each column of the bool server x object matrix ``held``."""
    probs = np.asarray(failure_probs, dtype=np.float64)[:, None]
    if semantics == "corrected":
        return 1.0 - np.where(held, probs, 1.0).prod(axis=0)
    if semantics == "literal":
        return np.where(held, 1.0 - probs, 1.0).prod(axis=0)
    raise ParameterError(f"unknown availability semantics {semantics!r}")


def replicator_availability(failure_probs, replicators, semantics: str = "corrected") -> float:
    """Availability of an object held by the given replicator set, each a server id."""
    failure_probs = _failure_probs(failure_probs)
    held = np.zeros((failure_probs.size, 1), dtype=bool)
    for i in replicators:
        held[_index(i, failure_probs.size, "replicator id")] = True
    if not held.any():
        raise StructuralError("availability of an unreplicated object is undefined")
    return float(_availability(held, failure_probs, semantics)[0])


def availability_per_object(x, failure_probs, semantics: str = "corrected") -> np.ndarray:
    """Vector of object availabilities under the 0/1 placement ``x``."""
    probs = _failure_probs(failure_probs)
    x = _binary(x, "placement")
    if x.shape[0] != probs.size:
        raise StructuralError(f"placement must have one row per failure probability "
                              f"({probs.size}), got shape {x.shape}")
    held = x == 1
    unreplicated = np.flatnonzero(~held.any(axis=0))
    if unreplicated.size:
        raise StructuralError(f"object {unreplicated[0]} has no replicator")
    return _availability(held, probs, semantics)

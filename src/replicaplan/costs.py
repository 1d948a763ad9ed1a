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
over the sorted replicator ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError

SEMANTICS = ("corrected", "literal")

#: Absolute tolerance for availability comparisons on binary floats.
AVAILABILITY_TOL = 1e-12


@dataclass(frozen=True)
class CostReport:
    """The schedule-wide access cost."""

    total: int


def total_access_cost(x, n, r, l) -> CostReport:
    """Access cost of the whole placement, summed over servers and objects."""
    x = np.asarray(x)
    if (x.sum(axis=0) == 0).any():
        missing = int(np.flatnonzero(x.sum(axis=0) == 0)[0])
        raise StructuralError(f"object {missing} has no replicator")
    m = x.shape[0]
    dist = l[np.arange(m)[:, None], n]
    return CostReport(total=int((dist * r).sum(dtype=np.int64)))


def _availability(held, failure_probs, semantics: str) -> np.ndarray:
    """Availability of each column of the bool server x object matrix ``held``."""
    probs = np.asarray(failure_probs, dtype=np.float64)[:, None]
    if semantics == "corrected":
        return 1.0 - np.where(held, probs, 1.0).prod(axis=0)
    if semantics == "literal":
        return np.where(held, 1.0 - probs, 1.0).prod(axis=0)
    raise ParameterError(f"unknown availability semantics {semantics!r}")


def replicator_availability(failure_probs, replicators, semantics: str = "corrected") -> float:
    """Availability of an object held by the given replicator set."""
    held = np.zeros((len(failure_probs), 1), dtype=bool)
    held[np.asarray(replicators, dtype=np.int64)] = True
    if not held.any():
        raise StructuralError("availability of an unreplicated object is undefined")
    return float(_availability(held, failure_probs, semantics)[0])


def availability_per_object(x, failure_probs, semantics: str = "corrected") -> np.ndarray:
    """Vector of object availabilities under placement ``x``."""
    held = np.asarray(x) != 0
    unreplicated = np.flatnonzero(~held.any(axis=0))
    if unreplicated.size:
        raise StructuralError(f"object {unreplicated[0]} has no replicator")
    return _availability(held, failure_probs, semantics)

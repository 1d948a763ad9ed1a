"""Exact cost and availability arithmetic for placements.

All traffic costs are exact integers: per-object access cost is the sum over
servers of (traffic bytes) x (per-byte cost to the nearest replicator).
Scoring a candidate flip is not done here; it lives only in the planner
engine (:mod:`replicaplan.heuristics`), which uses this module for the
ground-truth total and for availability checks.

Two readings of object availability are supported.  Under the default
``corrected`` semantics servers carry failure probabilities and an object
survives unless every replicator fails: A = 1 - prod(f_i).  The ``literal``
semantics instead multiplies server availabilities: A = prod(1 - f_i), which
penalizes every added replica; it is kept runnable for comparison studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError

SEMANTICS = ("corrected", "literal")

#: Absolute tolerance for availability comparisons on binary floats.
AVAILABILITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CostReport:
    """Access cost per object plus the schedule-wide total."""

    per_object: np.ndarray
    total: int


def total_access_cost(x, n, r, l) -> CostReport:
    """Access cost of the whole placement, per object and summed."""
    x = np.asarray(x)
    if (x.sum(axis=0) == 0).any():
        missing = int(np.flatnonzero(x.sum(axis=0) == 0)[0])
        raise StructuralError(f"object {missing} has no replicator")
    m = x.shape[0]
    dist = l[np.arange(m)[:, None], n]
    per_object = (dist * r).sum(axis=0, dtype=np.int64)
    return CostReport(per_object=per_object, total=int(per_object.sum()))


def replicator_availability(failure_probs, replicators, semantics: str = "corrected") -> float:
    """Availability of an object held by the given replicator set."""
    if semantics not in SEMANTICS:
        raise ParameterError(f"unknown availability semantics {semantics!r}")
    ids = [int(i) for i in replicators]
    if not ids:
        raise StructuralError("availability of an unreplicated object is undefined")
    if semantics == "corrected":
        return 1.0 - math.prod(float(failure_probs[i]) for i in sorted(ids))
    return math.prod(1.0 - float(failure_probs[i]) for i in sorted(ids))


def availability_per_object(x, failure_probs, semantics: str = "corrected") -> np.ndarray:
    """Vector of object availabilities under placement ``x``."""
    x = np.asarray(x)
    return np.array(
        [replicator_availability(failure_probs, np.flatnonzero(x[:, k]), semantics)
         for k in range(x.shape[1])]
    )


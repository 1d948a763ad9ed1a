from dataclasses import dataclass

import numpy as np
import pytest

from replicaplan import (
    CostMatrix,
    ObjectCatalog,
    PlacementState,
    ServerCatalog,
    primary_only_placement,
)


@dataclass
class MicroInstance:
    """Three servers on a path (2, 3), two objects; hand-checkable everywhere."""

    cost: CostMatrix
    servers: ServerCatalog
    objects: ObjectCatalog
    traffic: np.ndarray

    def state(self, x=None) -> PlacementState:
        if x is None:
            x = primary_only_placement(self.servers, self.objects)
        return PlacementState(self.cost, self.servers, self.objects, self.traffic, x)

    def with_capacities(self, capacities) -> "MicroInstance":
        return MicroInstance(
            cost=self.cost,
            servers=ServerCatalog(capacities, self.servers.failure_probs),
            objects=self.objects,
            traffic=self.traffic,
        )

    def with_failure_probs(self, failure_probs) -> "MicroInstance":
        return MicroInstance(
            cost=self.cost,
            servers=ServerCatalog(self.servers.capacities, failure_probs),
            objects=self.objects,
            traffic=self.traffic,
        )


@pytest.fixture
def micro() -> MicroInstance:
    return MicroInstance(
        cost=CostMatrix([[0, 2, 5], [2, 0, 3], [5, 3, 0]]),
        servers=ServerCatalog([30, 30, 30], [0.1, 0.2, 0.01]),
        objects=ObjectCatalog(sizes=[10, 20], primaries=[0, 2]),
        traffic=np.array([[0, 60], [40, 20], [10, 0]]),
    )

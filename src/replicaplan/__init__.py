"""Availability-aware continuous replica placement over a server network."""

from .costs import (
    AVAILABILITY_TOL,
    SEMANTICS,
    CostReport,
    availability_per_object,
    total_access_cost,
)
from .errors import (
    CapacityError,
    ConnectivityError,
    ConstraintError,
    ParameterError,
    PreconditionError,
    ReplicaPlanError,
    StructuralError,
    TraceError,
)
from .heuristics import (
    ALGORITHMS,
    SCOPES,
    Add,
    Evict,
    PlacementResult,
    SolverConfig,
    StepStat,
    action_from_dict,
    action_to_dict,
    replay_schedule,
    solve,
)
from .model import (
    ObjectCatalog,
    PlacementState,
    Scenario,
    ServerCatalog,
    Violation,
    build_nearest_index,
    load_placement,
    primary_only_placement,
    save_placement,
    validate_placement,
)
from .topology import (
    CostMatrix,
    Graph,
    all_pairs_shortest_paths,
    assign_link_costs,
    generate_ba_topology,
    load_topology,
    save_topology,
)
from .workload import (
    FailureTrace,
    TraceRecord,
    TrafficModel,
    generate_object_catalog,
    generate_traffic,
    load_failure_trace,
    synthetic_availability,
    trace_availability_for_servers,
)

__version__ = "0.1.0"

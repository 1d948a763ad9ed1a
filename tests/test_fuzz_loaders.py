"""Fuzz every input the CLI reads, as files and as library arguments.

The file tests write one generated file next to a valid micro instance and
run ``main()``.  Whatever the content, the run must return an exit code (0
when the generated file happens to be valid, else 1, 2 or 3) and never
raise.  Inputs are either arbitrary JSON or CSV, or a valid file with one
field set to an arbitrary value, which reaches the checks behind the first.

``main()`` turns any ``ValueError`` into exit code 1, so the library tests
call the constructors directly: every error they raise must be a
``ReplicaPlanError``, and every input they accept must be kept exactly.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_cli import MICRO_SCENARIO, MICRO_TOPOLOGY, solve_args, write_micro_instance
from replicaplan import CostMatrix, ObjectCatalog, PlacementState, ReplicaPlanError, ServerCatalog
from replicaplan.cli import main

EXIT_CODES = (0, 1, 2, 3)

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), text)
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(text, kids, max_size=4),
    max_leaves=12,
)
# Values near the domain's edges, mixed with arbitrary ones.
numbers = st.one_of(
    st.integers(-1, 3),
    st.sampled_from([0.5, 2.0, 1.9, 2**41, 2**63, 1e300, float("nan"), float("inf")]),
    scalars,
)
fields = st.one_of(numbers, st.lists(numbers, max_size=4),
                   st.lists(st.lists(numbers, max_size=3), max_size=4), json_values)


def one_field_changed(base: dict):
    """``base`` with one of its fields set to a generated value."""
    return st.tuples(st.sampled_from(sorted(base)), fields).map(
        lambda kv: {**base, kv[0]: kv[1]})


topologies = st.one_of(
    json_values,
    one_field_changed(MICRO_TOPOLOGY),
    st.fixed_dictionaries({
        "nodes": st.one_of(st.just(3), numbers),
        "edges": st.lists(st.lists(numbers, min_size=3, max_size=3), max_size=4),
    }),
)
scenarios = st.one_of(json_values, one_field_changed(MICRO_SCENARIO))
placements = st.one_of(
    json_values,
    st.lists(st.one_of(one_field_changed({"id": 1, "replicators": [2, 1]}), json_values),
             max_size=3).map(lambda objects: {"objects": objects}),
)
times = st.one_of(st.integers(-5, 100).map(str), st.floats().map(repr))
cells = st.one_of(times, st.integers().map(str), st.sampled_from(["up", "down", ""]), text)
rows = st.one_of(
    st.tuples(st.one_of(st.integers(-1, 6), st.integers()).map(str), times, times,
              st.sampled_from(["up", "down", " DOWN", "off"])).map(list),
    st.lists(cells, max_size=5),
)
traces = st.tuples(
    st.one_of(st.just("node_id,start,end,state"), text),
    st.lists(rows, max_size=5),
).map(lambda t: "\n".join([t[0], *(",".join(row) for row in t[1])]) + "\n")


def _solve(tmp, alg="aagg", *extra):
    topo, scen = tmp / "topology.json", tmp / "scenario.json"
    return main(solve_args(topo, scen, tmp / "run", "--alg", alg, *extra))


@given(payload=topologies)
@FUZZ
def test_topology_file(tmp_path_factory, payload):
    tmp = tmp_path_factory.mktemp("topology")
    write_micro_instance(tmp)
    (tmp / "topology.json").write_text(json.dumps(payload))
    assert _solve(tmp) in EXIT_CODES


@given(payload=scenarios)
@FUZZ
def test_scenario_file(tmp_path_factory, payload):
    tmp = tmp_path_factory.mktemp("scenario")
    write_micro_instance(tmp)
    (tmp / "scenario.json").write_text(json.dumps(payload))
    assert _solve(tmp) in EXIT_CODES


@given(payload=placements)
@FUZZ
def test_x_old_file(tmp_path_factory, payload):
    tmp = tmp_path_factory.mktemp("x_old")
    write_micro_instance(tmp)
    (tmp / "x_old.json").write_text(json.dumps(payload))
    assert _solve(tmp, "aagro", "--x-old", str(tmp / "x_old.json")) in EXIT_CODES


@given(body=traces)
@FUZZ
def test_trace_file(tmp_path_factory, body):
    tmp = tmp_path_factory.mktemp("trace")
    (tmp / "trace.csv").write_text(body)
    code = main(["gen", "--nodes", "4", "--objects", "3", "--size-lo", "1",
                 "--size-hi", "3", "--traffic-volume", "100",
                 "--trace", str(tmp / "trace.csv"), "--out", str(tmp / "inst")])
    assert code in EXIT_CODES


# Nested lists of numbers, strings, booleans and None, ragged ones included.
entries = st.one_of(
    st.integers(-1, 3),
    st.sampled_from([0.5, 2.9, 1e300, 2**63, 2**64, -(2**64), float("nan"), float("inf")]),
    st.floats(), st.integers(), st.booleans(), st.none(), st.sampled_from(["0", "1"]), text,
)
arrays = st.recursive(entries, lambda kids: st.lists(kids, max_size=4), max_leaves=12)


def grid(rows: int, cols: int):
    """Well-shaped ``rows`` x ``cols`` lists, which reach the checks past the shape."""
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


LIB_FUZZ = settings(max_examples=150, deadline=None)

MICRO_COSTS = [[0, 2, 5], [2, 0, 3], [5, 3, 0]]
MICRO_X = [[1, 0], [0, 0], [0, 1]]


@given(values=arrays, probs=arrays)
@example(values=[1, [2]], probs=[0.1, 0.1])
@example(values=[1, 2], probs=[0.1, [0.1]])
@LIB_FUZZ
def test_catalogs(values, probs):
    try:
        servers = ServerCatalog(values, probs)
    except ReplicaPlanError:
        pass
    else:
        assert servers.capacities.tolist() == values
        assert servers.failure_probs.tolist() == probs
    try:
        objects = ObjectCatalog(values, probs)
    except ReplicaPlanError:
        pass
    else:
        assert objects.sizes.tolist() == values
        assert objects.primaries.tolist() == probs


@given(l=st.one_of(arrays, grid(2, 2), grid(3, 3)))
@example(l=[[0, 2.9, 5], [2.9, 0, 3], [5, 3, 0]])
@example(l=[[0, float("nan")], [float("nan"), 0]])
@example(l=[[0, 2**64], [2**64, 0]])
@example(l=[["0", "1"], ["1", "0"]])
@example(l=[[0, 1], [1]])
@LIB_FUZZ
def test_cost_matrix(l):
    try:
        matrix = CostMatrix(len(l) if isinstance(l, list) else 1, l)
        matrix.validate()
    except ReplicaPlanError:
        return
    assert matrix.l.tolist() == l


@given(l=st.one_of(st.just(MICRO_COSTS), grid(3, 3)),
       traffic=st.one_of(st.just(MICRO_SCENARIO["traffic"]), arrays, grid(3, 2)),
       x=st.one_of(st.just(MICRO_X), arrays, grid(3, 2)))
@example(l=MICRO_COSTS, traffic=[[1, 2], [3]], x=MICRO_X)
@example(l=MICRO_COSTS, traffic=MICRO_SCENARIO["traffic"], x=[[1, 1], [0, -1], [0, 1]])
@example(l=MICRO_COSTS, traffic=MICRO_SCENARIO["traffic"], x=[[1, 0.5], [0, 0], [0, 1]])
@example(l=MICRO_COSTS, traffic=MICRO_SCENARIO["traffic"], x=[[1, 0], [0], [0, 1]])
@LIB_FUZZ
def test_placement_state(l, traffic, x):
    servers = ServerCatalog(MICRO_SCENARIO["capacities"], MICRO_SCENARIO["failure_probs"])
    objects = ObjectCatalog(MICRO_SCENARIO["sizes"], MICRO_SCENARIO["primaries"])
    try:
        state = PlacementState(CostMatrix(3, l), servers, objects, traffic, x)
    except ReplicaPlanError:
        return
    assert state.x.tolist() == x
    assert set(state.x.ravel().tolist()) <= {0, 1}
    assert state.traffic.tolist() == traffic

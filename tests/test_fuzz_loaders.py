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

import inspect
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_cli import MICRO_SCENARIO, MICRO_TOPOLOGY, solve_args, write_micro_instance
from replicaplan import (
    Add,
    CostMatrix,
    Evict,
    FailureTrace,
    Graph,
    ObjectCatalog,
    PlacementState,
    ReplicaPlanError,
    Scenario,
    ServerCatalog,
    StructuralError,
    TraceError,
    TraceRecord,
    action_from_dict,
    action_to_dict,
    assign_link_costs,
    availability_per_object,
    build_nearest_index,
    generate_ba_topology,
    generate_object_catalog,
    generate_traffic,
    load_failure_trace,
    load_placement,
    load_topology,
    replay_schedule,
    synthetic_availability,
    total_access_cost,
    trace_availability_for_servers,
    validate_placement,
)
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


# Files no JSON loader may read: cut JSON, a non-object, bytes that are not
# UTF-8, and nesting deeper than the parser's recursion limit.
BROKEN_JSON = {"truncated": b"{", "list": b"[1, 2]", "binary": b"\xff\xfe\x00",
               "deep": b"[" * 100_000}
JSON_LOADERS = {"scenario": Scenario.load, "topology": load_topology,
                "x_old": lambda path: load_placement(path, 3, 2)}


@pytest.mark.parametrize("content", BROKEN_JSON.values(), ids=BROKEN_JSON)
@pytest.mark.parametrize("what", sorted(JSON_LOADERS))
def test_json_loaders_refuse_broken_files(tmp_path, what, content):
    write_micro_instance(tmp_path)
    (tmp_path / "x_old.json").write_text('{"objects":[{"id":0,"replicators":[0]}]}')
    path = tmp_path / f"{what}.json"
    path.write_bytes(content)
    with pytest.raises(StructuralError, match=re.escape(str(path))):
        JSON_LOADERS[what](path)
    assert _solve(tmp_path, "aagro", "--x-old", str(tmp_path / "x_old.json")) == 1


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00",
    b"node_id,start,end,state\n0," + b"1" * 200_000 + b",2,up\n",  # over the csv field limit
], ids=["binary", "huge-field"])
def test_trace_loader_refuses_broken_files(tmp_path, content):
    path = tmp_path / "trace.csv"
    path.write_bytes(content)
    with pytest.raises(TraceError, match="not a CSV text file"):
        load_failure_trace(path)
    assert main(["gen", "--nodes", "4", "--objects", "3", "--trace", str(path),
                 "--out", str(tmp_path / "inst")]) == 1


# Nested lists of numbers, strings, booleans and None, ragged ones included.
entries = st.one_of(
    st.integers(-1, 3),
    st.sampled_from([0.5, 2.9, 1e300, 2**63, 2**64, -(2**64), float("nan"), float("inf")]),
    st.floats(), st.integers(), st.booleans(), st.none(), st.sampled_from(["0", "1"]), text,
)
arrays = st.recursive(entries, lambda kids: st.lists(kids, max_size=4), max_leaves=12)


def grid(rows: int, cols: int, values=entries):
    """Well-shaped ``rows`` x ``cols`` lists, which reach the checks past the shape."""
    return st.lists(st.lists(values, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


LIB_FUZZ = settings(max_examples=150, deadline=None)

MICRO_COSTS = [[0, 2, 5], [2, 0, 3], [5, 3, 0]]
MICRO_X = [[1, 0], [0, 0], [0, 1]]
MICRO_NEAREST = [[0, 2], [0, 2], [0, 2]]
# Small integers around the domain's edges: most such grids are accepted.
small = st.integers(-1, 3)


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


@given(l=st.one_of(arrays, grid(2, 2), grid(3, 3), grid(2, 3)))
@example(l=[[0, 2.9, 5], [2.9, 0, 3], [5, 3, 0]])
@example(l=[[0, float("nan")], [float("nan"), 0]])
@example(l=[[0, 2**64], [2**64, 0]])
@example(l=[["0", "1"], ["1", "0"]])
@example(l=[[0, 1], [1]])
@example(l=[[0, 1]])
@example(l=[[0]])
@LIB_FUZZ
def test_cost_matrix(l):
    """The size comes from the matrix, which must be square."""
    try:
        matrix = CostMatrix(l)
        matrix.validate()
    except ReplicaPlanError:
        return
    assert matrix.l.tolist() == l
    assert matrix.l.shape == (len(l), len(l))


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
        state = PlacementState(CostMatrix(l), servers, objects, traffic, x)
    except ReplicaPlanError:
        return
    assert state.x.tolist() == x
    assert set(state.x.ravel().tolist()) <= {0, 1}
    assert state.traffic.tolist() == traffic


HALF = [[1, 1], [0, 0]]  # both objects on server 0 alone
ZEROS = [[0, 0], [0, 0]]


@given(x=st.one_of(st.just(MICRO_X), arrays, grid(3, 2), grid(3, 2, small)),
       n=st.one_of(st.just(MICRO_NEAREST), arrays, grid(3, 2, small)),
       r=st.one_of(st.just(MICRO_SCENARIO["traffic"]), arrays, grid(3, 2), grid(3, 2, small)),
       l=st.one_of(st.just(MICRO_COSTS), arrays, grid(3, 3), grid(3, 3, small)))
@example(x=HALF, n=ZEROS, r=[[0, 0], [-5, 3]], l=[[0, 2], [2, 0]])
@example(x=HALF, n=ZEROS, r=[[0, 0], [1, 3]], l=[[0, -2], [-2, 0]])
@example(x=HALF, n=ZEROS, r=[[0, 0], [4, 4]], l=[[0, 2**62], [2**62, 0]])
@LIB_FUZZ
def test_total_access_cost(x, n, r, l):
    """An accepted total is the exact, non-negative sum of traffic times cost to the nearest id."""
    try:
        total = total_access_cost(x, n, r, l).total
    except ReplicaPlanError:
        return
    want = sum(int(l[j][int(n[j][k])]) * int(r[j][k])
               for j in range(len(x)) for k in range(len(x[j])))
    assert total == want >= 0


@given(x=st.one_of(st.just(MICRO_X), arrays, grid(3, 2), grid(3, 2, small)),
       l=st.one_of(st.just(MICRO_COSTS), arrays, grid(3, 3), grid(3, 3, small)))
@example(x=HALF, l=[[0, -2], [-2, 0]])
@LIB_FUZZ
def test_build_nearest_index(x, l):
    """Every accepted distance is non-negative and the cost to a replicator no other beats."""
    try:
        near, dist = build_nearest_index(x, l)
    except ReplicaPlanError:
        return
    for (j, k), i in np.ndenumerate(near):
        reps = [s for s in range(len(x)) if x[s][k] == 1]
        assert i in reps and dist[j, k] == l[j][i] == min(l[j][s] for s in reps) >= 0


@given(x=st.one_of(st.just([[1, 0], [0, 1]]), arrays, grid(2, 2), grid(2, 2, small)))
@example(x=[[1, 1], [-1, 1]])
@example(x=[[1, 0.5], [0, 1]])
@example(x=[[1, 0], [2, 1]])
@example(x=[[1, "1"], [0, 1]])
@LIB_FUZZ
def test_validate_placement(x):
    """An accepted placement holds only 0 and 1; the violations are its primaries' zeros."""
    servers, objects = ServerCatalog([20, 20], [0.1, 0.2]), ObjectCatalog([6, 6], [0, 1])
    try:
        violations = validate_placement(x, servers, objects)
    except ReplicaPlanError:
        return
    assert set(np.asarray(x).ravel().tolist()) <= {0, 1}
    assert [(v.kind, v.index) for v in violations] == [("primary", k) for k in (0, 1)
                                                       if x[k][k] != 1]


# Counts and bounds near the domain's edges: whole floats pass, anything else is refused.
counts = st.one_of(
    st.integers(-1, 6),
    st.sampled_from([2.0, 2.5, 1.5, -1.0, True, False, "3", None, [1], float("nan"),
                     float("inf")]),
)
TRIANGLE = Graph(3, ((0, 1, 1), (0, 2, 1), (1, 2, 1)))
TRACE = FailureTrace((TraceRecord(0, 0.0, 4.0, "down"), TraceRecord(5, 0.0, 4.0, "up")))
GENERATORS = {
    "generate_ba_topology": lambda n, m_links: generate_ba_topology(n, m_links, 0),
    "assign_link_costs": lambda lo, hi: assign_link_costs(TRIANGLE, lo, hi, 0),
    "generate_object_catalog": lambda n, lo, hi, servers: generate_object_catalog(
        n, lo, hi, servers, 1),
    "generate_traffic(uniform volume)": lambda volume: generate_traffic(
        2, 3, kind="uniform", total_volume=volume),
    "generate_traffic(zipf volume)": lambda volume: generate_traffic(
        2, 3, kind="zipf", total_volume=volume),
    "generate_traffic(zipf_skew)": lambda skew: generate_traffic(
        2, 3, kind="zipf", zipf_skew=skew),
    "generate_traffic(uniform)": lambda servers, objects: generate_traffic(
        servers, objects, kind="uniform", total_volume=10),
    "generate_traffic(zipf)": lambda servers, objects: generate_traffic(
        servers, objects, kind="zipf", total_volume=10),
    "synthetic_availability": lambda n: synthetic_availability(n, "constant:0.1", 1),
    "synthetic_availability(spec)": lambda spec: synthetic_availability(3, spec, 1),
    "trace_availability_for_servers": lambda n: trace_availability_for_servers(TRACE, n),
    "generate_ba_topology(seed)": lambda seed: generate_ba_topology(5, 1, seed),
    "assign_link_costs(seed)": lambda seed: assign_link_costs(TRIANGLE, 1, 3, seed),
    "generate_object_catalog(seed)": lambda seed: generate_object_catalog(3, 1, 2, 2, seed),
    "generate_traffic(seed)": lambda seed: generate_traffic(2, 3, total_volume=10, seed=seed),
    "synthetic_availability(seed)": lambda seed: synthetic_availability(3, "uniform:0:0.5", seed),
}
REAL_ARGUMENTS = {"generate_traffic(zipf_skew)"}  # any finite number passes, not only whole ones


@given(name=st.sampled_from(sorted(GENERATORS)), args=st.lists(counts, min_size=4, max_size=4))
@example(name="generate_ba_topology", args=[2.5, 1])
@example(name="generate_ba_topology", args=[5, 1.5])
@example(name="assign_link_costs", args=[1.5, 3])
@example(name="generate_object_catalog", args=[3, 1, 2, 2.5])
@example(name="generate_object_catalog", args=[2.5, 1, 2, 3])
@example(name="generate_traffic(zipf)", args=[2.5, 3])
@example(name="generate_traffic(uniform volume)", args=[2.5])
@example(name="generate_traffic(zipf volume)", args=[2.5])
@example(name="generate_traffic(zipf_skew)", args=["a"])
@example(name="generate_traffic(zipf_skew)", args=[None])
@example(name="synthetic_availability", args=[2.5])
@example(name="synthetic_availability(spec)", args=[5])
@example(name="trace_availability_for_servers", args=[2.5])
@example(name="generate_ba_topology(seed)", args=[1.5])
@example(name="assign_link_costs(seed)", args=[None])
@example(name="generate_object_catalog(seed)", args=[[1]])
@example(name="generate_traffic(seed)", args=[True])
@example(name="synthetic_availability(seed)", args=[None])
@LIB_FUZZ
def test_generators(name, args):
    """Every argument out of its domain is refused with a ReplicaPlanError.

    Counts, bounds and seeds must be whole numbers, the zipf skew a finite
    number and the availability spec a string.
    """
    generator = GENERATORS[name]
    args = args[:len(inspect.signature(generator).parameters)]
    try:
        generator(*args)
    except ReplicaPlanError:
        return
    for value in args:
        assert isinstance(value, (int, float)) and not isinstance(value, bool), value
        assert math.isfinite(value), value
        assert name in REAL_ARGUMENTS or float(value).is_integer(), value


# Interval times near the edges of a float, mixed with every other entry.
trace_times = st.one_of(entries, st.integers(-3, 12),
                        st.sampled_from([2**53 + 1, 10**400, 1e308, -1e308, 0.5]))
trace_records = st.tuples(st.one_of(st.integers(-1, 3), entries), trace_times, trace_times,
                          st.sampled_from(["up", "down", "DOWN", " up", "", None, 1]))


@given(records=st.lists(trace_records, max_size=5))
@example(records=[(0, 5, 5, "down")])
@example(records=[(0, 0.0, float("nan"), "down")])
@example(records=[(True, 0, 5, "up")])
@example(records=[(0, 0, 10, "up"), (0, 5, 15, "down")])
@example(records=[(0, -1e308, 0, "down"), (0, 0, 1e308, "down")])
@example(records=[(0, -1e308, 1e308, "up")])
@LIB_FUZZ
def test_failure_trace(records):
    """A trace built in code keeps what it accepts, and its estimate is a probability."""
    kept = []
    for node, start, end, state in records:
        try:
            rec = TraceRecord(node, start, end, state)
        except ReplicaPlanError:
            continue
        assert type(rec.node) is int and rec.node == node >= 0 and not isinstance(node, bool)
        assert type(rec.start) is float and type(rec.end) is float
        assert rec.start == start and rec.end == end
        assert rec.end > rec.start and rec.state == state in ("up", "down")
        kept.append(rec)
    try:
        trace = FailureTrace(kept)
    except ReplicaPlanError:
        return
    assert trace.records == tuple(kept)
    f = trace_availability_for_servers(trace, 3)
    assert ((0 <= f) & (f <= 0.99)).all()


ADD = {"action": "add", "server": 0, "object": 1, "source": 2, "transfer_cost": 5}


@given(payload=st.one_of(json_values, one_field_changed(ADD),
                         one_field_changed({"action": "evict", "server": 2, "object": 1})))
@example(payload={**ADD, "server": 1.7})
@example(payload={**ADD, "object": "1"})
@example(payload={**ADD, "source": True})
@example(payload={"action": "evict", "server": 2})
@LIB_FUZZ
def test_action_from_dict(payload):
    try:
        action = action_from_dict(payload)
    except ReplicaPlanError:
        return
    record = action_to_dict(action)
    assert record == {key: payload[key] for key in record}  # other keys are ignored
    assert all(type(v) is int for v in vars(action).values())


ids = st.one_of(st.integers(-4, 4), st.sampled_from([0.5, 1.0, True, None, "1", 2**64]))
actions = st.one_of(
    st.builds(Add, ids, ids, ids, st.integers(0, 9)),
    st.builds(Evict, ids, ids),
    st.sampled_from([None, ("add", 1, 0)]),
)


@given(schedule=st.lists(actions, max_size=4))
@example(schedule=[Add(-1, 0, 0, 0)])
@example(schedule=[Add(3, 0, 0, 0)])
@example(schedule=[Evict(0, -2)])
@example(schedule=[Add(1.0, 0, 0, 0), Evict(1, 0.0)])
@LIB_FUZZ
def test_replay_schedule(schedule):
    """Every accepted step names whole ids inside the placement and flips one entry as it says."""
    x_old = np.array(MICRO_X, dtype=np.int8)
    try:
        x = replay_schedule(x_old, schedule)
    except ReplicaPlanError:
        return
    want = [row[:] for row in MICRO_X]
    for action in schedule:
        ids = [action.server, action.object_id]
        if isinstance(action, Add):
            ids.append(action.source)
        assert not any(isinstance(v, bool) or not float(v).is_integer() for v in ids)
        i, k, *source = (int(v) for v in ids)
        assert 0 <= i < 3 and 0 <= k < 2 and all(0 <= s < 3 and want[s][k] for s in source)
        assert want[i][k] == int(isinstance(action, Evict))
        want[i][k] = int(isinstance(action, Add))
    assert x.tolist() == want
    assert x_old.tolist() == MICRO_X


@given(x=st.one_of(st.just(MICRO_X), arrays, grid(3, 2)),
       probs=st.one_of(st.just([0.1, 0.2, 0.01]), arrays, st.lists(entries, min_size=3,
                                                                    max_size=3)))
@example(x=[[1]], probs=[float("nan")])
@example(x=[[1]], probs=[1.5])
@example(x=MICRO_X, probs=[0.1, 0.2])
@LIB_FUZZ
def test_availability_per_object(x, probs):
    try:
        avail = availability_per_object(x, probs)
    except ReplicaPlanError:
        return
    f = np.array(probs, dtype=np.float64)
    held = np.array(x) != 0
    assert ((0 <= f) & (f < 1)).all() and held.shape[0] == f.size
    assert avail.tolist() == [1.0 - np.prod(f[held[:, k]]) for k in range(held.shape[1])]

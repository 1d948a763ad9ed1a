import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import brute_nearest, random_instance
from replicaplan import (
    CapacityError,
    ConstraintError,
    CostMatrix,
    ObjectCatalog,
    ParameterError,
    PlacementState,
    PreconditionError,
    Scenario,
    ServerCatalog,
    SolverConfig,
    StructuralError,
    build_nearest_index,
    load_placement,
    primary_only_placement,
    save_placement,
    solve,
    validate_placement,
)


def make_state(l, capacities, f, sizes, primaries, traffic, x=None):
    cost = CostMatrix(len(capacities), l)
    servers = ServerCatalog(capacities, f)
    objects = ObjectCatalog(sizes, primaries)
    if x is None:
        x = primary_only_placement(servers, objects)
    return PlacementState(cost, servers, objects, traffic, x)


class TestCatalogs:
    def test_capacity_positive(self):
        with pytest.raises(ParameterError):
            ServerCatalog([10, 0], [0.1, 0.1])

    def test_failure_prob_domain(self):
        with pytest.raises(ParameterError):
            ServerCatalog([10], [1.0])
        with pytest.raises(ParameterError):
            ServerCatalog([10], [-0.1])
        with pytest.raises(ParameterError):
            ServerCatalog([10], [float("nan")])

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            ServerCatalog([10, 10], [0.1])

    def test_object_sizes_positive(self):
        with pytest.raises(ParameterError):
            ObjectCatalog([0], [0])

    @pytest.mark.parametrize("bad", [1.7, float("nan"), float("inf"), 1e30, 2**70, "5"])
    def test_non_integral_inputs_rejected(self, micro, bad):
        # An int64 cast would truncate 1.7 to 1 and wrap the rest silently.
        with pytest.raises(ParameterError):
            CostMatrix(2, [[0, bad], [bad, 0]])
        with pytest.raises(ParameterError):
            ObjectCatalog([bad], [0])
        with pytest.raises(ParameterError):
            ObjectCatalog([10], [bad])
        with pytest.raises(ParameterError):
            ServerCatalog([bad], [0.1])
        traffic = [[bad, 0], [0, 0], [0, 0]]
        with pytest.raises(ParameterError):
            Scenario(micro.servers, micro.objects, traffic)
        with pytest.raises(ParameterError):
            PlacementState(micro.cost, micro.servers, micro.objects, traffic,
                           primary_only_placement(micro.servers, micro.objects))

    @pytest.mark.parametrize("bad", [{}, "0.1", None, False])
    def test_non_numeric_failure_probs_rejected(self, bad):
        # A float64 cast raises TypeError on {} and reads "0.1" as 0.1.
        with pytest.raises(ParameterError):
            ServerCatalog([10], [bad])

    def test_size_total_must_stay_below_int64(self):
        # 2**62 + 2**62 bytes on one server would wrap its load to -2**63.
        with pytest.raises(ParameterError, match=r"2\*\*63"):
            ObjectCatalog([2**62, 2**62], [0, 0])
        objects = ObjectCatalog([2**62, 2**62 - 1], [0, 0])
        servers = ServerCatalog([2**62, 2**62], [0.1, 0.1])
        with pytest.raises(CapacityError):
            primary_only_placement(servers, objects)
        x = np.array([[1, 1], [0, 0]], dtype=np.int8)
        violations = validate_placement(x, servers, objects)
        assert [(v.kind, v.index) for v in violations] == [("storage", 0)]
        assert str(2**63 - 1) in violations[0].detail

    def test_integral_floats_accepted(self):
        assert ObjectCatalog([10.0, 2], [0, 0]).sizes.tolist() == [10, 2]
        assert ServerCatalog([30.0], [0.1]).capacities.tolist() == [30]
        assert CostMatrix(2, [[0, 3.0], [3.0, 0]]).l.tolist() == [[0, 3], [3, 0]]

    @pytest.mark.parametrize("build", [
        lambda: ServerCatalog([1, [2]], [0.1, 0.1]),
        lambda: ServerCatalog([1, 2], [0.1, [0.1]]),
        lambda: ObjectCatalog([1, 2], [0, [0]]),
        lambda: CostMatrix(2, [[0, 1], [1]]),
    ])
    def test_ragged_inputs_rejected(self, build):
        with pytest.raises(StructuralError, match="rectangular"):
            build()


class TestScenario:
    def test_round_trip(self, micro, tmp_path):
        scenario = Scenario(micro.servers, micro.objects, micro.traffic, meta={"note": "x"})
        path = tmp_path / "scenario.json"
        scenario.save(path)
        again = Scenario.load(path)
        assert (again.traffic == micro.traffic).all()
        assert (again.servers.capacities == micro.servers.capacities).all()
        assert (again.servers.failure_probs == micro.servers.failure_probs).all()
        assert (again.objects.primaries == micro.objects.primaries).all()
        assert again.meta == {"note": "x"}

    def test_primary_out_of_range(self, micro):
        with pytest.raises(ParameterError):
            Scenario(micro.servers, ObjectCatalog([10], [7]), [[0], [0], [0]])

    def test_ragged_traffic_file_rejected(self, micro, tmp_path):
        path = tmp_path / "scenario.json"
        Scenario(micro.servers, micro.objects, micro.traffic).save(path)
        payload = json.loads(path.read_text())
        payload["traffic"] = [[1, 2], [3]]
        path.write_text(json.dumps(payload))
        with pytest.raises(StructuralError, match="rectangular"):
            Scenario.load(path)

    def test_negative_traffic(self, micro):
        bad = np.array([[0, -1], [0, 0], [0, 0]])
        with pytest.raises(ParameterError):
            Scenario(micro.servers, micro.objects, bad)


class TestValidatePlacement:
    def test_valid(self, micro):
        x = primary_only_placement(micro.servers, micro.objects)
        assert validate_placement(x, micro.servers, micro.objects) == []

    def test_storage_violation(self, micro):
        tight = micro.with_capacities([25, 30, 30])
        x = primary_only_placement(tight.servers, tight.objects)
        x[0, 1] = 1  # 10 + 20 > 25
        violations = validate_placement(x, tight.servers, tight.objects)
        assert [(v.kind, v.index) for v in violations] == [("storage", 0)]

    def test_primary_violation(self, micro):
        x = primary_only_placement(micro.servers, micro.objects)
        x[2, 1] = 0
        violations = validate_placement(x, micro.servers, micro.objects)
        assert [(v.kind, v.index) for v in violations] == [("primary", 1)]

    def test_shape_guard(self, micro):
        with pytest.raises(StructuralError):
            validate_placement(np.zeros((2, 2)), micro.servers, micro.objects)

    # Servers 0 and 1 over capacity, object 1 off its primary server 2.
    BROKEN = np.array([[1, 1], [0, 1], [0, 0]], dtype=np.int8)

    def test_full_check_lists_storage_then_primaries(self, micro):
        tight = micro.with_capacities([25, 15, 30])
        violations = validate_placement(self.BROKEN, tight.servers, tight.objects)
        assert [(v.kind, v.index, v.detail) for v in violations] == [
            ("storage", 0, "server 0 stores 30 bytes over capacity 25"),
            ("storage", 1, "server 1 stores 20 bytes over capacity 15"),
            ("primary", 1, "object 1 has no replica on its primary server 2"),
        ]

    @pytest.mark.parametrize("rows, cols, expected", [
        ([1], [1], [("storage", 1), ("primary", 1)]),
        ([0], None, [("storage", 0), ("primary", 1)]),
        (None, [0], [("storage", 0), ("storage", 1)]),
        ([2], [0], []),
        ([], [], []),
    ])
    def test_narrowed_check_sees_only_listed(self, micro, rows, cols, expected):
        tight = micro.with_capacities([25, 15, 30])
        violations = validate_placement(self.BROKEN, tight.servers, tight.objects,
                                        rows=rows, cols=cols)
        assert [(v.kind, v.index) for v in violations] == expected

    @pytest.mark.parametrize("narrowed, error", [
        ({"rows": [3]}, StructuralError),
        ({"cols": [-1]}, StructuralError),
        ({"rows": [0.5]}, ParameterError),
        ({"cols": ["0"]}, ParameterError),
    ])
    def test_narrowed_check_refuses_bad_indices(self, micro, narrowed, error):
        x = primary_only_placement(micro.servers, micro.objects)
        with pytest.raises(error):
            validate_placement(x, micro.servers, micro.objects, **narrowed)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_narrowed_check_filters_full_check(self, seed):
        """A narrowed call returns the full list's entries on the listed rows and columns."""
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic = random_instance(rng, m_max=5, n_max=5)
        servers, objects = ServerCatalog(capacities, f), ObjectCatalog(sizes, primaries)
        m, n = len(capacities), len(sizes)
        x = np.array([[rng.randint(0, 1) for _ in range(n)] for _ in range(m)], dtype=np.int8)
        rows = [i for i in range(m) if rng.random() < 0.5]
        cols = [k for k in range(n) if rng.random() < 0.5]
        full = validate_placement(x, servers, objects)
        assert validate_placement(x, servers, objects, rows=range(m), cols=range(n)) == full
        assert validate_placement(x, servers, objects, rows=rows, cols=cols) == [
            v for v in full if v.index in (rows if v.kind == "storage" else cols)]


class TestPrimaryOnly:
    def test_micro(self, micro):
        x = primary_only_placement(micro.servers, micro.objects)
        assert x.tolist() == [[1, 0], [0, 0], [0, 1]]
        assert x.sum() == 2

    def test_primary_does_not_fit(self, micro):
        tight = micro.with_capacities([30, 30, 19])
        with pytest.raises(CapacityError):
            primary_only_placement(tight.servers, tight.objects)


class TestNearest:
    def test_from_primary_only(self, micro):
        x = primary_only_placement(micro.servers, micro.objects)
        near = build_nearest_index(x, micro.cost.l)[0]
        assert near[1, 0] == 0
        assert near[1, 1] == 2

    def test_replicator_sees_itself(self, micro):
        x = primary_only_placement(micro.servers, micro.objects)
        assert build_nearest_index(x, micro.cost.l)[0][0, 0] == 0

    def test_tie_goes_to_lower_id(self):
        l = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        x = np.array([[0], [1], [1]])
        assert build_nearest_index(x, np.array(l))[0][0, 0] == 1

    def test_empty_column(self, micro):
        x = np.zeros((3, 2), dtype=np.int8)
        with pytest.raises(StructuralError):
            build_nearest_index(x, micro.cost.l)


class TestIncrementalIndex:
    def test_add_updates_column(self, micro):
        state = micro.state()
        assert state.n[:, 1].tolist() == [2, 2, 2]
        changed = state.add_replica(0, 1)
        assert state.n[:, 1].tolist() == [0, 0, 2]
        assert sorted(changed.tolist()) == [0, 1]
        assert state.free.tolist() == [0, 30, 10]
        assert state.replica_counts.tolist() == [1, 2]

    def test_add_then_remove_is_identity(self, micro):
        state = micro.state()
        before_n, before_d = state.n.copy(), state.d.copy()
        state.add_replica(1, 0)
        state.remove_replica(1, 0)
        assert (state.n == before_n).all()
        assert (state.d == before_d).all()
        assert state.free.tolist() == [20, 30, 10]

    def test_add_existing_rejected(self, micro):
        state = micro.state()
        with pytest.raises(PreconditionError):
            state.add_replica(0, 0)

    def test_add_without_space_rejected(self, micro):
        tight = micro.with_capacities([25, 30, 30])
        state = tight.state()
        with pytest.raises(CapacityError):
            state.add_replica(0, 1)

    def test_remove_absent_rejected(self, micro):
        state = micro.state()
        with pytest.raises(PreconditionError):
            state.remove_replica(1, 0)

    def test_remove_primary_rejected(self, micro):
        state = micro.state()
        with pytest.raises(ConstraintError):
            state.remove_replica(0, 0)

    def test_invalid_start_rejected(self, micro):
        x = np.zeros((3, 2), dtype=np.int8)
        with pytest.raises(ConstraintError):
            micro.state(x)

    @pytest.mark.parametrize("bad", [-1, 2, 0.5])
    def test_non_binary_start_rejected(self, micro, bad):
        # -1 and 2 would survive the int8 cast and corrupt free space and
        # replica counts; 0.5 would be truncated to 0.
        x = [[1, 1], [0, bad], [0, 1]]
        with pytest.raises(ParameterError, match="placement"):
            micro.state(x)

    def test_ragged_start_rejected(self, micro):
        with pytest.raises(StructuralError, match="rectangular"):
            micro.state([[1, 0], [0], [0, 1]])

    def test_negative_link_cost_rejected(self):
        with pytest.raises(ParameterError):
            make_state([[0, -5], [-5, 0]], [10, 10], [0.1, 0.1], [1], [0], [[1], [1]])

    def test_int64_overflow_rejected(self):
        l = [[0, 10**9], [10**9, 0]]
        # 1e9 x 1e10 would wrap the access cost to -8446744073709551616.
        with pytest.raises(ParameterError, match="total traffic"):
            make_state(l, [10, 10], [0.1, 0.1], [1], [0], [[0], [10**10]])
        with pytest.raises(ParameterError, match="object size"):
            make_state(l, [2**40, 10], [0.1, 0.1], [2**40], [0], [[0], [1]])
        state = make_state(l, [10, 10], [0.1, 0.1], [1], [0], [[0], [9 * 10**9]])
        result = solve(state, SolverConfig(algorithm="gg"))
        assert result.c_old == 9 * 10**18
        assert result.c_new == 0

    @staticmethod
    def walk(state, rng, steps):
        """Random adds and drops, each checked against a rebuild from ``x``."""
        for _ in range(steps):
            i = rng.randrange(state.servers.count)
            k = rng.randrange(state.objects.count)
            n_old, d_old = state.n.copy(), state.d.copy()
            if state.x[i, k] == 0 and state.free[i] >= state.objects.sizes[k]:
                changed = state.add_replica(i, k)
            elif state.x[i, k] == 1 and int(state.objects.primaries[k]) != i:
                changed = state.remove_replica(i, k)
            else:
                continue
            moved = (state.n != n_old) | (state.d != d_old)
            assert np.flatnonzero(moved.any(axis=0)).tolist() in ([], [k])
            assert changed.tolist() == np.flatnonzero(moved[:, k]).tolist()
            assert (state.free == state.servers.capacities - state.x @ state.objects.sizes).all()
            assert (state.replica_counts == state.x.sum(axis=0)).all()
            n_ref, d_ref = build_nearest_index(state.x, state.l)
            assert (state.n == n_ref).all()
            assert (state.d == d_ref).all()
            for j in range(state.servers.count):
                for kk in range(state.objects.count):
                    nearest = brute_nearest(state.x, state.l, j, kk)
                    assert state.n[j, kk] == nearest
                    assert state.d[j, kk] == state.l[j, nearest]
            assert validate_placement(state.x, state.servers, state.objects) == []

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_random_walk_matches_rebuild(self, seed):
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic = random_instance(
            rng, m_max=5, n_max=4
        )
        self.walk(make_state(l, capacities, f, sizes, primaries, traffic), rng, 12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_equal_link_costs_tie_to_lowest_id(self, seed):
        """Every replicator is equally near, so each add and drop is a tie."""
        rng = random.Random(seed)
        m, n = rng.randint(2, 6), rng.randint(1, 4)
        l = 1 - np.eye(m, dtype=np.int64)
        primaries = [rng.randrange(m) for _ in range(n)]
        traffic = np.ones((m, n), dtype=np.int64)
        state = make_state(l, [n] * m, [0.1] * m, [1] * n, primaries, traffic)
        self.walk(state, rng, 30)

    def test_copy_is_independent(self, micro):
        state = micro.state()
        dup = state.copy()
        dup.add_replica(1, 1)
        dup.add_replica(1, 0)
        fresh = micro.state()
        for name in ("x", "n", "d", "free", "replica_counts"):
            assert (getattr(state, name) == getattr(fresh, name)).all(), name
            assert not (getattr(dup, name) == getattr(fresh, name)).all(), name

    def test_replicator_maps_to_itself(self, micro):
        state = micro.state()
        state.add_replica(1, 1)
        for i in range(3):
            for k in range(2):
                if state.x[i, k]:
                    assert state.n[i, k] == i
                    assert state.d[i, k] == 0


class TestPlacementFiles:
    def test_round_trip_sorted(self, micro, tmp_path):
        state = micro.state()
        state.add_replica(1, 1)
        path = tmp_path / "placement.json"
        save_placement(state.x, path)
        text = path.read_text()
        assert '"replicators":[1,2]' in text
        again = load_placement(path, 3, 2)
        assert (again == state.x).all()

    @pytest.mark.parametrize("entry", [{"id": 0.7, "replicators": [0]},
                                       {"id": 0, "replicators": [1.9]},
                                       {"id": 0, "replicators": [True]}])
    def test_non_integer_ids_refused(self, tmp_path, entry):
        path = tmp_path / "placement.json"
        path.write_text(json.dumps({"objects": [entry]}))
        with pytest.raises(StructuralError, match="must be an integer"):
            load_placement(path, 3, 1)

    def test_integral_float_ids_accepted(self, tmp_path):
        path = tmp_path / "placement.json"
        path.write_text('{"objects":[{"id":1.0,"replicators":[2.0]}]}')
        assert load_placement(path, 3, 2).tolist() == [[0, 0], [0, 0], [0, 1]]

    def test_unknown_server_rejected(self, tmp_path):
        path = tmp_path / "placement.json"
        path.write_text('{"objects":[{"id":0,"replicators":[9]}]}')
        with pytest.raises(StructuralError):
            load_placement(path, 3, 1)

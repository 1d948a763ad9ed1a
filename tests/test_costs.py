import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import brute_availability, brute_object_cost, brute_total_cost, random_instance
from test_model import make_state
from replicaplan import (
    StructuralError,
    availability_per_object,
    primary_only_placement,
    total_access_cost,
)
from replicaplan.costs import SEMANTICS, replicator_availability
from replicaplan.heuristics import _delta


def object_cost(state, k) -> int:
    """Access cost of object ``k`` alone: the total with every other column's traffic zeroed."""
    r = np.zeros_like(state.traffic)
    r[:, k] = state.traffic[:, k]
    return total_access_cost(state.x, state.n, r, state.l).total


class TestAccessCost:
    def test_per_object_on_micro(self, micro):
        state = micro.state()
        x, r, l = state.x.tolist(), state.traffic.tolist(), state.l.tolist()
        assert object_cost(state, 0) == brute_object_cost(0, x, r, l) == 130
        assert object_cost(state, 1) == brute_object_cost(1, x, r, l) == 360

    def test_total_on_micro(self, micro):
        state = micro.state()
        report = total_access_cost(state.x, state.n, state.traffic, state.l)
        assert report.total == brute_total_cost(state.x.tolist(), state.traffic.tolist(),
                                                state.l.tolist()) == 490

    def test_full_replication_is_free(self, micro):
        state = micro.state()
        state.add_replica(1, 0)
        state.add_replica(2, 0)
        assert object_cost(state, 0) == 0

    def test_zero_traffic(self, micro):
        state = make_state(
            micro.cost.l, [30, 30, 30], [0.1, 0.2, 0.01], [10, 20], [0, 2],
            np.zeros((3, 2), dtype=np.int64),
        )
        assert total_access_cost(state.x, state.n, state.traffic, state.l).total == 0

    def test_empty_column_rejected(self, micro):
        state = micro.state()
        x = state.x.copy()
        x[2, 1] = 0
        with pytest.raises(StructuralError):
            total_access_cost(x, state.n, state.traffic, state.l)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic = random_instance(rng, m_max=5, n_max=4)
        state = make_state(l, capacities, f, sizes, primaries, traffic)
        report = total_access_cost(state.x, state.n, state.traffic, state.l)
        assert report.total == brute_total_cost(state.x.tolist(), traffic, l.tolist())
        for k in range(state.objects.count):
            assert object_cost(state, k) == brute_object_cost(
                k, state.x.tolist(), traffic, l.tolist()
            )


class TestDeltaOfAdd:
    """The planner engine's ``delta`` kernel: access saving of one add."""

    def test_micro_values(self, micro):
        state = micro.state()
        assert _delta(state, slice(1, 2))[0, 0] == 320
        assert _delta(state, slice(0, 1))[1, 0] == 100

    @given(seed=st.integers(0, 10_000), asymmetric=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_equals_full_recompute(self, seed, asymmetric):
        """``l[j, i]`` is j's cost to reach i; an asymmetric matrix tells it from ``l.T``."""
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic = random_instance(
            rng, m_max=6, n_max=5, slack_max=30
        )
        if asymmetric:
            l = np.array([[c + (rng.randint(0, 4) if a != b else 0) for b, c in enumerate(row)]
                          for a, row in enumerate(l.tolist())])
        state = make_state(l, capacities, f, sizes, primaries, traffic)
        zeros = np.argwhere(state.x == 0)
        if zeros.size == 0:
            return
        i, k = (int(v) for v in zeros[rng.randrange(len(zeros))])
        predicted = int(_delta(state, slice(k, k + 1))[i, 0])
        before = brute_total_cost(state.x.tolist(), traffic, l.tolist())
        trial = state.x.copy()
        trial[i, k] = 1
        after = brute_total_cost(trial.tolist(), traffic, l.tolist())
        assert predicted == before - after

    def test_peak_memory_stays_per_column(self):
        """Set-up over every column holds the result plus M x M temporaries, no M x M x N."""
        rng = np.random.default_rng(3)
        m, n = 40, 600
        l = rng.integers(1, 50, size=(m, m))
        np.fill_diagonal(l, 0)
        state = make_state(l, [10**6] * m, [0.1] * m, [1] * n, rng.integers(0, m, size=n),
                           rng.integers(0, 1000, size=(m, n)))
        tracemalloc.start()
        try:
            _delta(state, slice(None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * m * n * 8 + 16 * m * m * 8

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_add_never_hurts_remove_never_helps(self, seed):
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic = random_instance(rng, m_max=5, n_max=4)
        state = make_state(l, capacities, f, sizes, primaries, traffic)
        base = brute_total_cost(state.x.tolist(), traffic, l.tolist())
        for i in range(state.servers.count):
            for k in range(state.objects.count):
                trial = state.x.copy()
                if state.x[i, k] == 0:
                    trial[i, k] = 1
                    assert brute_total_cost(trial.tolist(), traffic, l.tolist()) <= base
                elif int(state.objects.primaries[k]) != i:
                    trial[i, k] = 0
                    assert brute_total_cost(trial.tolist(), traffic, l.tolist()) >= base


class TestAvailability:
    def test_single_replicator(self, micro):
        x = primary_only_placement(micro.servers, micro.objects)
        assert availability_per_object(x, micro.servers.failure_probs)[1] == pytest.approx(0.99)

    def test_extra_replica_raises_availability(self, micro):
        x = primary_only_placement(micro.servers, micro.objects)
        x[0, 1] = 1
        value = availability_per_object(x, micro.servers.failure_probs)[1]
        assert value == pytest.approx(0.999)

    def test_perfect_server_dominates(self, micro):
        inst = micro.with_failure_probs([0.0, 0.2, 0.01])
        x = primary_only_placement(inst.servers, inst.objects)
        assert availability_per_object(x, inst.servers.failure_probs)[0] == 1.0

    def test_literal_semantics_multiplies_availabilities(self, micro):
        x = primary_only_placement(micro.servers, micro.objects)
        x[0, 1] = 1
        value = availability_per_object(x, micro.servers.failure_probs, semantics="literal")[1]
        assert value == pytest.approx(0.9 * 0.99)

    def test_empty_column_rejected(self, micro):
        x = np.zeros((3, 2), dtype=np.int8)
        with pytest.raises(StructuralError):
            availability_per_object(x, micro.servers.failure_probs)[0]

    @given(seed=st.integers(0, 10_000))
    @example(seed=0)  # the micro placement with one extra replica
    @settings(max_examples=60, deadline=None)
    def test_vectorized_matches_scalar(self, seed):
        """Both entry points equal the product over sorted replicator ids, bit for bit."""
        if seed == 0:
            f = np.array([0.1, 0.2, 0.01])
            x = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int8)
        else:
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(1, 201)), int(rng.integers(1, 6))
            f = np.where(rng.random(m) < 0.1, 0.0, rng.uniform(0.0, 0.99, m))
            x = (rng.random((m, n)) < rng.uniform(0.0, 0.5)).astype(np.int8)
            x[rng.integers(0, m, n), np.arange(n)] = 1
        for semantics in SEMANTICS:
            vec = availability_per_object(x, f, semantics)
            for k in range(x.shape[1]):
                reps = np.flatnonzero(x[:, k])
                want = brute_availability(reps.tolist(), f, semantics)
                assert vec[k] == want
                assert replicator_availability(f, reps, semantics) == want

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_superset_never_less_available(self, seed):
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic = random_instance(rng, m_max=5, n_max=3)
        state = make_state(l, capacities, f, sizes, primaries, traffic)
        x = state.x.copy()
        k = rng.randrange(state.objects.count)
        candidates = np.flatnonzero(x[:, k] == 0)
        if candidates.size == 0:
            return
        before = availability_per_object(x, state.servers.failure_probs)[k]
        x[int(candidates[0]), k] = 1
        after = availability_per_object(x, state.servers.failure_probs)[k]
        assert after >= before - 1e-12

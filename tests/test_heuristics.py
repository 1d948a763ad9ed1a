import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (
    TOL,
    BruteGreedy,
    brute_availability,
    brute_total_cost,
    dijkstra_matrix,
    random_connected_graph,
    random_instance,
)
from test_model import make_state
from replicaplan import (
    Add,
    CostMatrix,
    Evict,
    ObjectCatalog,
    ParameterError,
    PlacementState,
    Scenario,
    ServerCatalog,
    SolverConfig,
    StructuralError,
    action_from_dict,
    action_to_dict,
    all_pairs_shortest_paths,
    load_topology,
    primary_only_placement,
    replay_schedule,
    solve,
    validate_placement,
)
from replicaplan import heuristics
from replicaplan.cli import main
from replicaplan.costs import SEMANTICS
from replicaplan.heuristics import SCOPES, _GreedyEngine

AAGG = SolverConfig(algorithm="aagg")
GG = SolverConfig(algorithm="gg")


def schedule_tuples(schedule):
    out = []
    for action in schedule:
        if isinstance(action, Add):
            out.append(("add", action.server, action.object_id,
                        action.source, action.transfer_cost))
        else:
            out.append(("evict", action.server, action.object_id))
    return out


def injection_instance():
    """Full-server path instance where one profitable add degrades an evictee.

    Moving the hot object onto the middle server requires evicting the only
    other replica of a second object, dropping that object's availability.
    """
    l = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    capacities = [10, 10, 10]
    f = [0.3, 0.2, 0.1]
    sizes = [10, 10]
    primaries = [2, 0]
    traffic = np.array([[0, 0], [1000, 5], [0, 0]])
    x = np.array([[0, 1], [0, 1], [1, 0]], dtype=np.int8)
    return make_state(l, capacities, f, sizes, primaries, traffic, x=x)


class TestAaggOnMicro:
    def test_exact_trace(self, micro):
        result = solve(micro.state(), AAGG)
        assert list(result.schedule) == [
            Add(server=0, object_id=1, source=2, transfer_cost=100),
            Add(server=1, object_id=0, source=0, transfer_cost=20),
        ]
        assert result.c_old == 490
        assert result.c_new == 70
        assert result.impl_cost_total == 120
        assert result.benefit_total == 262.0
        assert [s.benefit for s in result.steps] == [198.0, 64.0]
        assert all(type(s.benefit) is float for s in result.steps)
        assert result.flips == 2
        assert result.evictions == 0

    def test_steps_monotone(self, micro):
        result = solve(micro.state(), AAGG)
        cs = [result.c_old] + [s.c_after for s in result.steps]
        assert cs[0] == 490 and cs[-1] == result.c_new
        assert all(a > b for a, b in zip(cs, cs[1:]))

    def test_replay_reproduces_placement(self, micro):
        state = micro.state()
        x_old = state.x.copy()
        result = solve(state, AAGG)
        assert np.array_equal(replay_schedule(x_old, result.schedule), result.x_new)
        assert np.array_equal(state.x, x_old)  # input untouched

    def test_replica_cap_one_is_identity(self, micro):
        state = micro.state()
        result = solve(state, SolverConfig(algorithm="aagg", max_replicas_per_object=1))
        assert result.schedule == ()
        assert result.c_new == result.c_old == 490
        assert np.array_equal(result.x_new, state.x)

    def test_zero_traffic_is_identity(self, micro):
        state = make_state(
            micro.cost.l, [30, 30, 30], [0.1, 0.2, 0.01], [10, 20], [0, 2],
            np.zeros((3, 2), dtype=np.int64),
        )
        result = solve(state, AAGG)
        assert result.schedule == ()
        assert result.c_new == result.c_old == 0

    def test_tight_server_blocks_guarded_eviction(self, micro):
        # With 25 bytes on server 0 the big object cannot land there: the only
        # resident replica is server 0's own primary, which may not be evicted.
        inst = micro.with_capacities([25, 30, 30])
        result = solve(inst.state(), AAGG)
        assert list(result.schedule) == [
            Add(server=1, object_id=1, source=2, transfer_cost=60),
            Add(server=1, object_id=0, source=0, transfer_cost=20),
        ]
        assert [s.c_after for s in result.steps] == [250, 150]
        assert result.c_new == 150
        assert result.benefit_total == 208.0

    def test_json_round_trip(self, micro):
        result = solve(micro.state(), AAGG)
        payload = result.to_json_dict()
        assert payload["c_new"] == 70 and payload["flips"] == 2
        rebuilt = [action_from_dict(d) for d in payload["schedule"]]
        assert rebuilt == list(result.schedule)


class TestResultJson:
    """``result.json`` record keys, derived from the record fields."""

    def test_record_keys(self, micro):
        payload = solve(micro.state(), AAGG).to_json_dict()
        assert sorted(payload) == ["benefit_total", "c_new", "c_old", "evictions", "flips",
                                   "impl_cost_total", "iterations", "schedule", "steps"]
        assert payload["schedule"][0] == {"action": "add", "server": 0, "object": 1,
                                          "source": 2, "transfer_cost": 100}
        assert payload["steps"][0] == {"server": 0, "object": 1, "c_before": 490,
                                       "c_after": 170, "transfer_cost": 100, "benefit": 198.0}
        evict = {"action": "evict", "server": 2, "object": 1}
        assert action_to_dict(Evict(2, 1)) == evict
        assert action_from_dict(evict) == Evict(2, 1)

    def test_unknown_action(self):
        with pytest.raises(ParameterError, match="unknown schedule action"):
            action_from_dict({"action": "move", "server": 0, "object": 0})

    @pytest.mark.parametrize("field", ["server", "object", "source", "transfer_cost"])
    @pytest.mark.parametrize("value", [1.7, "1", True, None, [1], float("nan")])
    def test_fields_must_be_whole_numbers(self, field, value):
        # ``int()`` used to read 1.7, "1" and True as 1.
        add = {"action": "add", "server": 0, "object": 1, "source": 2, "transfer_cost": 5}
        with pytest.raises(ParameterError, match="must be an integer"):
            action_from_dict({**add, field: value})

    @pytest.mark.parametrize("payload", [
        {"action": "add", "server": 0, "object": 1, "source": 2},
        {"action": "evict", "server": 0},
        {"server": 0, "object": 1},
        [("action", "evict")],
        None,
    ])
    def test_missing_fields_and_non_objects(self, payload):
        # A missing field used to raise KeyError.
        with pytest.raises(ParameterError):
            action_from_dict(payload)

    def test_whole_floats_are_read_as_ints(self):
        action = action_from_dict({"action": "evict", "server": 2.0, "object": 1})
        assert action == Evict(2, 1) and type(action.server) is int


class TestReplay:
    X_OLD = np.array([[1, 0], [0, 0], [0, 1]], dtype=np.int8)

    @pytest.mark.parametrize("action", [
        Add(-1, 0, 0, 0),   # used to replay onto the last row
        Add(3, 0, 0, 0),    # used to raise IndexError
        Add(1, 0, -3, 0),
        Add(1, 0, 3, 0),
        Add(1, -1, 2, 0),
        Add(1, 2, 0, 0),
        Evict(-1, 1),
        Evict(0, -2),       # used to evict object 0
        Evict(5, 1),
        Evict(0, 2),
        Add(1, 0.5, 0, 0),
        Evict(True, 1),
    ])
    def test_ids_outside_the_placement_are_refused(self, action):
        with pytest.raises(StructuralError):
            replay_schedule(self.X_OLD, [action])

    def test_evictee_must_be_held(self):
        with pytest.raises(StructuralError, match="absent from server 1"):
            replay_schedule(self.X_OLD, [Evict(1, 0)])

    def test_source_must_hold_the_object(self):
        with pytest.raises(StructuralError, match="non-replicator"):
            replay_schedule(self.X_OLD, [Add(1, 0, 2, 0)])

    def test_unknown_action(self):
        with pytest.raises(ParameterError, match="unknown schedule action"):
            replay_schedule(self.X_OLD, [("add", 1, 0)])

    @pytest.mark.parametrize("schedule", [None, 5])
    def test_schedule_must_be_iterable(self, schedule):
        # Used to raise an untyped TypeError: "object is not iterable".
        with pytest.raises(ParameterError, match="iterable"):
            replay_schedule(self.X_OLD, schedule)

    @pytest.mark.parametrize("x_old", [
        [[1.7, 0.2], [0, 1]],  # used to replay as [[1, 0], [0, 1]]
        [[2, 0], [0, 1]],
        [[1, -1], [0, 1]],
    ])
    def test_x_old_entries_must_be_0_or_1(self, x_old):
        with pytest.raises(ParameterError, match="placement"):
            replay_schedule(x_old, [])

    def test_ragged_x_old_is_structural(self):
        # Used to raise numpy's untyped ValueError.
        with pytest.raises(StructuralError, match="rectangular"):
            replay_schedule([[1, 0], [1]], [])

    def test_valid_schedule(self):
        x = replay_schedule(self.X_OLD, [Add(1, 0, 0, 2), Evict(1, 0), Add(1, 1, 2, 3)])
        assert x.tolist() == [[1, 0], [0, 1], [0, 1]]
        assert self.X_OLD.tolist() == [[1, 0], [0, 0], [0, 1]]


class TestCommitCheck:
    @pytest.mark.parametrize("config", [AAGG, GG])
    @pytest.mark.parametrize("evicts", [False, True])
    def test_diverged_score_is_refused(self, micro, config, evicts):
        """A winner committed with any score but its own raises, evictions or not."""
        state = injection_instance() if evicts else micro.state()
        engine = _GreedyEngine(state, config)
        i, k, score = engine._sweep(slice(0, state.objects.count))
        assert (engine.st.free[i] < engine.st.objects.sizes[k]) == evicts
        with pytest.raises(RuntimeError, match="diverged from its score"):
            engine._commit(i, k, score + 1)

    @pytest.mark.parametrize("algorithm", ["aagg", "aagro", "gg", "gro"])
    def test_one_narrowed_placement_check_per_commit(self, monkeypatch, algorithm):
        """Each commit checks only its server's storage and its objects' primaries.

        The expected calls are rebuilt from the schedule: a commit is its
        evictions followed by its add, all on one server.
        """
        calls = []

        def spy(x, servers, objects, **narrowed):
            calls.append(narrowed)
            return validate_placement(x, servers, objects, **narrowed)

        monkeypatch.setattr(heuristics, "validate_placement", spy)
        evictions = 0
        for kind, seed in itertools.product(("random", "ties"), range(20)):
            rng = random.Random(seed)
            l, capacities, f, sizes, primaries, traffic, x = drawn_instance(kind, rng)
            state = make_state(l, capacities, f, sizes, primaries, traffic, x=x)
            calls.clear()
            result = solve(state, SolverConfig(algorithm=algorithm, seed=seed))
            expected, evicted = [], []
            for action in result.schedule:
                if isinstance(action, Evict):
                    evicted.append(action.object_id)
                else:
                    expected.append({"rows": [action.server],
                                     "cols": [action.object_id, *evicted]})
                    evicted = []
            assert calls == expected
            evictions += result.evictions
        assert evictions > 0

    @pytest.mark.parametrize("config", [AAGG, GG])
    def test_overfilled_server_is_refused(self, micro, config):
        """A commit whose add overfills its server raises, though the engine's books said it fit.

        Every server is full by its capacity, but its ``free`` is inflated
        before the first sweep, so the winning add needs no eviction.
        """
        engine = _GreedyEngine(micro.with_capacities([10, 1, 20]).state(), config)
        engine.st.free += 10**6
        best = engine._sweep(slice(0, micro.objects.count))
        assert best is not None
        with pytest.raises(RuntimeError, match="commit produced an invalid placement"):
            engine._commit(*best)

    @pytest.mark.parametrize("config", [AAGG, GG])
    def test_drifted_cost_is_refused(self, micro, config):
        """``result`` recomputes the access cost and refuses a tracked total that differs."""
        engine = _GreedyEngine(micro.state(), config)
        engine.run()
        engine.c += 1
        with pytest.raises(RuntimeError, match="incrementally tracked cost drifted"):
            engine.result()


class TestBaselinesOnMicro:
    def test_gg_ignores_availability(self, micro):
        result = solve(micro.state(), GG)
        assert [s.benefit for s in result.steps] == [220, 80]
        assert result.benefit_total == 300
        assert result.c_new == 70
        assert result.impl_cost_total == 120
        assert result.c_old - result.c_new - result.impl_cost_total == 300

    def test_gg_benefits_are_ints(self, micro):
        result = solve(micro.state(), GG)
        assert all(type(s.benefit) is int for s in result.steps)
        assert type(result.benefit_total) is int


class TestRandomOrderVariants:
    def test_aagro_matches_aagg_endpoint_on_micro(self, micro):
        for seed in range(6):
            result = solve(micro.state(), SolverConfig(algorithm="aagro", seed=seed))
            assert result.c_new == 70
            assert result.impl_cost_total == 120
            assert result.benefit_total == 262.0

    def test_same_seed_same_schedule(self, micro):
        config = SolverConfig(algorithm="aagro", seed=7)
        a = solve(micro.state(), config)
        b = solve(micro.state(), config)
        assert a.schedule == b.schedule
        assert np.array_equal(a.x_new, b.x_new)

    def test_visit_order_follows_seeded_shuffle(self, micro):
        for seed in range(4):
            order = list(range(2))
            random.Random(seed).shuffle(order)
            result = solve(micro.state(), SolverConfig(algorithm="aagro", seed=seed))
            assert [s.object_id for s in result.steps] == order

    def test_single_object_equals_global(self):
        l = [[0, 3], [3, 0]]
        traffic = np.array([[0], [50]])
        state = make_state(l, [10, 10], [0.1, 0.2], [5], [0], traffic)
        global_result = solve(state, AAGG)
        for seed in (0, 1, 99):
            per_object = solve(
                state, SolverConfig(algorithm="aagro", seed=seed)
            )
            assert per_object.schedule == global_result.schedule


class TestAvailabilityChangesChoices:
    def test_first_commit_differs_from_baseline(self):
        # Unreliable near server offers the bigger raw saving; the weighted
        # planner prefers the reliable far one.
        l = [[0, 4, 5], [4, 0, 9], [5, 9, 0]]
        capacities = [10, 10, 10]
        f = [0.0, 0.9, 0.05]
        sizes = [1]
        primaries = [0]
        traffic = np.array([[0], [200], [90]])
        state = make_state(l, capacities, f, sizes, primaries, traffic)

        weighted = solve(state, AAGG)
        plain = solve(state, GG)
        assert weighted.schedule[0] == Add(server=2, object_id=0, source=0, transfer_cost=5)
        assert plain.schedule[0] == Add(server=1, object_id=0, source=0, transfer_cost=4)
        assert weighted.steps[0].benefit == 422.75
        assert plain.steps[0].benefit == 796


class TestLiteralSemantics:
    def test_all_unreliable_servers_freeze_placement(self, micro):
        config = SolverConfig(algorithm="aagg", availability_semantics="literal")
        result = solve(micro.state(), config)
        assert result.schedule == ()
        assert result.c_new == 490

    def test_perfect_server_still_accepts(self, micro):
        inst = micro.with_failure_probs([0.0, 0.2, 0.01])
        config = SolverConfig(algorithm="aagg", availability_semantics="literal")
        result = solve(inst.state(), config)
        assert list(result.schedule) == [Add(server=0, object_id=1, source=2,
                                             transfer_cost=100)]
        assert result.steps[0].benefit == 220.0

    def test_baselines_ignore_semantics(self, micro):
        config = SolverConfig(algorithm="gg", availability_semantics="literal")
        result = solve(micro.state(), config)
        assert result.c_new == 70


class TestEvictionScope:
    def test_focal_scope_trades_away_coverage(self):
        state = injection_instance()
        result = solve(state, SolverConfig(algorithm="aagg"))
        assert list(result.schedule) == [
            Evict(server=1, object_id=1),
            Add(server=1, object_id=0, source=2, transfer_cost=10),
        ]
        assert result.c_old == 1000
        assert result.c_new == 5
        assert result.steps[0].benefit == 788.0
        assert result.evictions == 1

    def test_strict_scope_protects_evictee(self):
        state = injection_instance()
        config = SolverConfig(algorithm="aagg", availability_scope="all_changed_objects")
        result = solve(state, config)
        assert result.schedule == ()
        assert np.array_equal(result.x_new, state.x)
        assert result.c_new == 1000


class TestConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ParameterError):
            SolverConfig(algorithm="simulated-annealing")

    @pytest.mark.parametrize("field", ["algorithm", "availability_scope",
                                       "availability_semantics"])
    def test_array_option_is_refused(self, field):
        # Escaped as numpy's "truth value of an array ... is ambiguous" ValueError.
        with pytest.raises(ParameterError, match="unknown"):
            SolverConfig(**{field: np.array(["aagg", "gg"])})

    def test_bad_cap(self):
        with pytest.raises(ParameterError):
            SolverConfig(max_replicas_per_object=0)

    @pytest.mark.parametrize("cap", [1.5, True, "3"])
    def test_cap_must_be_whole(self, cap):
        with pytest.raises(ParameterError, match="must be an integer"):
            SolverConfig(max_replicas_per_object=cap)

    def test_whole_float_cap_is_accepted(self, micro):
        result = solve(micro.state(), SolverConfig(max_replicas_per_object=1.0))
        assert result.schedule == ()

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_seed_must_be_whole(self, seed):
        with pytest.raises(ParameterError, match="seed must be an integer"):
            SolverConfig(seed=seed)

    def test_whole_float_seed_is_accepted(self, micro):
        config = SolverConfig(algorithm="aagro", seed=7.0)
        assert type(config.seed) is int and config.seed == 7
        assert (solve(micro.state(), config).schedule
                == solve(micro.state(), SolverConfig(algorithm="aagro", seed=7)).schedule)

    def test_unknown_scope(self):
        with pytest.raises(ParameterError):
            SolverConfig(availability_scope="everything")

    def test_unknown_semantics(self):
        with pytest.raises(ParameterError):
            SolverConfig(availability_semantics="hopeful")


class TestAgainstReference:
    """The vectorized engine must match a slow transliteration of the rules."""

    @pytest.mark.parametrize("algorithm", ["aagg", "aagro", "gg", "gro"])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_greedy(self, algorithm, seed):
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic = random_instance(rng)
        state = make_state(l, capacities, f, sizes, primaries, traffic)
        cap = rng.choice([None, 2])
        config = SolverConfig(
            algorithm=algorithm,
            max_replicas_per_object=cap,
            seed=rng.randrange(100),
        )
        result = solve(state, config)
        oracle = BruteGreedy(
            l, capacities, f, sizes, primaries, traffic, state.x,
            algorithm=algorithm, cap=cap, seed=config.seed,
        ).run()
        assert schedule_tuples(result.schedule) == oracle.schedule
        assert np.array_equal(result.x_new, np.array(oracle.x, dtype=np.int8))
        assert [(s.server, s.object_id) for s in result.steps] == oracle.commits
        assert [s.benefit for s in result.steps] == oracle.values
        assert result.iterations == oracle.iterations

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_greedy_strict_scope(self, seed):
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic = random_instance(rng, slack_max=3)
        state = make_state(l, capacities, f, sizes, primaries, traffic)
        config = SolverConfig(algorithm="aagg",
                              availability_scope="all_changed_objects")
        result = solve(state, config)
        oracle = BruteGreedy(
            l, capacities, f, sizes, primaries, traffic, state.x,
            algorithm="aagg", scope="all_changed_objects",
        ).run()
        assert schedule_tuples(result.schedule) == oracle.schedule
        assert np.array_equal(result.x_new, np.array(oracle.x, dtype=np.int8))


def tie_heavy_instance(rng: random.Random):
    """Equal sizes and failure probabilities, few distinct costs, slack <= 3.

    The start placement adds each non-primary replica that fits with
    probability 1/2, so servers are crowded.  Over seeds 0..299 under
    ``aagg``, about a third of the instances evict and about one winning
    sweep in five has several candidates at the top score, so the
    lowest-(server, object) tie-break decides the commit.
    """
    m = rng.randint(2, 4)
    n = rng.randint(2, 5)
    l = dijkstra_matrix(m, random_connected_graph(rng, m, cost_max=2))
    size = rng.randint(1, 2)
    primaries = [rng.randrange(m) for _ in range(n)]
    loads = [size * primaries.count(i) for i in range(m)]
    capacities = [max(loads[i], 1) + rng.randint(0, 3) for i in range(m)]
    f = [rng.choice([0.0, 0.1, 0.5])] * m
    traffic = [[rng.choice([0, 3, 6]) for _ in range(n)] for _ in range(m)]
    x = crowded_start(rng, capacities, [size] * n, primaries)
    return l, capacities, f, [size] * n, primaries, traffic, x


def crowded_start(rng: random.Random, capacities, sizes, primaries) -> np.ndarray:
    """Primaries plus, in shuffled order, each other replica that fits with probability 1/2."""
    m, n = len(capacities), len(sizes)
    x = np.zeros((m, n), dtype=np.int8)
    free = list(capacities)
    for k, p in enumerate(primaries):
        x[p, k] = 1
        free[p] -= sizes[k]
    pairs = [(i, k) for i in range(m) for k in range(n)]
    rng.shuffle(pairs)
    for i, k in pairs:
        if not x[i, k] and free[i] >= sizes[k] and rng.random() < 0.5:
            x[i, k] = 1
            free[i] -= sizes[k]
    return x


def boundary_instance(rng: random.Random):
    """A crowded random instance on 3 to 6 servers with one literal veto at the tolerance.

    Among the cells (i, k) where i lacks object k, k has two replicators
    or more and i sorts before one of them, one is drawn.  Server i's
    failure probability is set to ``1e-12 / before x (1 +- delta)``, with
    ``before`` k's literal availability and delta log-uniform in [1e-6,
    1e-3], so adding k to i lowers k's availability by 1e-12 give or take
    at most 1e-15.  There ``before x (1 - f_i)`` and the product over
    sorted ids, which takes i's factor earlier, can round to either side.
    """
    l, capacities, f, sizes, primaries, traffic = random_instance(
        rng, m_min=3, m_max=6, n_max=5, slack_max=3)
    x = crowded_start(rng, capacities, sizes, primaries)
    held = [np.flatnonzero(x[:, k]).tolist() for k in range(len(sizes))]
    cells = [(i, k) for k, reps in enumerate(held) for i in range(len(f))
             if len(reps) > 1 and i not in reps and i < reps[-1]]
    if cells:
        i, k = rng.choice(cells)
        before = brute_availability(held[k], f, "literal")
        f[i] = 1e-12 / before * (1 + rng.choice([-1, 1]) * 10 ** rng.uniform(-6, -3))
    return l, capacities, f, sizes, primaries, traffic, x


def drawn_instance(kind: str, rng: random.Random):
    """A tie-heavy or boundary instance, or a random one with slack <= 3 from its primaries."""
    if kind == "ties":
        return tie_heavy_instance(rng)
    if kind == "boundary":
        return boundary_instance(rng)
    l, capacities, f, sizes, primaries, traffic = random_instance(
        rng, m_max=5, n_max=5, slack_max=3)
    x = primary_only_placement(ServerCatalog(capacities, f), ObjectCatalog(sizes, primaries))
    return l, capacities, f, sizes, primaries, traffic, x


def delta_by_definition(state, cols) -> list:
    """``_delta``'s M x len(cols) savings as Python ints: ``sum_j traffic * max(d - l, 0)``."""
    t, d, l = state.traffic.tolist(), state.d.tolist(), state.l.tolist()
    m = len(l)
    return [[sum(t[j][k] * max(d[j][k] - l[j][i], 0) for j in range(m)) for k in cols]
            for i in range(m)]


class TestDeltaKernel:
    """``_delta`` is exact, whatever form its int64 kernel takes."""

    @pytest.mark.parametrize("kind", ["random", "ties"])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_definition(self, kind, seed):
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic, x = drawn_instance(kind, rng)
        state = make_state(l, capacities, f, sizes, primaries, traffic, x=x)
        n = state.objects.count
        cols = np.array(sorted(rng.sample(range(n), rng.randint(1, n))))
        got = heuristics._delta(state, cols)
        assert got.dtype == np.int64
        assert got.tolist() == delta_by_definition(state, cols.tolist())
        whole = heuristics._delta(state, slice(0, n))
        assert whole.tolist() == delta_by_definition(state, range(n))

    def test_exact_just_below_int64_headroom(self):
        """max(l) x total traffic is 2**63 - 2**21: each term of the kernel still fits in int64."""
        unit = 2**20
        l = [[0, unit, 2 * unit], [unit, 0, unit], [2 * unit, unit, 0]]
        total = 2**42 - 1
        traffic = [[0, 0], [total // 2 - 5, 2], [total - total // 2, 3]]
        args = (l, [10, 10, 10], [0.1] * 3, [1, 1], [0, 0])
        with pytest.raises(ParameterError, match=r"2\*\*63"):
            make_state(*args, [[1, 0], *traffic[1:]])
        state = make_state(*args, traffic)
        got = heuristics._delta(state, np.arange(2))
        assert got.tolist() == delta_by_definition(state, [0, 1])
        result = solve(state, GG)
        assert result.c_new == brute_total_cost(result.x_new.tolist(), traffic, l)


class TestAgainstReferenceOnTies:
    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("algorithm", ["aagg", "aagro", "gg", "gro"])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_greedy(self, algorithm, scope, seed):
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic, x = tie_heavy_instance(rng)
        state = make_state(l, capacities, f, sizes, primaries, traffic, x=x)
        config = SolverConfig(algorithm=algorithm, availability_scope=scope,
                              seed=rng.randrange(100))
        result = solve(state, config)
        oracle = BruteGreedy(
            l, capacities, f, sizes, primaries, traffic, x,
            algorithm=algorithm, scope=scope, seed=config.seed,
        ).run()
        assert schedule_tuples(result.schedule) == oracle.schedule
        assert [s.benefit for s in result.steps] == oracle.values
        assert result.iterations == oracle.iterations


class TestLiteralAgainstReference:
    @pytest.mark.parametrize("kind", ["random", "ties", "boundary"])
    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("algorithm", ["aagg", "aagro"])
    @given(seed=st.integers(0, 10_000))
    @example(seed=40).via("boundary: the shortcut admits an add the sorted product refuses")
    @example(seed=81).via("boundary: the shortcut refuses an add the sorted product admits")
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_greedy(self, algorithm, scope, kind, seed):
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic, x = drawn_instance(kind, rng)
        if kind == "random":
            # Literal availability admits a new replica only on a perfect server.
            f = [0.0 if rng.random() < 0.5 else p for p in f]
        state = make_state(l, capacities, f, sizes, primaries, traffic, x=x)
        config = SolverConfig(algorithm=algorithm, availability_scope=scope,
                              availability_semantics="literal", seed=rng.randrange(100))
        result = solve(state, config)
        oracle = BruteGreedy(
            l, capacities, f, sizes, primaries, traffic, x,
            algorithm=algorithm, scope=scope, semantics="literal", seed=config.seed,
        ).run()
        assert schedule_tuples(result.schedule) == oracle.schedule
        assert [s.benefit for s in result.steps] == oracle.values


# Three servers on the path 0-1-2 and one object on servers 1 and 2, wanted at
# server 0.  Adding it to server 0 lowers its literal availability by 1e-12
# times (1 - 1.5e-5): ``before x (1 - f_0)`` lands exactly on the tolerance,
# but the product over sorted ids falls one ulp past it, so the add is refused.
TOLERANCE_EDGE = dict(
    l=dijkstra_matrix(3, [(0, 1, 1), (1, 2, 1)]), capacities=[100] * 3,
    f=[2.33513929202443e-12, 0.4874373561513002, 0.1645242447279971],
    sizes=[1], primaries=[1], r=[[1000], [0], [0]], x0=[[0], [1], [1]],
)


class TestLiteralToleranceEdge:
    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("algorithm", ["aagg", "aagro"])
    def test_matches_brute_greedy(self, algorithm, scope):
        """The veto decides by the sorted product; the commit used to raise ``RuntimeError``."""
        edge = TOLERANCE_EDGE
        state = make_state(edge["l"], edge["capacities"], edge["f"], edge["sizes"],
                           edge["primaries"], edge["r"], x=edge["x0"])
        result = solve(state, SolverConfig(algorithm=algorithm, availability_scope=scope,
                                           availability_semantics="literal"))
        oracle = BruteGreedy(**edge, algorithm=algorithm, scope=scope, semantics="literal").run()
        assert schedule_tuples(result.schedule) == oracle.schedule == []


def assert_row_maxima(engine):
    """Each row's cached best and its column are the row's first maximum and argmax."""
    assert np.array_equal(engine._row_best, engine._scores.max(axis=1))
    assert np.array_equal(engine._row_arg, engine._scores.argmax(axis=1))


def window_matches_fresh(engine, window: slice):
    """Check the engine's cached window against a fresh engine's; return the fresh engine's plan.

    The ``net`` matrices are equal.  Every pending cell is pending in a
    fresh engine (its object exceeds its server's free space) and holds
    ``max(net - floor, 0) * weight``.  For a server whose evictable list
    the engine caches, ``floor`` is ``price[0]`` of a fresh ``_entries`` +
    ``_store`` build, ``BLOCKED`` if that entry's eviction is blocked or the
    list is empty; for the other servers ``floor`` is 0.  The floor comes
    off ``max(net, 0)``, never off a negative ``net``, where ``BLOCKED``
    would wrap around.  The bound lies between the exact score and
    ``net * weight``.  Every settled score equals the exact score.
    """
    fresh = _GreedyEngine(engine.st, engine.cfg)
    assert np.array_equal(engine.net, fresh.net)
    plan = fresh._sweep(window)
    net, weight = fresh.net[:, window], fresh.weight[:, None]
    needs_space = (net > 0) & (fresh.st.free[:, None] < fresh.st.objects.sizes[window])
    gain = np.maximum(net, 0)
    for i in engine._evict_cache:
        built = fresh._store(i, *fresh._entries(i, np.arange(fresh.st.objects.count)))
        gain[i] = np.maximum(gain[i] - built.price[0], 0)
    bound = gain * weight
    for i in np.flatnonzero(fresh._pending.any(axis=1)):
        fresh._resolve(int(i))
    pending = engine._pending
    assert not (pending & ~needs_space).any()
    assert np.array_equal(engine._scores[pending], bound[pending])
    assert (fresh._scores[pending] <= bound[pending]).all()
    assert (bound <= np.maximum(net, 0) * weight).all()
    assert np.array_equal(engine._scores[~pending], fresh._scores[~pending])
    return plan


def checked_window_run(algorithm: str, scope: str, semantics: str, kind: str, seed: int):
    """Run a global planner, checking its cached window against a fresh engine after every commit.

    Once the next sweep is done, its flip is the fresh engine's and the
    window passes ``window_matches_fresh``.  After every commit and every
    ``_resolve`` each row's cached best and its column are the row's first
    maximum and argmax.  Under literal availability, half the servers of a
    random instance are made perfect, so that the veto admits some adds
    and refuses others.
    """
    rng = random.Random(seed)
    l, capacities, f, sizes, primaries, traffic, x = drawn_instance(kind, rng)
    if semantics == "literal" and kind == "random":
        f = [0.0 if rng.random() < 0.5 else p for p in f]
    state = make_state(l, capacities, f, sizes, primaries, traffic, x=x)
    config = SolverConfig(algorithm=algorithm, availability_scope=scope,
                          availability_semantics=semantics)
    engine = _GreedyEngine(state, config)
    resolve = engine._resolve

    def checked_resolve(i):
        resolve(i)
        assert_row_maxima(engine)

    engine._resolve = checked_resolve
    window = slice(0, state.objects.count)
    plan = engine._sweep(window)
    while plan is not None:
        engine._commit(*plan)
        assert_row_maxima(engine)
        plan = engine._sweep(window)
        assert plan == window_matches_fresh(engine, window)


class TestSweepCache:
    @pytest.mark.parametrize("kind", ["random", "ties"])
    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("algorithm", ["aagg", "gg"])
    @given(seed=st.integers(0, 10_000))
    @example(seed=17).via("stale holder row")      # ties: every algorithm and scope
    @example(seed=40).via("stale holder row")      # random: all but aagg strict scope
    @example(seed=47).via("stale evicted column")  # ties: every algorithm and scope
    @settings(max_examples=40, deadline=None)
    def test_next_plan_matches_fresh_engine(self, algorithm, scope, kind, seed):
        """After every commit the cached window agrees with a fresh engine's sweep.

        The pinned seeds catch a commit that leaves a holder row whose
        evictable list it rebuilt, or the evicted columns, out of its
        re-scoring, which random draws often miss.
        """
        checked_window_run(algorithm, scope, "corrected", kind, seed)

    @pytest.mark.parametrize("kind", ["random", "ties"])
    @pytest.mark.parametrize("scope", SCOPES)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_literal_veto_matches_fresh_engine(self, scope, kind, seed):
        """The literal-availability veto, applied to the touched columns only, stays exact."""
        checked_window_run("aagg", scope, "literal", kind, seed)


REGIMES = ("unbounded", "fill", "evict")


def checked_limit_run(algorithm: str, regime: str, seed: int) -> tuple[int, int]:
    """Run a global planner, checking its cached window against a fresh engine after every commit.

    A row's limit is its server's free space after the commit, and the
    engine compares it with the catalog's largest object.  Three objects
    in four are small (1 or 2 bytes) and the others large (8 or 12), so a
    row's limit sometimes reaches the largest object and sometimes falls
    below most of the window.  The storage regimes: ``unbounded`` gives
    every server room for the whole catalog twice, so every object always
    fits and no row is re-scored; ``fill`` starts from the primaries with
    up to 20 bytes of slack, so commits fill servers; ``evict`` starts
    crowded, numbers the objects in size order and sweeps only the first
    2 to n columns, so evicting a larger object outside the window can
    leave the server room for every window object, which it lacked
    before.  An eviction frees less than its last evictee's size beyond
    what the add needs, so a commit that evicts leaves its server less
    room than the largest object, and its row is re-scored; the run
    asserts it.  Right after every commit, before a sweep resolves
    anything, the window passes ``window_matches_fresh`` and each row's
    cached best and its column are the row's first maximum and argmax.
    Returns how many commits took the server's free space from at least
    the largest object to below it, and how many took it from below the
    window's largest object to at least.
    """
    rng = random.Random(seed)
    m, n = rng.randint(2, 5), rng.randint(4, 16)
    l = dijkstra_matrix(m, random_connected_graph(rng, m, cost_max=2))
    sizes = [rng.choice([1, 2]) if rng.random() < 0.75 else rng.choice([8, 12]) for _ in range(n)]
    if regime == "evict":
        sizes.sort()
    primaries = [rng.randrange(m) for _ in range(n)]
    loads = [sum(size for size, p in zip(sizes, primaries) if p == i) for i in range(m)]
    slack = [2 * sum(sizes) if regime == "unbounded" else rng.randint(0, 20) for _ in range(m)]
    capacities = [max(load, 1) + extra for load, extra in zip(loads, slack)]
    f = [round(rng.uniform(0.0, 0.6), 3) for _ in range(m)]
    traffic = [[rng.choice([0, 3, 6]) for _ in range(n)] for _ in range(m)]
    x = crowded_start(rng, capacities, sizes, primaries) if regime == "evict" else None
    state = make_state(l, capacities, f, sizes, primaries, traffic, x=x)
    engine = _GreedyEngine(state, SolverConfig(algorithm=algorithm))
    window = slice(0, rng.randint(2, n) if regime == "evict" else n)
    largest, window_largest = state.objects.sizes.max(), state.objects.sizes[window].max()
    fills = rises = 0
    while (plan := engine._sweep(window)) is not None:
        i = plan[0]
        before = int(engine.st.free[i])
        engine._commit(*plan)
        after = int(engine.st.free[i])
        fills += after < largest <= before
        rises += before < window_largest <= after
        assert after <= before or after < largest  # an eviction leaves less than the largest
        assert_row_maxima(engine)
        window_matches_fresh(engine, window)
        if regime == "unbounded":
            assert engine.st.free.min() >= state.objects.sizes.max()
    return fills, rises


class TestRescoredSuffix:
    """A commit re-scores only the rows with a cell whose object exceeds the row's limit."""

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("algorithm", ["aagg", "gg"])
    @given(seed=st.integers(0, 10_000))
    @example(seed=9).via("a commit fills a server below the largest object")  # fill
    @example(seed=27).via("evicting makes room for the whole window")  # evict
    @example(seed=332).via("a touched column ties its row's best from the left")  # evict
    @settings(max_examples=40, deadline=None)
    def test_window_matches_fresh_engine(self, algorithm, regime, seed):
        checked_limit_run(algorithm, regime, seed)

    @pytest.mark.parametrize("algorithm", ["aagg", "gg"])
    def test_pinned_seeds_exercise_both_limits(self, algorithm):
        """Seed 9 fills a server below the largest object; seed 27 frees one for the window.

        Seed 27 frees a server up to the window's largest object.  Its
        commit evicts, so it leaves the server below the catalog's largest
        object, and the row is re-scored.
        """
        assert checked_limit_run(algorithm, "fill", 9)[0]
        assert checked_limit_run(algorithm, "evict", 27)[1]


def checked_column_run(algorithm: str, cap: int, seed: int, semantics="corrected") -> tuple:
    """Run a one-column planner on a crowded start, checking its column caches after every commit.

    On entry to each commit and after it, ``_row_best`` and ``_row_arg``
    are each row's first maximum and argmax of the window's scores.  After
    each commit, the live columns (those with a positive ``net``) equal a
    fresh engine's, ``net`` equals
    ``_delta - size * d`` in the columns below the replica cap, except
    in the cells literal availability vetoes (adding server i to the
    replicators lowers the product over sorted ids by more than ``TOL``),
    and is 0 at the cap, and no held cell is positive.  Under literal
    availability half the servers are made perfect, so that the veto
    admits some adds.  Returns the
    engine, whose ``steps`` count the commits, and the columns that an
    eviction dropped below the cap and whose fresh ``net`` is not all 0.
    """
    rng = random.Random(seed)
    l, capacities, f, sizes, primaries, traffic = random_instance(
        rng, m_max=5, n_max=6, slack_max=4)
    x = crowded_start(rng, capacities, sizes, primaries)
    if semantics == "literal":
        f = [0.0 if rng.random() < 0.5 else p for p in f]
    state = make_state(l, capacities, f, sizes, primaries, traffic, x=x)
    config = SolverConfig(algorithm=algorithm, max_replicas_per_object=cap,
                          availability_semantics=semantics, seed=rng.randrange(100))
    engine = _GreedyEngine(state, config)
    commit, reopened = engine._commit, []

    def checked_commit(i, k, score):
        assert_row_maxima(engine)
        capped = engine.st.replica_counts >= cap
        commit(i, k, score)
        assert_row_maxima(engine)
        st = engine.st
        below = st.replica_counts < cap
        assert np.array_equal((engine.net > 0).any(axis=0),
                              (_GreedyEngine(st, config).net > 0).any(axis=0))
        cols = np.flatnonzero(below)
        net = heuristics._delta(st, cols) - st.objects.sizes[cols] * st.d[:, cols]
        if semantics == "literal" and algorithm == "aagro":
            for c, k in enumerate(cols):
                reps = np.flatnonzero(st.x[:, k]).tolist()
                held = brute_availability(reps, f, "literal")
                net[[i not in reps and brute_availability(reps + [i], f, "literal") < held - TOL
                     for i in range(len(f))], c] = 0
        assert np.array_equal(engine.net[:, below], net)
        assert not engine.net[:, ~below].any()
        assert (engine.net[st.x == 1] <= 0).all()
        reopened.extend(np.flatnonzero(capped & below & engine.net.any(axis=0)).tolist())

    engine._commit = checked_commit
    engine.run()
    return engine, reopened


def checked_column_runs(algorithm: str, cap: int, semantics="corrected") -> None:
    """``checked_column_run`` over drawn seeds and seed 9; asserts what the runs exercised.

    At cap 1 a crowded start has every column capped (it keeps every
    primary), so no column is live and no run commits.  Above cap 1 the
    runs commit, seed 9 among them.
    """
    commits = []

    @given(seed=st.integers(0, 10_000))
    @example(seed=9).via("eviction reopens a capped column")
    @settings(max_examples=40, deadline=None)
    def run(seed):
        engine, _ = checked_column_run(algorithm, cap, seed, semantics)
        if cap == 1:
            assert not (engine.net > 0).any() and not engine.steps
        commits.append(len(engine.steps))

    run()
    assert (sum(commits) > 0) == (cap > 1)


class TestColumnCaches:
    """The one-column planners' live columns and ``net`` columns stay exact."""

    @pytest.mark.parametrize("cap", [1, 2])
    @pytest.mark.parametrize("algorithm", ["aagro", "gro"])
    def test_live_and_delta_match_fresh_engine(self, algorithm, cap):
        checked_column_runs(algorithm, cap)

    @pytest.mark.parametrize("cap", [2, 3])  # at cap 1 every column of a start is capped
    def test_literal_veto_matches_definition(self, cap):
        checked_column_runs("aagro", cap, "literal")

    @pytest.mark.parametrize("algorithm", ["aagro", "gro"])
    def test_pinned_seed_reopens_a_capped_column(self, algorithm):
        """Seed 9 keeps exercising the column an eviction drops below the cap."""
        assert checked_column_run(algorithm, 2, 9)[1]

    def test_dead_windows_are_not_swept(self, micro):
        """A window with no positive score counts one iteration without a sweep."""
        engine = _GreedyEngine(micro.state(),
                               SolverConfig(algorithm="aagro", max_replicas_per_object=1))
        engine._sweep = lambda window: pytest.fail("swept a dead window")
        assert not (engine.net > 0).any()
        engine.run()
        assert engine.iterations == micro.objects.count


class TestSetupMemory:
    def test_peak_per_cell_is_bounded(self):
        """Engine set-up peaks below 45 bytes per server-object cell.

        The state copy and ``net`` keep about 25 bytes per cell and the
        starting access-cost sum briefly adds 16.  Set-up scores no column;
        computing ``net`` of all 8,000 columns in one call,
        not in blocks, peaks near 50.
        """
        self.check_peak(AAGG)

    def test_literal_peak_per_cell_is_bounded(self):
        """The literal veto's temporaries stay within a block, and its M x M ones within a column.

        Every start availability is 0.9 or 1 - 1e-12 / 0.9, and server 0's
        failure probability is 1e-12 / 0.9, so nearly every column has a
        cell on the tolerance and takes the veto's M x M product.
        """
        config = SolverConfig(algorithm="aagg", availability_semantics="literal")
        self.check_peak(config, [1e-12 / 0.9] + [0.1] * 39)

    @staticmethod
    def check_peak(config, f=(0.1,) * 40):
        m, n = len(f), 8_000
        rng = np.random.default_rng(0)
        l = dijkstra_matrix(m, random_connected_graph(random.Random(0), m))
        sizes, primaries = rng.integers(1, 5, n), rng.integers(0, m, n)
        capacities = np.bincount(primaries, weights=sizes, minlength=m).astype(int) + 50
        state = make_state(l, capacities.tolist(), list(f), sizes.tolist(),
                           primaries.tolist(), rng.integers(0, 20, (m, n)))
        tracemalloc.start()
        try:
            _GreedyEngine(state, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 45 * m * n


@pytest.fixture(scope="module")
def gen_state(tmp_path_factory):
    """A `gen` instance too large for the oracle: 40 servers, 2,000 objects, two set-up blocks.

    Every eighth server is made perfect (f = 0), so that literal
    availability admits some adds.
    """
    out = tmp_path_factory.mktemp("gen")
    assert main(["gen", "--nodes", "40", "--objects", "2000", "--capacity-policy", "slack:1.2",
                 "--caps", "1..2", "--seed", "5", "--out", str(out)]) == 0
    scenario = Scenario.load(out / "scenario.json")
    f = scenario.servers.failure_probs.copy()
    f[::8] = 0.0
    servers = ServerCatalog(scenario.servers.capacities, f)
    return PlacementState(all_pairs_shortest_paths(load_topology(out / "topology.json")),
                          servers, scenario.objects, scenario.traffic,
                          primary_only_placement(servers, scenario.objects))


class TestFixedPointAtSize:
    """A finished plan's caches equal a one-call recompute, and a global plan re-solves to nothing.

    The recompute does not repeat set-up's blocks: one ``_columns`` call
    covers every column.  Each cached evictable list equals a rebuild as
    far as its server can evict (``assert_list_matches``).  The blind
    planners ignore semantics and scope, so they run once.
    """

    @pytest.mark.parametrize("algorithm, semantics, scope", [
        *itertools.product(("aagg", "aagro"), SEMANTICS, SCOPES),
        ("gg", "corrected", "focal_object"),
        ("gro", "corrected", "focal_object"),
    ])
    def test_caches_match_recompute(self, gen_state, algorithm, semantics, scope):
        m, n = gen_state.x.shape
        assert n > heuristics.SETUP_CELLS // m  # set-up spans at least two blocks
        config = SolverConfig(algorithm=algorithm, max_replicas_per_object=2,
                              availability_semantics=semantics, availability_scope=scope)
        engine = _GreedyEngine(gen_state, config)
        engine.run()
        result = engine.result()
        assert result.steps
        net, live = engine.net.copy(), (engine.net > 0).any(axis=0)
        assert np.array_equal(engine._columns(np.arange(n)), net)
        assert np.array_equal(engine.net, net)
        assert np.array_equal((engine.net > 0).any(axis=0), live)
        assert engine._evict_cache
        for i, cached in list(engine._evict_cache.items()):
            fresh = engine._store(i, *engine._entries(i, np.arange(n)))
            assert_list_matches(engine.st, i, cached, fresh)
        if algorithm in ("aagg", "gg"):
            again = solve(PlacementState(CostMatrix(gen_state.l), gen_state.servers,
                                         gen_state.objects, gen_state.traffic, result.x_new),
                          config)
            assert again.schedule == ()
            assert again.c_new == result.c_new


class TestFloatScoreBound:
    """Weighted scores are floats, so they must stay below 2**53 to compare exactly."""

    L = [[0, 1], [1, 0]]

    @pytest.mark.parametrize("sizes, capacities, traffic", [
        ([1], [10, 10], [[0], [2**53]]),
        ([2**53], [2**53, 2**53], [[0], [1]]),
    ])
    def test_weighted_planners_refuse(self, sizes, capacities, traffic):
        state = make_state(self.L, capacities, [0.1, 0.1], sizes, [0], traffic)
        for algorithm in ("aagg", "aagro"):
            with pytest.raises(ParameterError, match=r"2\*\*53"):
                solve(state, SolverConfig(algorithm=algorithm))
        for algorithm in ("gg", "gro"):  # exact int64 scores
            assert solve(state, SolverConfig(algorithm=algorithm)).c_old == traffic[1][0]

    def test_largest_allowed_volume_is_exact(self):
        state = make_state(self.L, [10, 10], [0.1, 0.1], [1], [0], [[0], [2**53 - 1]])
        result = solve(state, AAGG)
        assert result.c_new == 0
        assert result.steps[0].benefit == (2**53 - 2) * (1.0 - 0.1)


def reach(state, i: int, ev) -> int:
    """How many entries of ``ev``, server i's evictable list, any flip on i can evict.

    A flip evicts the shortest prefix whose sizes cover its object's
    shortfall, and no object exceeds the catalog's largest.
    """
    return 1 + int(ev.cum_size.searchsorted(state.objects.sizes.max() - state.free[i]))


def assert_list_matches(state, i: int, cached, fresh) -> None:
    """``cached``, server i's evictable list, agrees with a fresh build within i's reach.

    Both lists record the reach ``reach`` gives.  The first ``reach``
    entries of the five array fields are equal (every entry, and the
    sentinel, when the list cannot cover the largest object); the other
    entries are equal as a multiset of (object, damage, lowers).
    """
    r = reach(state, i, fresh)
    assert cached.reach == fresh.reach == r, i
    for name, got, want in zip(cached._fields[:-1], cached[:-1], fresh[:-1]):
        assert got.dtype == want.dtype and got.shape == want.shape, (i, name)
        assert np.array_equal(got[:r], want[:r]), (i, name)
    rest = [sorted(zip(*(a[r:].tolist() for a in ev[:3]))) for ev in (cached, fresh)]
    assert rest[0] == rest[1], i


def upkeep_instance(kind: str, rng: random.Random):
    """A tie-heavy instance from its crowded start, or a random one with slack <= 6.

    The ``random`` kind starts from its primaries.  The ``perfect`` kind
    starts crowded, and about a third of its servers never fail, so that
    a replica added on one of them can clear another holder's
    availability flag under the ``all_changed_objects`` scope.
    """
    if kind == "ties":
        return tie_heavy_instance(rng)
    l, capacities, f, sizes, primaries, traffic = random_instance(
        rng, m_max=5, n_max=5 if kind == "random" else 6, slack_max=6)
    if kind == "random":
        return l, capacities, f, sizes, primaries, traffic, None
    f = [0.0 if rng.random() < 0.3 else p for p in f]
    return l, capacities, f, sizes, primaries, traffic, crowded_start(rng, capacities, sizes,
                                                                     primaries)


def checked_upkeep_run(algorithm: str, scope: str, kind: str, seed: int) -> tuple[int, int, int]:
    """Run a planner with every evictable list built up front; check the lists after each commit.

    Before each ``_resolve`` and each evicting commit, every prefix the
    engine is about to read ends inside its server's reach, and the reach
    the list records is the one a fresh build gives.  After every commit
    each cached list passes ``assert_list_matches`` against a fresh
    engine's build.  Counted over the lists that hold a changed column and
    are not the committing server's, returns how many a commit updated in
    place (the cache keeps the same object), how many of those updates
    changed an availability flag, and how many lists went through
    ``_store``.
    """
    rng = random.Random(seed)
    l, capacities, f, sizes, primaries, traffic, x = upkeep_instance(kind, rng)
    state = make_state(l, capacities, f, sizes, primaries, traffic, x=x)
    config = SolverConfig(algorithm=algorithm, availability_scope=scope, seed=rng.randrange(100))
    engine = _GreedyEngine(state, config)
    st = engine.st
    for i in range(state.servers.count):
        engine._evictable(i)
    resolve, commit = engine._resolve, engine._commit
    in_place = flagged = stored = 0

    def assert_reads_within_reach(i, ks):
        ev = engine._evict_cache[i]
        assert ev.reach == reach(st, i, ev)
        ends = ev.cum_size.searchsorted(st.objects.sizes[ks] - st.free[i])
        assert (ends < ev.reach).all()

    def checked_resolve(i):
        assert_reads_within_reach(i, engine._window.start + engine._pending[i].nonzero()[0])
        resolve(i)

    def checked_commit(i, k, score):
        nonlocal in_place, flagged, stored
        if st.objects.sizes[k] > st.free[i]:
            assert_reads_within_reach(i, [k])
        lists = {j: (ev, ev.lowers.copy()) for j, ev in engine._evict_cache.items()}
        held = st.x[i].copy()
        commit(i, k, score)
        changed = (st.x[i] != held).nonzero()[0]
        fresh = _GreedyEngine(st, config)
        for j, cached in engine._evict_cache.items():
            assert_list_matches(st, j, cached, fresh._evictable(j))
            if j == i or not np.isin(changed, cached.objects).any():
                continue
            before, lowers = lists[j]
            if cached is before:
                in_place += 1
                flagged += not np.array_equal(cached.lowers, lowers)
            else:
                stored += 1

    engine._resolve, engine._commit = checked_resolve, checked_commit
    engine.run()
    return in_place, flagged, stored


class TestEvictionCache:
    """Each evictable list stays exact as far as its server can evict, however it is updated."""

    @pytest.mark.parametrize("kind", ["random", "ties", "perfect"])
    @pytest.mark.parametrize("scope", SCOPES)
    @given(seed=st.integers(0, 10_000))
    @example(seed=9).via("updates lists both in place and through _store")
    @example(seed=157).via("perfect, all_changed_objects: an in-place update changes a flag")
    @settings(max_examples=40, deadline=None)
    def test_upkeep_matches_rebuild(self, scope, kind, seed):
        """The global planner: after every commit each cached list agrees with a fresh build.

        The tie-heavy instances start crowded with many equal damages, so an
        updated list that orders tied entries other than by object id fails.
        """
        checked_upkeep_run("aagg", scope, kind, seed)

    @pytest.mark.parametrize("kind", ["random", "ties", "perfect"])
    @pytest.mark.parametrize("scope", SCOPES)
    @given(seed=st.integers(0, 10_000))
    @example(seed=9).via("updates lists both in place and through _store")
    @example(seed=157).via("perfect, all_changed_objects: an in-place update changes a flag")
    @settings(max_examples=40, deadline=None)
    def test_one_column_upkeep_matches_rebuild(self, scope, kind, seed):
        """The same for ``aagro``, whose windows are one column each."""
        checked_upkeep_run("aagro", scope, kind, seed)

    @pytest.mark.parametrize("algorithm", ["aagg", "aagro"])
    def test_pinned_seeds_update_both_ways(self, algorithm):
        """Seed 9 updates some holder lists in place and sends others through ``_store``.

        Seed 157's ``perfect`` instance, under the ``all_changed_objects``
        scope, also changes an availability flag in place.  In these small
        instances most lists are short enough that their server's reach
        covers every entry, so in-place updates are rare: 12 to 44 over
        seeds 0..199 of the other kinds, none of which changed a flag in
        4,000 ``random`` seeds.
        """
        for scope, kind in itertools.product(SCOPES, ("random", "ties")):
            in_place, _, stored = checked_upkeep_run(algorithm, scope, kind, 9)
            assert in_place and stored, (scope, kind)
        _, flagged, stored = checked_upkeep_run(algorithm, "all_changed_objects", "perfect", 157)
        assert flagged and stored


class TestPrice:
    """Each eviction prefix has one price, ``BLOCKED`` where it is refused, and scores clip at 0."""

    def test_blocked_first_entry_and_empty_list(self):
        """Server 1's one evictee would lose availability; servers 0 and 2 hold only primaries.

        Both lists price their first prefix ``BLOCKED``, which is their
        floor, so the bounds of their pending cells are 0: the sweep finds
        no positive score and resolves nothing.  The exact scores are 0 too.
        """
        l = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        x = np.array([[0, 1], [0, 1], [1, 0]], dtype=np.int8)
        state = make_state(l, [10, 10, 10], [0.3, 0.2, 0.1], [10, 10], [2, 0],
                           np.array([[1000, 0], [1000, 5], [0, 0]]), x=x)
        engine = _GreedyEngine(state, SolverConfig(availability_scope="all_changed_objects"))
        blocked, empty = engine._evictable(1), engine._evictable(0)
        assert blocked.objects.tolist() == [1] and blocked.lowers.tolist() == [True]
        assert empty.objects.size == 0
        for i, ev in ((1, blocked), (0, empty)):
            assert ev.price[0] == engine._floor[i] == heuristics.BLOCKED
        window = slice(0, 2)
        scores, pending = engine._score(engine.net[:, window], slice(None), state.objects.sizes)
        assert pending[:2, 0].all() and (engine.net[:2, 0] > 0).all()
        assert (scores[:2] == 0).all()
        assert engine._sweep(window) is None
        assert np.array_equal(engine._pending, pending) and (engine._scores == 0).all()
        for i in (0, 1):
            engine._resolve(i)
        assert not engine._pending.any() and (engine._scores == 0).all()

    @pytest.mark.parametrize("kind", ["random", "ties"])
    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("algorithm", ["aagg", "aagro", "gg"])
    @given(seed=st.integers(0, 10_000))
    @example(seed=12).via("a resolved prefix costs more than its net saving")
    @settings(max_examples=20, deadline=None)
    def test_window_scores_never_negative(self, algorithm, scope, kind, seed):
        """After every commit and every ``_resolve`` each cached window score is at least 0."""
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic, x = drawn_instance(kind, rng)
        engine = _GreedyEngine(make_state(l, capacities, f, sizes, primaries, traffic, x=x),
                               SolverConfig(algorithm=algorithm, availability_scope=scope))
        resolve, commit = engine._resolve, engine._commit

        def checked_resolve(i):
            resolve(i)
            assert (engine._scores >= 0).all()

        def checked_commit(i, k, score):
            commit(i, k, score)
            assert (engine._scores >= 0).all()

        engine._resolve, engine._commit = checked_resolve, checked_commit
        engine.run()


class TestEvictionEntries:
    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("scope", SCOPES)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_entries_match_definitions(self, scope, semantics, seed):
        """Every non-primary replica's damage and evictee flag, against first principles.

        The damage of (i, k) is the full access cost after dropping it minus
        the cost before.  Under the ``all_changed_objects`` scope the flag
        says whether dropping it lowers k's availability, computed as the
        product over sorted replicator ids; under the focal scope no
        evictee is guarded.
        """
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic = random_instance(
            rng, m_max=6, n_max=6, slack_max=10)
        f = [0.0 if rng.random() < 0.3 else p for p in f]  # ties in availability
        x = crowded_start(rng, capacities, sizes, primaries)
        state = make_state(l, capacities, f, sizes, primaries, traffic, x=x)
        config = SolverConfig(algorithm="aagg", availability_scope=scope,
                              availability_semantics=semantics)
        engine = _GreedyEngine(state, config)
        before = brute_total_cost(x.tolist(), traffic, l.tolist())
        for i in range(state.servers.count):
            objs, damages, lowers = engine._entries(i, np.arange(state.objects.count))
            held = [k for k in range(state.objects.count) if x[i, k] and primaries[k] != i]
            assert objs.tolist() == held
            assert damages.dtype == np.int64 and lowers.dtype == bool
            for k, damage, lowered in zip(held, damages.tolist(), lowers.tolist()):
                trial = x.copy()
                trial[i, k] = 0
                assert damage == brute_total_cost(trial.tolist(), traffic, l.tolist()) - before
                reps = np.flatnonzero(x[:, k]).tolist()
                drop = (brute_availability([j for j in reps if j != i], f, semantics)
                        < brute_availability(reps, f, semantics) - TOL)
                assert lowered == (scope == "all_changed_objects" and drop)


class TestResultInvariants:
    @pytest.mark.parametrize("algorithm", ["aagg", "gg", "aagro", "gro"])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_accounting_identities(self, algorithm, seed):
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic = random_instance(
            rng, m_max=5, n_max=4, slack_max=12
        )
        state = make_state(l, capacities, f, sizes, primaries, traffic)
        result = solve(state, SolverConfig(algorithm=algorithm, seed=seed % 17))
        assert result.c_new <= result.c_old
        assert result.c_new == brute_total_cost(result.x_new.tolist(), traffic, l.tolist())
        assert np.array_equal(replay_schedule(state.x, result.schedule), result.x_new)
        assert result.impl_cost_total == sum(
            a.transfer_cost for a in result.schedule if isinstance(a, Add)
        )
        assert result.benefit_total == pytest.approx(
            sum(s.benefit for s in result.steps)
        )
        cs = [result.c_old] + [s.c_after for s in result.steps]
        assert all(a > b for a, b in zip(cs, cs[1:]))
        if algorithm in ("gg", "gro"):
            assert result.benefit_total == (
                result.c_old - result.c_new - result.impl_cost_total
            )

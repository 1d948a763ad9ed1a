import random

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
    Evict,
    ObjectCatalog,
    ParameterError,
    ServerCatalog,
    SolverConfig,
    action_from_dict,
    primary_only_placement,
    replay_schedule,
    solve,
)
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

    def test_bad_cap(self):
        with pytest.raises(ParameterError):
            SolverConfig(max_replicas_per_object=0)

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


def drawn_instance(kind: str, rng: random.Random):
    """A tie-heavy instance, or a random one with slack <= 3 started from its primaries."""
    if kind == "ties":
        return tie_heavy_instance(rng)
    l, capacities, f, sizes, primaries, traffic = random_instance(
        rng, m_max=5, n_max=5, slack_max=3)
    x = primary_only_placement(ServerCatalog(capacities, f), ObjectCatalog(sizes, primaries))
    return l, capacities, f, sizes, primaries, traffic, x


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


class TestLiteralAgainstReference:
    @pytest.mark.parametrize("kind", ["random", "ties"])
    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("algorithm", ["aagg", "aagro"])
    @given(seed=st.integers(0, 10_000))
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

        The ``delta`` matrices and the plans are equal, every settled cached
        score equals the exact score, and every pending bound is at least the
        exact score.  The pinned seeds catch a cache that leaves the holders
        of a touched column, or the evicted columns, out of the dirty set; a
        random draw of such a case is rare (under 5% and under 1% of seeds).
        """
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic, x = drawn_instance(kind, rng)
        state = make_state(l, capacities, f, sizes, primaries, traffic, x=x)
        config = SolverConfig(algorithm=algorithm, availability_scope=scope)
        engine = _GreedyEngine(state, config)
        window = slice(0, state.objects.count)
        plan = engine._sweep(window)
        while plan is not None:
            engine._commit(plan)
            plan = engine._sweep(window)
            fresh = _GreedyEngine(engine.st, config)
            assert np.array_equal(engine.delta, fresh.delta)
            assert plan == fresh._sweep(window)
            for i in np.flatnonzero(fresh._pending.any(axis=1)):
                fresh._resolve(int(i))
            settled = ~engine._pending
            assert np.array_equal(engine._scores[settled], fresh._scores[settled])
            assert (engine._scores[~settled] >= fresh._scores[~settled]).all()


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


class TestEvictionCache:
    @pytest.mark.parametrize("scope", SCOPES)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_upkeep_matches_rebuild(self, scope, seed):
        """After every commit each cached server equals a fresh engine's build."""
        rng = random.Random(seed)
        l, capacities, f, sizes, primaries, traffic = random_instance(
            rng, m_max=5, n_max=5, slack_max=6)
        state = make_state(l, capacities, f, sizes, primaries, traffic)
        config = SolverConfig(algorithm="aagg", availability_scope=scope)
        engine = _GreedyEngine(state, config)
        for i in range(state.servers.count):
            engine._evictable(i)
        full = slice(0, state.objects.count)
        while (plan := engine._sweep(full)) is not None:
            engine._commit(plan)
            fresh = _GreedyEngine(engine.st, config)
            for i, cached in engine._evict_cache.items():
                for name, got, want in zip(cached._fields, cached, fresh._evictable(i)):
                    assert got.dtype == want.dtype, (i, name)
                    assert np.array_equal(got, want), (i, name)


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

"""End-to-end gate: one test per shipped guarantee, each printing a verdict line.

Run with plain ``pytest``; the verdict lines bypass output capture so every
``ACCEPTANCE n`` criterion reports PASS or FAIL even in quiet runs.
"""

import random
import time
from contextlib import contextmanager

import numpy as np

from oracle import BruteGreedy, brute_total_cost, random_instance
from test_heuristics import injection_instance, schedule_tuples
from test_model import make_state
from replicaplan import (
    Add,
    Evict,
    SolverConfig,
    availability_per_object,
    build_nearest_index,
    load_failure_trace,
    solve,
    trace_availability_for_servers,
    validate_placement,
)
from replicaplan.cli import RESULTS_HEADER, main
from replicaplan.heuristics import _delta


@contextmanager
def reported(capsys, number, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {name}: PASS")


def independent_total_cost(x, traffic, l):
    """Per-column nearest-replica recompute, sharing no code with the engine."""
    total = 0
    for k in range(x.shape[1]):
        reps = np.flatnonzero(x[:, k])
        dist = l[:, reps].min(axis=1)
        total += int((dist * traffic[:, k]).sum())
    return total


def test_criterion_1_frozen_micro_trace(micro, capsys):
    with reported(capsys, 1, "hand-checked instance reproduces the worked trace"):
        started = time.perf_counter()
        result = solve(micro.state(), SolverConfig(algorithm="aagg"))
        assert list(result.schedule) == [
            Add(server=0, object_id=1, source=2, transfer_cost=100),
            Add(server=1, object_id=0, source=0, transfer_cost=20),
        ]
        assert (result.c_old, result.c_new, result.impl_cost_total) == (490, 70, 120)
        assert [s.benefit for s in result.steps] == [198.0, 64.0]
        assert result.benefit_total == 262.0
        oracle = BruteGreedy(
            micro.cost.l, micro.servers.capacities, micro.servers.failure_probs,
            micro.objects.sizes, micro.objects.primaries, micro.traffic,
            micro.state().x, algorithm="aagg",
        ).run()
        assert schedule_tuples(result.schedule) == oracle.schedule
        assert time.perf_counter() - started < 1.0


def test_criterion_2_planners_match_reference_rules(capsys):
    with reported(capsys, 2, "all planners match a rule-by-rule reference"):
        started = time.perf_counter()
        for seed in range(100):
            rng = random.Random(seed)
            l, capacities, f, sizes, primaries, traffic = random_instance(rng)
            state = make_state(l, capacities, f, sizes, primaries, traffic)
            l_list = np.asarray(l).tolist()
            for algorithm in ("aagg", "aagro", "gg", "gro"):
                def on_mutation(st):
                    assert validate_placement(st.x, st.servers, st.objects) == []
                    near, dist = build_nearest_index(st.x, st.l)
                    assert np.array_equal(st.n, near)
                    assert np.array_equal(st.d, dist)

                def on_commit(st, step):
                    assert step.c_after == brute_total_cost(
                        st.x.tolist(), traffic, l_list
                    )

                result = solve(
                    state, SolverConfig(algorithm=algorithm, seed=seed % 11),
                    on_commit=on_commit, on_mutation=on_mutation,
                )
                oracle = BruteGreedy(
                    l, capacities, f, sizes, primaries, traffic, state.x,
                    algorithm=algorithm, seed=seed % 11,
                ).run()
                assert schedule_tuples(result.schedule) == oracle.schedule
                assert np.array_equal(result.x_new, np.array(oracle.x, dtype=np.int8))
        assert time.perf_counter() - started < 30.0


def test_criterion_3_single_flip_delta_is_exact(capsys):
    with reported(capsys, 3, "incremental cost delta equals full recompute"):
        checked = 0
        seed = 0
        while checked < 1000:
            rng = random.Random(seed)
            seed += 1
            l, capacities, f, sizes, primaries, traffic = random_instance(
                rng, m_max=20, n_max=50, slack_max=60, traffic_max=500
            )
            state = make_state(l, capacities, f, sizes, primaries, traffic)
            tr = state.traffic
            for _ in range(3):  # diversify beyond primary-only placements
                zeros = np.argwhere((state.x == 0)
                                    & (state.free[:, None] >= state.objects.sizes[None, :]))
                if zeros.size == 0:
                    break
                i, k = (int(v) for v in zeros[rng.randrange(len(zeros))])
                state.add_replica(i, k)
            for _ in range(25):
                zeros = np.argwhere(state.x == 0)
                if zeros.size == 0:
                    break
                i, k = (int(v) for v in zeros[rng.randrange(len(zeros))])
                predicted = int(_delta(state, slice(k, k + 1))[i, 0])
                trial = state.x.copy()
                trial[i, k] = 1
                before = independent_total_cost(state.x, tr, state.l)
                after = independent_total_cost(trial, tr, state.l)
                assert predicted == before - after
                checked += 1
        assert checked == 1000


def test_criterion_4_committed_cost_strictly_decreases(capsys):
    with reported(capsys, 4, "every commit strictly lowers access cost"):
        for seed in range(40):
            rng = random.Random(1000 + seed)
            l, capacities, f, sizes, primaries, traffic = random_instance(
                rng, m_max=5, n_max=4, slack_max=12
            )
            state = make_state(l, capacities, f, sizes, primaries, traffic)
            for algorithm in ("aagg", "aagro", "gg", "gro"):
                result = solve(state, SolverConfig(algorithm=algorithm, seed=seed))
                cs = [result.c_old] + [s.c_after for s in result.steps]
                assert all(a > b for a, b in zip(cs, cs[1:]))
                assert result.c_new <= result.c_old
                assert result.c_new == independent_total_cost(
                    result.x_new, state.traffic, state.l
                )


def test_criterion_5_weighting_vanishes_without_failures(capsys):
    with reported(capsys, 5, "availability weighting is inert at zero failure rates"):
        for seed in range(50):
            rng = random.Random(2000 + seed)
            l, capacities, f, sizes, primaries, traffic = random_instance(
                rng, zero_failures=True
            )
            state = make_state(l, capacities, f, sizes, primaries, traffic)
            aware = solve(state, SolverConfig(algorithm="aagg"))
            blind = solve(state, SolverConfig(algorithm="gg"))
            assert aware.schedule == blind.schedule
            assert np.array_equal(aware.x_new, blind.x_new)
            assert aware.benefit_total == blind.benefit_total
            aware_r = solve(state, SolverConfig(algorithm="aagro", seed=seed))
            blind_r = solve(state, SolverConfig(algorithm="gro", seed=seed))
            assert aware_r.schedule == blind_r.schedule
            assert np.array_equal(aware_r.x_new, blind_r.x_new)


def test_criterion_6_eviction_scope_admission(capsys):
    with reported(capsys, 6, "strict scope blocks flips that degrade evicted objects"):
        state = injection_instance()
        f = state.servers.failure_probs

        focal = solve(state, SolverConfig(algorithm="aagg"))
        assert list(focal.schedule) == [
            Evict(server=1, object_id=1),
            Add(server=1, object_id=0, source=2, transfer_cost=10),
        ]
        assert (focal.c_old, focal.c_new) == (1000, 5)
        assert availability_per_object(state.x, f)[1] == 0.94
        assert availability_per_object(focal.x_new, f)[1] == 0.7
        assert availability_per_object(focal.x_new, f)[0] == 0.98

        strict = solve(
            state,
            SolverConfig(algorithm="aagg", availability_scope="all_changed_objects"),
        )
        assert strict.schedule == ()
        assert np.array_equal(strict.x_new, state.x)


def test_criterion_7_desk_scale_sweep(tmp_path, capsys):
    with reported(capsys, 7, "desk-scale sweep is fast, deterministic and monotone"):
        started = time.perf_counter()
        inst = tmp_path / "inst"
        assert main(["gen", "--seed", "42", "--out", str(inst)]) == 0
        common = ["sweep", "--topology", str(inst / "topology.json"),
                  "--scenario", str(inst / "scenario.json"),
                  "--algs", "aagg,gg", "--caps", "1..5", "--seed", "42"]
        assert main(common + ["--out", str(tmp_path / "s1")]) == 0
        assert main(common + ["--out", str(tmp_path / "s2")]) == 0
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0

        first = (tmp_path / "s1" / "results.csv").read_text().strip().split("\n")
        second = (tmp_path / "s2" / "results.csv").read_text().strip().split("\n")
        assert first[0] == RESULTS_HEADER
        assert len(first) == 11
        strip = lambda line: line.rsplit(",", 1)[0]  # runtime_ms varies
        assert [strip(a) for a in first] == [strip(b) for b in second]

        rows = [line.split(",") for line in first[1:]]
        assert {r[3] for r in rows} == {rows[0][3]}  # one shared c_old
        for r in rows:
            if r[1] == "1":
                assert r[5] == "0" and r[7] == "0"
        for alg in ("aagg", "gg"):
            impl = [int(r[5]) for r in rows if r[0] == alg]
            c_new = [int(r[4]) for r in rows if r[0] == alg]
            assert len(impl) == 5
            assert all(a <= b for a, b in zip(impl, impl[1:]))
            assert all(a >= b for a, b in zip(c_new, c_new[1:]))


def test_criterion_8_trace_driven_failure_estimates(tmp_path, capsys):
    with reported(capsys, 8, "failure probabilities follow the interval trace"):
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(
            "node_id,start,end,state\n"
            "0,0,100,down\n0,100,1000,up\n"
            "1,0,1000,up\n"
            "2,0,250,down\n2,250,500,up\n2,500,750,down\n2,750,1000,up\n"
            "3,0,400,down\n"
            "4,0,500,up\n4,500,600,down\n4,600,2000,up\n"
        )
        f = trace_availability_for_servers(load_failure_trace(trace_path), 6)
        expected = [0.1, 0.0, 0.5, 0.99, 0.05, 0.0]
        assert f.shape == (6,)
        for got, want in zip(f, expected):
            assert abs(got - want) <= 1e-12
        assert f[3] == 0.99  # permanently dead node is clamped, not 1.0

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from replicaplan import (
    FailureTrace,
    ParameterError,
    TraceError,
    TraceRecord,
    generate_object_catalog,
    generate_traffic,
    load_failure_trace,
    synthetic_availability,
    trace_availability_for_servers,
)
from replicaplan.cli import derive_seed
from replicaplan.workload import _apportion


def write_trace(tmp_path, body: str):
    path = tmp_path / "trace.csv"
    path.write_text("node_id,start,end,state\n" + body)
    return path


class TestObjectCatalog:
    def test_ranges(self):
        catalog = generate_object_catalog(500, 1000, 5000, 7, seed=3)
        assert catalog.count == 500
        assert catalog.sizes.min() >= 1000 and catalog.sizes.max() <= 5000
        assert catalog.primaries.min() >= 0 and catalog.primaries.max() < 7

    def test_deterministic(self):
        a = generate_object_catalog(100, 10, 99, 4, seed=11)
        b = generate_object_catalog(100, 10, 99, 4, seed=11)
        c = generate_object_catalog(100, 10, 99, 4, seed=12)
        assert np.array_equal(a.sizes, b.sizes)
        assert np.array_equal(a.primaries, b.primaries)
        assert not np.array_equal(a.sizes, c.sizes)

    def test_size_mean(self):
        catalog = generate_object_catalog(10_000, 1000, 5000, 3, seed=0)
        assert 2900 <= catalog.sizes.mean() <= 3100

    def test_degenerate_range(self):
        catalog = generate_object_catalog(10, 42, 42, 2, seed=9)
        assert (catalog.sizes == 42).all()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_objects": 0, "size_lo": 1, "size_hi": 2, "n_servers": 1},
            {"n_objects": 3, "size_lo": 0, "size_hi": 2, "n_servers": 1},
            {"n_objects": 3, "size_lo": 5, "size_hi": 2, "n_servers": 1},
            {"n_objects": 3, "size_lo": 1, "size_hi": 2, "n_servers": 0},
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            generate_object_catalog(seed=0, **kwargs)


class TestTrafficModelValidation:
    """``generate_traffic`` refuses a traffic model out of its domain."""

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            generate_traffic(2, 3, kind="bursty")

    def test_array_kind_is_refused(self):
        # Escaped as numpy's "truth value of an array ... is ambiguous" ValueError.
        with pytest.raises(ParameterError, match="unknown traffic kind"):
            generate_traffic(2, 3, kind=np.array(["uniform", "zipf"]))

    def test_negative_skew(self):
        with pytest.raises(ParameterError):
            generate_traffic(2, 3, zipf_skew=-0.1)

    @pytest.mark.parametrize("skew", ["a", None, True])
    def test_non_numeric_skew(self, skew):
        with pytest.raises(ParameterError, match="zipf skew"):
            generate_traffic(2, 3, zipf_skew=skew)

    @pytest.mark.parametrize("skew", [10**400, -10**400], ids=["10^400", "-10^400"])
    def test_skew_too_large_for_a_float(self, skew):
        # math.isfinite escaped with OverflowError on an int too large for a float.
        with pytest.raises(ParameterError, match="zipf skew must be a finite number >= 0"):
            generate_traffic(2, 3, "zipf", skew)

    @pytest.mark.parametrize("skew", [2**53 + 1, Fraction(4, 5)], ids=["2^53+1", "4/5"])
    def test_inexact_skew_is_refused(self, skew):
        # Each used to be rounded to the nearest float.
        with pytest.raises(ParameterError, match="zipf skew .* exact as a float"):
            generate_traffic(2, 3, zipf_skew=skew)

    @pytest.mark.parametrize("skew", [np.uint64(1), np.uint8(2), np.int64(1), np.float32(0.5)],
                             ids=repr)
    def test_numpy_skew_draws_as_its_float(self, skew):
        # An unsigned skew wrapped under negation: a RuntimeWarning, then OverflowError.
        assert np.array_equal(generate_traffic(2, 5, zipf_skew=skew, seed=3),
                              generate_traffic(2, 5, zipf_skew=float(skew), seed=3))

    @pytest.mark.parametrize("volume", [-1, 0])
    def test_non_positive_volume(self, volume):
        with pytest.raises(ParameterError):
            generate_traffic(2, 3, total_volume=volume)

    @pytest.mark.parametrize("kind", ["uniform", "zipf"])
    def test_volume_below_2_63(self, kind):
        # A uniform split of 2**63 over six cells fits int64, but the matrix total does not.
        with pytest.raises(ParameterError, match=r"2\*\*63"):
            generate_traffic(2, 3, kind=kind, total_volume=2**63)
        assert int(generate_traffic(2, 3, kind=kind, total_volume=2**63 - 1).sum()) == 2**63 - 1

    def test_empty_matrix_rejected(self):
        with pytest.raises(ParameterError):
            generate_traffic(0, 5)


class TestUniformTraffic:
    def test_exact_division_is_flat(self):
        r = generate_traffic(3, 4, kind="uniform", total_volume=1200, seed=5)
        assert r.shape == (3, 4)
        assert (r == 100).all()

    def test_remainder_spread_and_exact_total(self):
        r = generate_traffic(3, 4, kind="uniform", total_volume=1203, seed=5)
        assert int(r.sum()) == 1203
        assert np.unique(r).tolist() == [100, 101]
        assert int((r == 101).sum()) == 3

    def test_deterministic(self):
        model = {"kind": "uniform", "total_volume": 1003, "seed": 8}
        assert np.array_equal(generate_traffic(5, 7, **model), generate_traffic(5, 7, **model))


class TestZipfTraffic:
    def test_total_is_exact(self):
        r = generate_traffic(7, 40, kind="zipf", zipf_skew=0.8, total_volume=999_983, seed=1)
        assert int(r.sum()) == 999_983

    def test_skew_zero_is_balanced(self):
        r = generate_traffic(5, 17, kind="zipf", zipf_skew=0.0, total_volume=100_000, seed=2)
        sums = r.sum(axis=0)
        assert int(sums.max() - sums.min()) <= 1

    def test_skew_one_top_object_share(self):
        # With rank^-1 popularity over 1000 objects the hottest object takes
        # 1/H_1000 of the volume, about 13.4 percent.
        r = generate_traffic(10, 1000, kind="zipf", zipf_skew=1.0, total_volume=10_000_000,
                             seed=3)
        share = r.sum(axis=0).max() / r.sum()
        assert 0.1236 <= share <= 0.1436

    def test_columns_split_evenly_across_servers(self):
        r = generate_traffic(6, 30, kind="zipf", zipf_skew=0.8, total_volume=123_457, seed=4)
        spread = r.max(axis=0) - r.min(axis=0)
        assert int(spread.max()) <= 1

    def test_permutation_varies_with_seed(self):
        a = generate_traffic(4, 50, total_volume=10_000, seed=1)
        b = generate_traffic(4, 50, total_volume=10_000, seed=2)
        assert not np.array_equal(a, b)
        assert sorted(a.sum(axis=0).tolist()) == sorted(b.sum(axis=0).tolist())

    def test_tiny_volume_still_sums_exactly(self):
        r = generate_traffic(4, 9, total_volume=3, zipf_skew=1.5, seed=6)
        assert int(r.sum()) == 3


class TestTrafficBytes:
    """The matrices' bytes and the draws behind them; both may change only with these pins."""

    @pytest.mark.parametrize("args, digest", [
        # gen's traffic for replan_tight: M = 100 > 21, so sample takes its set and pool paths.
        (dict(n_servers=100, n_objects=10_000, seed=derive_seed(42, "traffic")),
         "74d7948284158570b2d5a37af40838523ba1ec9b960b1a675490b04b11af4e26"),
        (dict(n_servers=30, n_objects=40, kind="uniform", total_volume=123_457, seed=3),
         "df24670c1a5ff0a9937d0e7a7702db76a7fb7f8bf037abba7850934d31f9f131"),
        (dict(n_servers=12, n_objects=300, total_volume=98_765, seed=5),
         "9a609035933cc51fbd6e83eb2f6df22a5e7bb5e0cc7c6859b5aecce74c626cc1"),
        (dict(n_servers=1, n_objects=50, total_volume=9_999, seed=8),
         "abb7cb9f833ed2fbc22007a581cc9e9b466efd2539480a4e134d8185d4967b67"),
        (dict(n_servers=7, n_objects=33, zipf_skew=0.0, total_volume=7 * 33 * 5, seed=9),
         "13aff39eb053adc8fb33d678e9f427a06f94dd7871fccc42db103c42d8225322"),
        (dict(n_servers=6, n_objects=9, kind="uniform", total_volume=6 * 9 * 11, seed=10),
         "72876d89eef03dcbfe028fb84f63974a06a05705ed1866a968516bdac1a386f7"),
    ], ids=["zipf-replan-tight", "uniform-30x40", "zipf-pool-only", "zipf-one-server",
            "zipf-no-remainder", "uniform-no-remainder"])
    def test_bytes_are_pinned(self, args, digest):
        r = generate_traffic(**args)
        assert r.dtype == np.int64 and r.shape == (args["n_servers"], args["n_objects"])
        assert hashlib.sha256(r.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("args", [
        dict(n_servers=m, n_objects=n, kind=kind, zipf_skew=skew, total_volume=volume, seed=seed)
        for seed, (m, n, kind, skew, volume) in enumerate([
            (3, 5, "zipf", 0.8, 2), (21, 40, "zipf", 1.2, 9_999), (22, 40, "zipf", 0.5, 12_345),
            (64, 150, "zipf", 0.8, 10**6 + 7), (9, 11, "uniform", 0.8, 1_000_003),
            (1, 1, "zipf", 0.8, 5), (40, 3, "uniform", 0.8, 2**63 - 1)])
    ])
    def test_matches_the_loop(self, args):
        """The matrix the per-entry loop writes from the same draws."""
        rng = random.Random(args["seed"])
        m, n = args["n_servers"], args["n_objects"]
        want = np.zeros((m, n), dtype=np.int64)
        if args["kind"] == "uniform":
            base, rem = divmod(args["total_volume"], m * n)
            want += base
            for idx in rng.sample(range(m * n), rem):
                want.flat[idx] += 1
        else:
            weights = np.arange(1, n + 1, dtype=np.float64) ** (-args["zipf_skew"])
            by_rank = _apportion(args["total_volume"], weights)
            perm = list(range(n))
            rng.shuffle(perm)
            for rank, k in enumerate(perm):
                base, rem = divmod(int(by_rank[rank]), m)
                want[:, k] += base
                if rem:
                    for i in rng.sample(range(m), rem):
                        want[i, k] += 1
        assert np.array_equal(generate_traffic(**args), want)

    @pytest.mark.parametrize("args, draws", [
        (dict(n_servers=4, n_objects=9, total_volume=1003, seed=6),
         [(4, 3), (4, 1), (4, 2), (4, 1), (4, 1), (4, 2), (4, 2), (4, 3)]),
        (dict(n_servers=5, n_objects=7, kind="uniform", total_volume=1003, seed=6),
         [(35, 23)]),
    ], ids=["zipf", "uniform"])
    def test_draws_are_pinned(self, monkeypatch, args, draws):
        """Every ``sample`` that draws, as (population size, k), in order."""
        calls = []
        sample = random.Random.sample

        def recording(rng, population, k, **kwargs):
            if k > 0:
                calls.append((len(population), k))
            return sample(rng, population, k, **kwargs)

        monkeypatch.setattr(random.Random, "sample", recording)
        generate_traffic(**args)
        assert calls == draws


class TestTraceParsing:
    def test_round_trip(self, tmp_path):
        trace = load_failure_trace(write_trace(
            tmp_path,
            "0,0,100,down\n0,100,1000,up\n1,0,1000,up\n",
        ))
        assert trace.records == (TraceRecord(0, 0.0, 100.0, "down"),
                                 TraceRecord(0, 100.0, 1000.0, "up"),
                                 TraceRecord(1, 0.0, 1000.0, "up"))

    def test_state_is_read_case_blind(self, tmp_path):
        trace = load_failure_trace(write_trace(tmp_path, "3,0,10, DOWN\n"))
        assert trace.records == (TraceRecord(3, 0.0, 10.0, "down"),)

    def test_overlap_names_the_file(self, tmp_path):
        path = write_trace(tmp_path, "0,0,100,up\n1,0,5,up\n0,50,150,down\n")
        with pytest.raises(TraceError, match=f"^{path}: node 0 has overlapping"):
            load_failure_trace(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("node,begin,end,state\n0,0,1,up\n")
        with pytest.raises(TraceError, match="header"):
            load_failure_trace(path)

    def test_bad_state_has_line_number(self, tmp_path):
        path = write_trace(tmp_path, "0,0,10,up\n0,10,20,flaky\n")
        with pytest.raises(TraceError, match=":3:"):
            load_failure_trace(path)

    def test_non_numeric_field(self, tmp_path):
        path = write_trace(tmp_path, "0,zero,10,up\n")
        with pytest.raises(TraceError, match=":2:"):
            load_failure_trace(path)

    def test_empty_interval(self, tmp_path):
        path = write_trace(tmp_path, "0,10,10,down\n")
        with pytest.raises(TraceError, match="end"):
            load_failure_trace(path)

    @pytest.mark.parametrize("row", ["0,20,nan,down", "0,nan,30,up", "0,20,inf,down",
                                     "0,-inf,30,up"])
    def test_non_finite_time_names_the_line(self, tmp_path, row):
        path = write_trace(tmp_path, f"0,0,10,up\n{row}\n")
        with pytest.raises(TraceError, match=r":3: interval (start|end) must be a finite number"):
            load_failure_trace(path)

    def test_overlap(self, tmp_path):
        path = write_trace(tmp_path, "0,0,100,up\n0,50,150,down\n")
        with pytest.raises(TraceError, match="overlap"):
            load_failure_trace(path)

    def test_wrong_field_count(self, tmp_path):
        path = write_trace(tmp_path, "0,0,100\n")
        with pytest.raises(TraceError, match=":2:"):
            load_failure_trace(path)

    def test_negative_node(self, tmp_path):
        path = write_trace(tmp_path, "-1,0,100,up\n")
        with pytest.raises(TraceError, match="node id"):
            load_failure_trace(path)


class TestTraceInCode:
    """A trace built in code obeys the rules the CSV loader applies."""

    @pytest.mark.parametrize("node, start, end, state", [
        (0, 5.0, 5.0, "down"),                 # zero-length interval
        (0, 10.0, 5.0, "up"),                  # end before start
        (0, 0.0, float("nan"), "down"),        # NaN horizon
        (0, float("nan"), 5.0, "up"),
        (0, 0.0, float("inf"), "up"),
        (0, 0.0, 10**400, "up"),               # too large for a float
        (0, 0, 2**53 + 1, "up"),               # not exact as a float
        (0, "0", 5.0, "up"),
        (0, True, 5.0, "up"),
        (0, None, 5.0, "up"),
        (-1, 0.0, 5.0, "up"),                  # negative node
        (True, 0.0, 5.0, "up"),                # bool node
        (1.5, 0.0, 5.0, "up"),
        ("1", 0.0, 5.0, "up"),
        (0, 0.0, 5.0, "flaky"),
        (0, 0.0, 5.0, "DOWN"),                 # the loader normalises, the record does not
        (0, 0.0, 5.0, None),
    ])
    def test_bad_record(self, node, start, end, state):
        with pytest.raises(TraceError):
            TraceRecord(node, start, end, state)

    def test_bad_state_is_named(self):
        # Used to read "state must be 'up' or 'down', got 'flaky'".
        with pytest.raises(TraceError, match="^unknown state 'flaky'$"):
            TraceRecord(0, 0.0, 5.0, "flaky")

    def test_horizon_too_long_for_a_float(self):
        # Its downtime share used to be inf / inf = NaN.
        with pytest.raises(TraceError, match="horizon"):
            FailureTrace((TraceRecord(0, -1e308, 0.0, "down"), TraceRecord(0, 0.0, 1e308, "down")))

    def test_overlapping_intervals(self):
        with pytest.raises(TraceError, match="overlapping"):
            FailureTrace((TraceRecord(0, 0.0, 100.0, "up"), TraceRecord(1, 0.0, 50.0, "up"),
                          TraceRecord(0, 50.0, 150.0, "down")))

    @pytest.mark.parametrize("records", [
        ((0, 0.0, 5.0, "up"),),
        ("0,0,5,up",),
        (None,),
        5,
    ])
    def test_non_record_entries(self, records):
        with pytest.raises(TraceError):
            FailureTrace(records)

    @pytest.mark.parametrize("records", [5, None])
    def test_records_must_be_iterable(self, records):
        with pytest.raises(TraceError, match="must be iterable"):
            FailureTrace(records)

    def test_zero_length_horizon_never_divides(self):
        # Before the records checked themselves this raised ZeroDivisionError.
        with pytest.raises(TraceError):
            trace_availability_for_servers(FailureTrace((TraceRecord(0, 5, 5, "down"),)), 1)

    def test_whole_values_are_normalised(self):
        rec = TraceRecord(2.0, 0, 10, "down")
        assert (rec.node, rec.start, rec.end) == (2, 0.0, 10.0)
        assert type(rec.node) is int and type(rec.start) is float
        trace = FailureTrace([rec])
        assert trace.records == (rec,)
        assert trace_availability_for_servers(trace, 3).tolist() == [0.0, 0.0, 0.99]

    def test_matches_the_loader(self, tmp_path):
        body = "4,0,100,down\n1,0,1000,up\n4,100,1000,up\n"
        loaded = load_failure_trace(write_trace(tmp_path, body))
        built = FailureTrace((TraceRecord(4, 0, 100, "down"), TraceRecord(1, 0, 1000, "up"),
                              TraceRecord(4, 100, 1000, "up")))
        assert built == loaded
        assert (trace_availability_for_servers(built, 3).tolist()
                == trace_availability_for_servers(loaded, 3).tolist())


class TestAvailabilityEstimate:
    def test_downtime_share(self, tmp_path):
        trace = load_failure_trace(write_trace(
            tmp_path,
            "0,0,100,down\n0,100,1000,up\n1,0,1000,up\n",
        ))
        f = trace_availability_for_servers(trace, 3)
        assert f[0] == pytest.approx(0.1, abs=1e-12)
        assert f[1] == 0.0
        assert f[2] == 0.0  # absent from the trace

    def test_gaps_count_as_uptime(self, tmp_path):
        trace = load_failure_trace(write_trace(
            tmp_path,
            "0,0,100,down\n0,900,1000,up\n",
        ))
        f = trace_availability_for_servers(trace, 1)
        assert f[0] == pytest.approx(0.1, abs=1e-12)

    def test_always_down_clamps(self, tmp_path):
        trace = load_failure_trace(write_trace(tmp_path, "0,0,500,down\n0,500,900,down\n"))
        f = trace_availability_for_servers(trace, 1)
        assert f[0] == 0.99


class TestTraceFolding:
    def test_modulo_mapping_with_average(self, tmp_path):
        body = (
            "0,0,100,down\n0,100,1000,up\n"   # f = 0.1
            "1,0,1000,up\n"                    # f = 0.0
            "2,0,300,down\n2,300,1000,up\n"    # f = 0.3
            "3,0,500,down\n3,500,1000,up\n"    # f = 0.5
        )
        trace = load_failure_trace(write_trace(tmp_path, body))
        f = trace_availability_for_servers(trace, 2)
        assert f[0] == pytest.approx((0.1 + 0.3) / 2, abs=1e-12)
        assert f[1] == pytest.approx((0.0 + 0.5) / 2, abs=1e-12)

    def test_unmapped_servers_never_fail(self, tmp_path):
        trace = load_failure_trace(write_trace(tmp_path, "0,0,10,down\n0,10,20,up\n"))
        f = trace_availability_for_servers(trace, 4)
        assert f[0] == pytest.approx(0.5)
        assert (f[1:] == 0.0).all()

    def test_huge_node_id_folds_without_allocating(self, tmp_path):
        # an array indexed by node id would need 7 TiB here
        node = 10**12
        trace = load_failure_trace(write_trace(tmp_path, f"{node},0,10,down\n{node},10,20,up\n"))
        f = trace_availability_for_servers(trace, 4)
        assert f.tolist() == [0.5, 0.0, 0.0, 0.0]

    def test_empty_trace(self):
        f = trace_availability_for_servers(FailureTrace(records=()), 3)
        assert (f == 0.0).all()

    @pytest.mark.parametrize("trace", [None, [], "trace.csv", (TraceRecord(0, 0, 1, "up"),)])
    def test_trace_must_be_a_failure_trace(self, trace):
        # Each escaped as AttributeError: ... has no attribute 'records'.
        with pytest.raises(TraceError, match="trace must be a FailureTrace"):
            trace_availability_for_servers(trace, 3)


class TestSyntheticAvailability:
    def test_constant(self):
        f = synthetic_availability(5, "constant:0.05", seed=1)
        assert (f == 0.05).all()

    def test_uniform_bounds_and_mean(self):
        f = synthetic_availability(10_000, "uniform:0.0:0.3", seed=2)
        assert f.min() >= 0.0 and f.max() <= 0.3
        assert 0.14 <= f.mean() <= 0.16

    def test_deterministic(self):
        a = synthetic_availability(50, "uniform:0.1:0.2", seed=3)
        b = synthetic_availability(50, "uniform:0.1:0.2", seed=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "spec",
        ["gauss:0.1", "constant:1.0", "uniform:0.5:0.2", "uniform:0:1.0",
         "constant:abc", "uniform:0.1", "constant:-0.2"],
    )
    def test_bad_specs(self, spec):
        with pytest.raises(ParameterError):
            synthetic_availability(3, spec, seed=1)

    @pytest.mark.parametrize("spec", [5, None, b"constant:0.1"])
    def test_non_string_spec(self, spec):
        with pytest.raises(ParameterError, match="must be a string"):
            synthetic_availability(3, spec, seed=1)

    def test_no_servers(self):
        with pytest.raises(ParameterError, match="server"):
            synthetic_availability(0, "constant:0.1", seed=1)

    def test_unknown_kind_reported_once(self):
        with pytest.raises(ParameterError) as info:
            synthetic_availability(3, "gauss:0.1", seed=1)
        assert str(info.value) == "unknown availability spec 'gauss'"

    @pytest.mark.parametrize("spec", ["constant:1.0", "uniform:-0.1:0.2", "constant:nan"])
    def test_bounds_follow_the_failure_probability_rule(self, spec):
        # Used to be refused by the spec's own "0 <= lo <= hi < 1" test.
        with pytest.raises(ParameterError, match=r"^failure probabilities must lie in \[0, 1\)$"):
            synthetic_availability(3, spec, seed=1)

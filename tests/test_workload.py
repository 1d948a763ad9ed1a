import numpy as np
import pytest

from replicaplan import (
    FailureTrace,
    ParameterError,
    TraceError,
    TrafficModel,
    generate_object_catalog,
    generate_traffic,
    load_failure_trace,
    synthetic_availability,
    trace_availability_for_servers,
)


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
    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            TrafficModel(kind="bursty")

    def test_negative_skew(self):
        with pytest.raises(ParameterError):
            TrafficModel(zipf_skew=-0.1)

    @pytest.mark.parametrize("volume", [-1, 0])
    def test_non_positive_volume(self, volume):
        with pytest.raises(ParameterError):
            TrafficModel(total_volume=volume)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ParameterError):
            generate_traffic(TrafficModel(), 0, 5)


class TestUniformTraffic:
    def test_exact_division_is_flat(self):
        model = TrafficModel(kind="uniform", total_volume=1200, seed=5)
        r = generate_traffic(model, 3, 4)
        assert r.shape == (3, 4)
        assert (r == 100).all()

    def test_remainder_spread_and_exact_total(self):
        model = TrafficModel(kind="uniform", total_volume=1203, seed=5)
        r = generate_traffic(model, 3, 4)
        assert int(r.sum()) == 1203
        assert np.unique(r).tolist() == [100, 101]
        assert int((r == 101).sum()) == 3

    def test_deterministic(self):
        model = TrafficModel(kind="uniform", total_volume=1003, seed=8)
        assert np.array_equal(generate_traffic(model, 5, 7), generate_traffic(model, 5, 7))


class TestZipfTraffic:
    def test_total_is_exact(self):
        model = TrafficModel(kind="zipf", zipf_skew=0.8, total_volume=999_983, seed=1)
        r = generate_traffic(model, 7, 40)
        assert int(r.sum()) == 999_983

    def test_skew_zero_is_balanced(self):
        model = TrafficModel(kind="zipf", zipf_skew=0.0, total_volume=100_000, seed=2)
        sums = generate_traffic(model, 5, 17).sum(axis=0)
        assert int(sums.max() - sums.min()) <= 1

    def test_skew_one_top_object_share(self):
        # With rank^-1 popularity over 1000 objects the hottest object takes
        # 1/H_1000 of the volume, about 13.4 percent.
        model = TrafficModel(kind="zipf", zipf_skew=1.0, total_volume=10_000_000, seed=3)
        r = generate_traffic(model, 10, 1000)
        share = r.sum(axis=0).max() / r.sum()
        assert 0.1236 <= share <= 0.1436

    def test_columns_split_evenly_across_servers(self):
        model = TrafficModel(kind="zipf", zipf_skew=0.8, total_volume=123_457, seed=4)
        r = generate_traffic(model, 6, 30)
        spread = r.max(axis=0) - r.min(axis=0)
        assert int(spread.max()) <= 1

    def test_permutation_varies_with_seed(self):
        a = generate_traffic(TrafficModel(total_volume=10_000, seed=1), 4, 50)
        b = generate_traffic(TrafficModel(total_volume=10_000, seed=2), 4, 50)
        assert not np.array_equal(a, b)
        assert sorted(a.sum(axis=0).tolist()) == sorted(b.sum(axis=0).tolist())

    def test_tiny_volume_still_sums_exactly(self):
        r = generate_traffic(TrafficModel(total_volume=3, zipf_skew=1.5, seed=6), 4, 9)
        assert int(r.sum()) == 3


class TestTraceParsing:
    def test_round_trip(self, tmp_path):
        trace = load_failure_trace(write_trace(
            tmp_path,
            "0,0,100,down\n0,100,1000,up\n1,0,1000,up\n",
        ))
        assert trace.nodes == [0, 1]
        assert trace.horizons[0] == (0.0, 1000.0)
        assert len(trace.records) == 3

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
        with pytest.raises(TraceError, match=":3: interval times must be finite"):
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
        f = trace_availability_for_servers(FailureTrace(records=(), horizons={}), 3)
        assert (f == 0.0).all()


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

    def test_unknown_kind_reported_once(self):
        with pytest.raises(ParameterError) as info:
            synthetic_availability(3, "gauss:0.1", seed=1)
        assert str(info.value) == (
            "availability spec must be 'constant:F' or 'uniform:LO:HI', got 'gauss:0.1'"
        )

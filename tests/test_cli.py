import json

import pytest

from replicaplan import PlacementState, Scenario, load_placement
from replicaplan.cli import (
    RESULTS_HEADER,
    ResultRow,
    _parse_cap,
    _parse_caps,
    derive_seed,
    main,
)


MICRO_TOPOLOGY = {"nodes": 3, "edges": [[0, 1, 2], [1, 2, 3]]}
MICRO_SCENARIO = {
    "capacities": [30, 30, 30],
    "failure_probs": [0.1, 0.2, 0.01],
    "sizes": [10, 20],
    "primaries": [0, 2],
    "traffic": [[0, 60], [40, 20], [10, 0]],
}


def write_micro_instance(tmp_path):
    """The hand-checkable path instance, in the on-disk formats the CLI reads."""
    topo_path = tmp_path / "topology.json"
    topo_path.write_text(json.dumps(MICRO_TOPOLOGY))
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(MICRO_SCENARIO))
    return topo_path, scenario_path


def solve_args(topo, scen, out, *extra):
    return ["solve", "--topology", str(topo), "--scenario", str(scen),
            "--out", str(out), *extra]


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(0, "topology") == derive_seed(0, "topology")

    def test_labels_and_masters_split(self):
        seen = {derive_seed(0, "topology"), derive_seed(0, "costs"),
                derive_seed(0, "traffic"), derive_seed(1, "topology")}
        assert len(seen) == 4

    def test_non_negative(self):
        assert all(derive_seed(s, "x") >= 0 for s in range(20))


class TestArgParsing:
    def test_caps_range(self):
        assert _parse_caps("1..5") == (1, 2, 3, 4, 5)

    def test_caps_list(self):
        assert _parse_caps("1,3,9") == (1, 3, 9)

    @pytest.mark.parametrize("text", ["3", "2..5", "1,1,2", "5..1", "abc", "1,abc"])
    def test_caps_rejects(self, text):
        with pytest.raises(Exception):
            _parse_caps(text)

    def test_cap_values(self):
        assert _parse_cap("3") == 3
        assert _parse_cap("unlimited") is None

    @pytest.mark.parametrize("text", ["0", "-2", "many"])
    def test_cap_rejects(self, text):
        with pytest.raises(Exception):
            _parse_cap(text)


class TestResultsCsv:
    def test_header_columns(self):
        assert RESULTS_HEADER == ("algorithm,cap,seed,c_old,c_new,impl_cost,benefit_total,"
                                  "flips,evictions,min_avail_old,min_avail_new,runtime_ms")

    @pytest.mark.parametrize("cap, benefit, line", [
        (None, 0.1 + 0.2, "gg,unlimited,7,490,70,120,0.30000000000000004,2,0,0.9,0.99,5"),
        (3, 120, "gg,3,7,490,70,120,120,2,0,0.9,0.99,5"),
    ])
    def test_row_cells(self, cap, benefit, line):
        row = ResultRow("gg", cap, 7, 490, 70, 120, benefit, 2, 0, 0.9, 0.99, 5)
        assert row.to_csv_line() == line


class TestGen:
    def test_writes_instance_files(self, tmp_path):
        out = tmp_path / "inst"
        code = main(["gen", "--nodes", "8", "--objects", "12",
                     "--size-lo", "10", "--size-hi", "50",
                     "--traffic-volume", "10000", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        for name in ("topology.json", "cost_matrix.csv", "scenario.json"):
            assert (out / name).is_file()
        scenario = Scenario.load(out / "scenario.json")
        assert scenario.servers.count == 8
        assert scenario.objects.count == 12
        assert int(scenario.traffic.sum()) == 10000
        matrix_rows = (out / "cost_matrix.csv").read_text().strip().split("\n")
        assert len(matrix_rows) == 8

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["gen", "--nodes", "6", "--objects", "9", "--size-lo", "5",
                "--size-hi", "9", "--traffic-volume", "777", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("topology.json", "cost_matrix.csv", "scenario.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_changes_instance(self, tmp_path):
        base = ["gen", "--nodes", "6", "--objects", "9", "--size-lo", "5",
                "--size-hi", "9", "--traffic-volume", "777"]
        assert main(base + ["--seed", "1", "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--seed", "2", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "scenario.json").read_bytes() != \
            (tmp_path / "b" / "scenario.json").read_bytes()

    def test_invalid_knob_exits_1(self, tmp_path):
        assert main(["gen", "--nodes", "0", "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--capacity-policy", "slack:inf"], "slack factor"),
        (["--capacity-policy", "slack:nan"], "slack factor"),
        (["--capacity-policy", "slack:1e300"], "2**63"),
        (["--traffic-volume", str(10**20)], "2**63"),
        (["--zipf-skew", "nan"], "zipf skew"),
        (["--zipf-skew", "inf"], "zipf skew"),
    ], ids=["slack-inf", "slack-nan", "slack-1e300", "volume-1e20", "skew-nan", "skew-inf"])
    def test_out_of_range_flag_exits_1(self, tmp_path, capsys, flags, message):
        out = tmp_path / "inst"
        args = ["gen", "--nodes", "5", "--objects", "10", *flags, "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("volume", [2**62, 2**63 - 1], ids=["2^62", "2^63-1"])
    def test_huge_volume_splits_exactly(self, tmp_path, volume):
        # Above 2**53 a float quota is inexact; the integer shares must still sum exactly.
        out = tmp_path / "inst"
        args = ["gen", "--nodes", "5", "--objects", "10", "--traffic-volume", str(volume),
                "--out", str(out)]
        assert main(args) == 0
        traffic = Scenario.load(out / "scenario.json").traffic
        assert sum(int(v) for v in traffic.ravel()) == volume

    def test_trace_availability(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "node_id,start,end,state\n0,0,100,down\n0,100,1000,up\n1,0,1000,up\n"
        )
        out = tmp_path / "inst"
        code = main(["gen", "--nodes", "4", "--objects", "5", "--size-lo", "1",
                     "--size-hi", "3", "--traffic-volume", "100",
                     "--trace", str(trace), "--out", str(out)])
        assert code == 0
        scenario = Scenario.load(out / "scenario.json")
        assert scenario.servers.failure_probs[0] == pytest.approx(0.1)
        assert scenario.servers.failure_probs[1] == 0.0
        assert scenario.meta["availability_source"]["trace"] == str(trace)

    def test_trace_and_synthetic_conflict(self, tmp_path):
        code = main(["gen", "--trace", "t.csv",
                     "--synthetic-availability", "constant:0.1",
                     "--out", str(tmp_path / "x")])
        assert code == 2


class TestSolve:
    def test_micro_row(self, tmp_path, capsys):
        topo, scen = write_micro_instance(tmp_path)
        out = tmp_path / "run"
        assert main(solve_args(topo, scen, out, "--alg", "aagg")) == 0
        captured = capsys.readouterr().out.strip().split("\n")
        assert captured[0] == RESULTS_HEADER
        fields = captured[1].split(",")
        assert fields[:10] == ["aagg", "unlimited", "0", "490", "70", "120",
                               "262.0", "2", "0", "0.9"]
        assert fields[10] == "0.98"
        csv_lines = (out / "results.csv").read_text().strip().split("\n")
        assert csv_lines[0] == RESULTS_HEADER
        assert csv_lines[1] == captured[1]

    def test_placement_file(self, tmp_path):
        topo, scen = write_micro_instance(tmp_path)
        out = tmp_path / "run"
        main(solve_args(topo, scen, out, "--alg", "aagg"))
        x = load_placement(out / "placement.json", 3, 2)
        assert x.tolist() == [[1, 1], [1, 0], [0, 1]]
        payload = json.loads((out / "result.json").read_text())
        assert payload["c_new"] == 70
        assert payload["algorithm"] == "aagg"
        assert len(payload["schedule"]) == 2

    def test_cap_one_is_identity(self, tmp_path, capsys):
        topo, scen = write_micro_instance(tmp_path)
        out = tmp_path / "run"
        assert main(solve_args(topo, scen, out, "--alg", "aagg", "--cap", "1")) == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert row[1] == "1"
        assert row[3] == row[4] == "490"
        assert row[5] == "0" and row[7] == "0"

    def test_gg_row(self, tmp_path, capsys):
        topo, scen = write_micro_instance(tmp_path)
        out = tmp_path / "run"
        assert main(solve_args(topo, scen, out, "--alg", "gg")) == 0
        fields = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert fields[0] == "gg"
        assert fields[4] == "70" and fields[6] == "300"

    def test_x_old_resumes(self, tmp_path, capsys):
        topo, scen = write_micro_instance(tmp_path)
        start = tmp_path / "start.json"
        start.write_text(json.dumps({"objects": [
            {"id": 0, "replicators": [0]},
            {"id": 1, "replicators": [0, 2]},
        ]}))
        out = tmp_path / "run"
        assert main(solve_args(topo, scen, out, "--alg", "aagg",
                               "--x-old", str(start))) == 0
        fields = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert fields[3] == "170"  # object 1 already mirrored
        assert fields[4] == "70"

    def test_invalid_x_old_exits_1(self, tmp_path, capsys):
        topo, scen = write_micro_instance(tmp_path)
        start = tmp_path / "start.json"
        start.write_text(json.dumps({"objects": [
            {"id": 0, "replicators": [1]},
            {"id": 1, "replicators": [2]},
        ]}))
        code = main(solve_args(topo, scen, tmp_path / "run", "--alg", "aagg",
                               "--x-old", str(start)))
        assert code == 1
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", "3", "null", '"scenario"'])
    def test_non_object_scenario_exits_1(self, tmp_path, capsys, text):
        topo, scen = write_micro_instance(tmp_path)
        scen.write_text(text)
        assert main(solve_args(topo, scen, tmp_path / "run", "--alg", "aagg")) == 1
        assert str(scen) in capsys.readouterr().err

    def test_float_score_bound_exits_1(self, tmp_path, capsys):
        topo, scen = tmp_path / "topology.json", tmp_path / "scenario.json"
        topo.write_text(json.dumps({"nodes": 2, "edges": [[0, 1, 1]]}))
        scen.write_text(json.dumps({"capacities": [10, 10], "failure_probs": [0.1, 0.1],
                                    "sizes": [1], "primaries": [0],
                                    "traffic": [[0], [2**53]]}))
        assert main(solve_args(topo, scen, tmp_path / "aagg", "--alg", "aagg")) == 1
        assert "2**53" in capsys.readouterr().err
        assert main(solve_args(topo, scen, tmp_path / "gg", "--alg", "gg")) == 0

    def test_size_total_at_2_63_exits_1(self, tmp_path, capsys):
        topo, scen = tmp_path / "topology.json", tmp_path / "scenario.json"
        topo.write_text(json.dumps({"nodes": 2, "edges": [[0, 1, 1]]}))
        scen.write_text(json.dumps({"capacities": [2**62, 2**62], "failure_probs": [0.1, 0.1],
                                    "sizes": [2**62, 2**62], "primaries": [0, 0],
                                    "traffic": [[0, 0], [1, 1]]}))
        assert main(solve_args(topo, scen, tmp_path / "run", "--alg", "gg")) == 1
        assert "2**63" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_algorithm_exits_2(self, tmp_path):
        topo, scen = write_micro_instance(tmp_path)
        assert main(solve_args(topo, scen, tmp_path / "run", "--alg", "anneal")) == 2

    def test_missing_topology_exits_3(self, tmp_path):
        _, scen = write_micro_instance(tmp_path)
        code = main(solve_args(tmp_path / "nope.json", scen, tmp_path / "run",
                               "--alg", "aagg"))
        assert code == 3

    def test_server_count_mismatch_exits_1(self, tmp_path):
        topo, scen = write_micro_instance(tmp_path)
        other = tmp_path / "bigger.json"
        other.write_text(json.dumps(
            {"nodes": 4, "edges": [[0, 1, 2], [1, 2, 3], [2, 3, 1]]}
        ))
        assert main(solve_args(other, scen, tmp_path / "run", "--alg", "aagg")) == 1


class TestSweep:
    def run_sweep(self, tmp_path, *extra):
        topo, scen = write_micro_instance(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--topology", str(topo), "--scenario", str(scen),
                     "--out", str(out), "--algs", "gg,aagg", "--caps", "1..3",
                     *extra])
        return code, out

    def test_grid_shape_and_order(self, tmp_path):
        code, out = self.run_sweep(tmp_path)
        assert code == 0
        lines = (out / "results.csv").read_text().strip().split("\n")
        assert lines[0] == RESULTS_HEADER
        cells = [line.split(",")[:2] for line in lines[1:]]
        assert cells == [["aagg", "1"], ["aagg", "2"], ["aagg", "3"],
                         ["gg", "1"], ["gg", "2"], ["gg", "3"]]

    def test_builds_one_state(self, tmp_path, monkeypatch):
        """Every cell plans from the one state; ``solve`` copies it."""
        built = []
        init = PlacementState.__init__
        monkeypatch.setattr(PlacementState, "__init__",
                            lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
        code, out = self.run_sweep(tmp_path, "--caps", "1,2")
        assert code == 0
        assert len(out.joinpath("results.csv").read_text().splitlines()) == 1 + 2 * 2
        assert len(built) == 1

    def test_cap_one_never_transfers(self, tmp_path):
        _, out = self.run_sweep(tmp_path)
        for line in (out / "results.csv").read_text().strip().split("\n")[1:]:
            fields = line.split(",")
            if fields[1] == "1":
                assert fields[5] == "0"

    def test_c_old_uniform_and_c_new_monotone(self, tmp_path):
        _, out = self.run_sweep(tmp_path)
        rows = [line.split(",") for line in
                (out / "results.csv").read_text().strip().split("\n")[1:]]
        assert {r[3] for r in rows} == {"490"}
        for alg in ("aagg", "gg"):
            c_new = [int(r[4]) for r in rows if r[0] == alg]
            assert all(a >= b for a, b in zip(c_new, c_new[1:]))

    def test_unknown_algorithm_exits_2(self, tmp_path, capsys):
        topo, scen = write_micro_instance(tmp_path)
        code = main(["sweep", "--topology", str(topo), "--scenario", str(scen),
                     "--out", str(tmp_path / "s"), "--algs", "aagg,anneal"])
        assert code == 2
        assert "anneal" in capsys.readouterr().err

    def test_gnuplot_script(self, tmp_path):
        code, out = self.run_sweep(tmp_path, "--gnuplot")
        assert code == 0
        script = (out / "plot_impl_cost.gp").read_text()
        assert "plot " in script
        assert "aagg" in script and "gg" in script


class TestInspect:
    def test_valid_placement(self, tmp_path, capsys):
        topo, scen = write_micro_instance(tmp_path)
        run = tmp_path / "run"
        main(solve_args(topo, scen, run, "--alg", "aagg"))
        capsys.readouterr()
        report_dir = tmp_path / "report"
        code = main(["inspect", "--placement", str(run / "placement.json"),
                     "--topology", str(topo), "--scenario", str(scen),
                     "--out", str(report_dir)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "placement valid: total access cost 70" in stdout
        assert "2x2" in stdout
        report = json.loads((report_dir / "report.json").read_text())
        assert report["valid"] is True
        assert report["total_access_cost"] == 70
        assert report["replica_histogram"] == {"2": 2}

    def test_tampered_placement_exits_1(self, tmp_path, capsys):
        topo, scen = write_micro_instance(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"objects": [
            {"id": 0, "replicators": [1]},
            {"id": 1, "replicators": [2]},
        ]}))
        code = main(["inspect", "--placement", str(bad),
                     "--topology", str(topo), "--scenario", str(scen)])
        assert code == 1
        assert "violation (primary)" in capsys.readouterr().out

"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestPresets:
    def test_lists_all_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("WH64", "VC16", "VC64", "VC128", "CB", "XB"):
            assert name in out


class TestRun:
    def test_run_prints_summary(self, capsys):
        code = main(["run", "--preset", "VC16", "--rate", "0.03",
                     "--sample", "60", "--warmup", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg latency" in out
        assert "total power" in out
        assert "crossbar" in out

    def test_run_spatial_map(self, capsys):
        code = main(["run", "--preset", "VC16", "--rate", "0.03",
                     "--sample", "60", "--warmup", "100", "--spatial"])
        assert code == 0
        assert "y=3" in capsys.readouterr().out

    def test_run_broadcast(self, capsys):
        code = main(["run", "--preset", "VC16", "--traffic", "broadcast",
                     "--source", "9", "--rate", "0.1",
                     "--sample", "60", "--warmup", "100"])
        assert code == 0
        assert "broadcast" in capsys.readouterr().out

    def test_run_with_leakage(self, capsys):
        code = main(["run", "--preset", "VC16", "--rate", "0.03",
                     "--sample", "60", "--warmup", "100", "--leakage"])
        assert code == 0

    def test_run_monitor(self, capsys):
        """``--monitor`` is gone: telemetry carries utilisation."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "VC16", "--rate", "0.03",
                  "--sample", "60", "--warmup", "100", "--monitor"])
        assert exc.value.code == 2
        assert "--monitor" in capsys.readouterr().err

    def test_run_telemetry_prints_utilization(self, capsys):
        code = main(["run", "--preset", "VC16", "--rate", "0.03",
                     "--sample", "60", "--warmup", "100",
                     "--telemetry-window", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "occupancy/utilization:" in out
        assert "hottest channels:" in out

    def test_run_ending_in_warmup_reports_status(self, capsys):
        """A faulted run that stalls inside warm-up prints its status
        and an empty utilisation block instead of crashing."""
        code = main(["run", "--preset", "VC16", "--rate", "0.05",
                     "--warmup", "60000", "--sample", "50",
                     "--faults", "router_freeze:node=3,at=10",
                     "--telemetry-window", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "status:        stalled" in out
        assert "occupancy/utilization:\nno measured cycles" in out

    def test_run_data_activity(self, capsys):
        code = main(["run", "--preset", "VC16", "--rate", "0.03",
                     "--sample", "40", "--warmup", "80",
                     "--activity", "data"])
        assert code == 0

    @pytest.mark.parametrize("traffic", ["transpose", "bitcomp",
                                         "hotspot", "neighbor"])
    def test_other_traffic_kinds(self, capsys, traffic):
        code = main(["run", "--preset", "VC16", "--traffic", traffic,
                     "--rate", "0.03", "--sample", "40",
                     "--warmup", "80"])
        assert code == 0


class TestSweep:
    def test_sweep_prints_table(self, capsys):
        code = main(["sweep", "--preset", "VC16",
                     "--rates", "0.02,0.05", "--sample", "60",
                     "--warmup", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.020" in out and "0.050" in out
        assert "saturation" in out

    def test_sweep_any_traffic_kind(self, capsys):
        code = main(["sweep", "--preset", "VC16", "--traffic", "hotspot",
                     "--source", "5", "--rates", "0.02,0.04",
                     "--sample", "50", "--warmup", "80"])
        assert code == 0
        assert "0.040" in capsys.readouterr().out

    def test_sweep_parallel(self, capsys):
        code = main(["sweep", "--preset", "VC16",
                     "--rates", "0.02,0.05", "--sample", "60",
                     "--warmup", "100", "--processes", "2"])
        assert code == 0
        assert "saturation" in capsys.readouterr().out


class TestExperiment:
    ARGS = ["experiment", "--presets", "WH64,VC16",
            "--traffic", "uniform", "--rates", "0.02,0.05",
            "--sample", "50", "--warmup", "80"]

    def test_grid_runs_and_reports(self, tmp_path, capsys):
        code = main(self.ARGS + ["--cache-dir", str(tmp_path / "c")])
        assert code == 0
        out = capsys.readouterr().out
        assert "WH64" in out and "VC16" in out
        assert "4 points" in out
        assert "4 simulated" in out
        assert "cache:" in out

    def test_second_run_served_from_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "c")
        main(self.ARGS + ["--cache-dir", cache])
        capsys.readouterr()
        assert main(self.ARGS + ["--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out and "4 cached" in out
        assert out.count("cached") >= 4  # every progress line

    def test_no_cache_flag(self, capsys):
        code = main(self.ARGS + ["--no-cache"])
        assert code == 0
        assert "cache:" not in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "exp.csv"
        code = main(self.ARGS + ["--no-cache", "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 5  # header + 2 presets x 2 rates

    def test_cache_line_reports_hits_and_misses(self, tmp_path, capsys):
        cache = str(tmp_path / "c")
        assert main(self.ARGS + ["--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "0 hits / 4 misses this run" in out
        assert main(self.ARGS + ["--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "4 hits / 0 misses this run" in out

    def test_rates_auto_builds_guided_grid(self, tmp_path, capsys):
        code = main(["experiment", "--presets", "VC16",
                     "--traffic", "uniform", "--rates", "auto",
                     "--grid-points", "4", "--sample", "40",
                     "--warmup", "80", "--cache-dir", str(tmp_path / "c")])
        assert code == 0
        out = capsys.readouterr().out
        assert "guided grid VC16/uniform" in out
        assert "predicted saturation" in out
        assert "4 points" in out and "0 failed" in out

    def test_multi_traffic_and_seeds(self, tmp_path, capsys):
        code = main(["experiment", "--presets", "VC16",
                     "--traffic", "uniform,transpose",
                     "--rates", "0.02", "--seeds", "1,2",
                     "--sample", "40", "--warmup", "80",
                     "--cache-dir", str(tmp_path / "c")])
        assert code == 0
        out = capsys.readouterr().out
        assert "transpose" in out and "seed=2" in out


class TestEstimate:
    def test_estimate_prints_analytic_point(self, capsys):
        code = main(["estimate", "--preset", "VC16", "--rate", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "analytic estimate, no simulation" in out
        assert "zero-load" in out
        assert "saturation" in out
        assert "power breakdown" in out
        assert "crossbar" in out

    def test_estimate_topology_overrides(self, capsys):
        code = main(["estimate", "--preset", "VC16", "--rate", "0.02",
                     "--topology", "mesh", "--width", "8",
                     "--height", "8"])
        assert code == 0
        assert "mesh 8x8" in capsys.readouterr().out

    def test_estimate_warns_past_saturation(self, capsys):
        code = main(["estimate", "--preset", "VC16", "--rate", "0.5"])
        assert code == 0
        assert "past the predicted" in capsys.readouterr().out

    def test_estimate_other_traffic(self, capsys):
        code = main(["estimate", "--preset", "WH64",
                     "--traffic", "transpose", "--rate", "0.04"])
        assert code == 0
        assert "transpose" in capsys.readouterr().out


class TestPower:
    def test_power_walkthrough(self, capsys):
        assert main(["power", "--preset", "WH64"]) == 0
        out = capsys.readouterr().out
        for term in ("E_wrt", "E_arb", "E_read", "E_xb", "E_link",
                     "E_flit"):
            assert term in out

    def test_power_cb_shows_central_model(self, capsys):
        assert main(["power", "--preset", "CB"]) == 0
        assert "central buffer" in capsys.readouterr().out


class TestDelay:
    def test_delay_report(self, capsys):
        assert main(["delay", "--preset", "VC64"]) == 0
        out = capsys.readouterr().out
        assert "3-stage" in out
        assert "GHz" in out


class TestErrors:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["teleport"])

    def test_unknown_preset_exits_nonzero(self, capsys):
        assert main(["delay", "--preset", "VC9000"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_processes_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "--processes", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_bad_point_timeout_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "--point-timeout", "0"])
        assert excinfo.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    def test_zero_queue_limit_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--queue-limit", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_zero_sample_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--sample", "0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["run", "experiment"])
    def test_kernel_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--kernel", "sparse"])
        assert excinfo.value.code == 2
        assert "--kernel" in capsys.readouterr().err


class TestExportFlags:
    def test_run_json_and_csv(self, tmp_path, capsys):
        json_path = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        code = main(["run", "--preset", "VC16", "--rate", "0.03",
                     "--sample", "50", "--warmup", "80",
                     "--json", str(json_path), "--csv", str(csv_path)])
        assert code == 0
        assert json_path.exists() and csv_path.exists()
        assert "node,x,y,power_w" in csv_path.read_text().splitlines()[0]

    def test_sweep_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        code = main(["sweep", "--preset", "VC16",
                     "--rates", "0.02,0.04", "--sample", "50",
                     "--warmup", "80", "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3  # header + two rates


class TestValidate:
    def test_validate_prints_both_routers(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "Alpha 21364" in out
        assert "InfiniBand" in out

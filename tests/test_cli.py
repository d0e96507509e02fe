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

    def test_run_ending_in_warmup_reports_status(self, capsys,
                                                  monkeypatch):
        """A run whose cycle limit falls inside warm-up prints its status
        and an empty utilisation block instead of crashing.  No flag
        sets ``max_cycles``, so the limit is added to the decoded job."""
        from repro import cli

        real_job_from_args = cli.job_from_args

        def warmup_only(kind, args):
            job = real_job_from_args(kind, args)
            job["spec"]["protocol"]["max_cycles"] = 50
            return job

        monkeypatch.setattr(cli, "job_from_args", warmup_only)
        code = main(["run", "--preset", "VC16", "--rate", "0.05",
                     "--warmup", "100", "--sample", "50",
                     "--on-stall", "finish", "--telemetry-window", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "status:        max_cycles" in out
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
    """Latency/power-versus-rate sweeps run through ``experiment``,
    which prints one sweep table per (preset, traffic, seed) curve."""

    def test_sweep_prints_table(self, capsys):
        code = main(["experiment", "--presets", "VC16",
                     "--rates", "0.02,0.05", "--sample", "60",
                     "--warmup", "100", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.020" in out and "0.050" in out
        assert "saturation" in out

    def test_sweep_any_traffic_kind(self, capsys):
        code = main(["experiment", "--presets", "VC16",
                     "--traffic", "hotspot", "--source", "5",
                     "--rates", "0.02,0.04", "--sample", "50",
                     "--warmup", "80", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hotspot(hotspot=5)" in out
        assert "0.040" in out

    def test_sweep_parallel(self, capsys):
        code = main(["experiment", "--presets", "VC16",
                     "--rates", "0.02,0.05", "--sample", "60",
                     "--warmup", "100", "--processes", "2", "--no-cache"])
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

    def test_sweep_command_is_gone(self, capsys):
        """``sweep`` was a one-preset, cache-less ``experiment``."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--rates", "0.02,0.05"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--rate", "0"],
        ["run", "--rate", "nan"],
        ["experiment", "--rates", "0.02,0", "--no-cache"],
        ["estimate", "--rate", "-1"],
    ])
    def test_out_of_range_rate_rejected(self, argv, capsys):
        assert main(argv) == 1
        assert "rate must be in" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sample", "--warmup", "--seed"])
    def test_estimate_takes_no_protocol_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", flag, "5"])
        assert excinfo.value.code == 2


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
        code = main(["experiment", "--presets", "VC16",
                     "--rates", "0.02,0.04", "--sample", "50",
                     "--warmup", "80", "--no-cache",
                     "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3  # header + two rates


class TestValidate:
    def test_validate_prints_both_routers(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "Alpha 21364" in out
        assert "InfiniBand" in out


# --- one job decoder ----------------------------------------------------------

FAST = ["--sample", "60", "--warmup", "100"]


def _points(names=("VC16",), traffics=("uniform",), rates=(0.03,),
            seeds=(1,), overrides=None, **protocol):
    """The run points a library caller builds by hand (FAST protocol)."""
    from repro.core.config import RunProtocol
    from repro.core.presets import preset
    from repro.exp import RunPoint, TrafficSpec

    out = []
    for name in names:
        config = preset(name)
        if overrides:
            config = config.with_(**overrides)
        for traffic in traffics:
            spec = traffic if isinstance(traffic, TrafficSpec) \
                else TrafficSpec.of(traffic)
            for seed in seeds:
                proto = RunProtocol(warmup_cycles=100, sample_packets=60,
                                    seed=seed, **protocol)
                out.extend(RunPoint(config=config, traffic=spec, rate=rate,
                                    protocol=proto, label=name)
                           for rate in rates)
    return out


def _estimate(name="VC16", traffic="uniform", params=None, rate=0.03,
              **overrides):
    from repro.core.presets import preset
    config = preset(name)
    if overrides:
        config = config.with_(**overrides)
    return {"config": config, "traffic": traffic,
            "params": params or {}, "rate": rate}


def _traffic(name, **params):
    from repro.exp import TrafficSpec
    return TrafficSpec.of(name, **params)


RUN = ["--preset", "VC16", "--rate", "0.03", *FAST]
EXPERIMENT = ["--presets", "VC16", "--rates", "0.02,0.05", *FAST]
EXP_RATES = (0.02, 0.05)
ESTIMATE = ["--preset", "VC16", "--rate", "0.03"]

#: (kind, flags, expected run points or estimate arguments)
JOB_TABLE = {
    "run-plain": ("run", RUN, lambda: _points()),
    "run-leakage": ("run", RUN + ["--leakage"],
                    lambda: _points(overrides={"include_leakage": True})),
    "run-activity": ("run", RUN + ["--activity", "data"],
                     lambda: _points(overrides={"activity_mode": "data"})),
    "run-on-stall": ("run", RUN + ["--on-stall", "finish"],
                     lambda: _points(on_stall="finish")),
    "run-hotspot": ("run", RUN + ["--traffic", "hotspot", "--source", "5"],
                    lambda: _points(traffics=[_traffic("hotspot",
                                                       hotspot=5)])),
    "run-broadcast": ("run",
                      RUN + ["--traffic", "broadcast", "--source", "3"],
                      lambda: _points(traffics=[_traffic("broadcast",
                                                         source=3)])),
    "run-telemetry": ("run", RUN + ["--telemetry-window", "50"],
                      lambda: _points(telemetry_window=50)),
    "run-seed": ("run", RUN + ["--seed", "7"],
                 lambda: _points(seeds=(7,))),
    "experiment-plain": ("experiment", EXPERIMENT,
                         lambda: _points(rates=EXP_RATES)),
    "experiment-leakage": ("experiment", EXPERIMENT + ["--leakage"],
                           lambda: _points(rates=EXP_RATES, overrides={
                               "include_leakage": True})),
    "experiment-activity": ("experiment",
                            EXPERIMENT + ["--activity", "data"],
                            lambda: _points(rates=EXP_RATES, overrides={
                                "activity_mode": "data"})),
    "experiment-on-stall": ("experiment",
                            EXPERIMENT + ["--on-stall", "finish"],
                            lambda: _points(rates=EXP_RATES,
                                            on_stall="finish")),
    "experiment-hotspot": ("experiment", EXPERIMENT + [
        "--traffic", "hotspot", "--source", "5"],
        lambda: _points(rates=EXP_RATES,
                        traffics=[_traffic("hotspot", hotspot=5)])),
    "experiment-broadcast": ("experiment", EXPERIMENT + [
        "--traffic", "broadcast", "--source", "3"],
        lambda: _points(rates=EXP_RATES,
                        traffics=[_traffic("broadcast", source=3)])),
    "experiment-grid": ("experiment", [
        "--presets", "WH64,VC16", "--traffic", "uniform,transpose",
        "--seeds", "1,2", "--rates", "0.03", *FAST],
        lambda: _points(names=("WH64", "VC16"),
                        traffics=("uniform", "transpose"), seeds=(1, 2))),
    "experiment-options": ("experiment", EXPERIMENT + [
        "--processes", "2", "--retries", "1", "--point-timeout", "30"],
        lambda: _points(rates=EXP_RATES)),
    "estimate-plain": ("estimate", ESTIMATE, lambda: _estimate()),
    "estimate-leakage": ("estimate", ESTIMATE + ["--leakage"],
                         lambda: _estimate(include_leakage=True)),
    "estimate-activity": ("estimate", ESTIMATE + ["--activity", "data"],
                          lambda: _estimate(activity_mode="data")),
    "estimate-hotspot": ("estimate", ESTIMATE + [
        "--traffic", "hotspot", "--source", "5"],
        lambda: _estimate(traffic="hotspot", params={"hotspot": 5})),
    "estimate-broadcast": ("estimate", ESTIMATE + [
        "--traffic", "broadcast", "--source", "3"],
        lambda: _estimate(traffic="broadcast", params={"source": 3})),
    "estimate-mesh": ("estimate", ESTIMATE + [
        "--topology", "mesh", "--width", "8", "--height", "8"],
        lambda: _estimate(topology="mesh", width=8, height=8)),
}


class _Decoded(Exception):
    """Stops a local command right after it decodes its job."""


@pytest.fixture
def posted(monkeypatch):
    """``repro submit`` against a stub client: returns the posted dicts."""
    from repro.serve import ServeClient

    payloads = []

    def submit(self, payload):
        payloads.append(payload)
        return {"id": "job1", "status": "queued"}

    monkeypatch.setattr(ServeClient, "submit", submit)
    return payloads


class TestOneJobDecoder:
    """``run``/``experiment``/``estimate`` decode exactly the dict
    ``submit --kind K`` posts with the same flags, and that dict expands
    to the points a library caller would build by hand."""

    @pytest.mark.parametrize("case", sorted(JOB_TABLE))
    def test_local_and_submitted_jobs_agree(self, case, monkeypatch,
                                            posted, capsys):
        import json

        import repro.cli as cli
        from repro.exp.spec import decode_job

        kind, flags, expected = JOB_TABLE[case]
        assert main(["submit", "--kind", kind, "--no-wait", *flags]) == 0
        assert len(posted) == 1
        local = []

        def capture(job):
            local.append(job)
            raise _Decoded

        monkeypatch.setattr(cli, "decode_job", capture)
        with pytest.raises(_Decoded):
            main([kind, *flags])
        assert local == posted
        # The server decodes the dict after a trip through JSON.
        points, estimate = decode_job(json.loads(json.dumps(posted[0])))
        if kind == "estimate":
            assert points == [] and estimate == expected()
        else:
            assert [p.cache_key() for p in points] \
                == [p.cache_key() for p in expected()]

    def test_options_ride_in_the_job(self, posted, capsys):
        assert main(["submit", "--kind", "experiment", "--no-wait",
                     *EXPERIMENT, "--processes", "2", "--retries", "1",
                     "--point-timeout", "30"]) == 0
        assert posted[0]["options"] == {"processes": 2, "retries": 1,
                                        "point_timeout": 30.0}

    def test_priority_is_submit_only(self, posted, capsys):
        assert main(["submit", "--no-wait", *RUN, "--priority", "3"]) == 0
        assert posted[0]["priority"] == 3
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *RUN, "--priority", "3"])
        assert excinfo.value.code == 2

    def test_rates_auto_is_rejected_by_submit(self, posted, capsys):
        assert main(["submit", "--kind", "experiment", "--no-wait",
                     "--rates", "auto"]) == 1
        assert "--rates auto" in capsys.readouterr().err
        assert posted == []

    def test_zero_rate_never_reaches_the_server(self, posted, capsys):
        assert main(["submit", "--kind", "run", "--rate", "0"]) == 1
        assert "rate must be in (0, 1]" in capsys.readouterr().err
        assert posted == []

    @pytest.mark.parametrize("kind,flag", [
        ("estimate", "--sample"), ("run", "--faults"),
        ("run", "--rates"), ("experiment", "--telemetry-window"),
    ])
    def test_submit_takes_only_its_kinds_flags(self, kind, flag, posted,
                                               capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "--kind", kind, flag, "1"])
        assert excinfo.value.code == 2
        assert posted == []


def test_cli_never_imports_the_service():
    """The CLI decodes jobs with :mod:`repro.exp.spec`; only ``serve``,
    ``gateway`` and ``submit`` load the service package."""
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..",
                                     "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    script = ("import sys\n"
              "from repro.cli import main\n"
              "assert main(['run', '--rate', '0.03', '--sample', '20',\n"
              "             '--warmup', '50']) == 0\n"
              "assert 'repro.serve' not in sys.modules, 'serve imported'\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

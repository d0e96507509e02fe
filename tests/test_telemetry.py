"""Tests for the windowed telemetry subsystem.

The load-bearing property: summed window deltas must reproduce the
run-end accounting — per component, per node and per event — within
1e-9 relative.  Plus JSONL/CSV round-trips, the report
rendering, and the CLI integration.
"""

import csv
import json

import pytest

from repro.core import events as ev
from repro.core.config import RunProtocol
from repro.core.presets import PRESETS
from repro.sim.engine import Simulation
from repro.sim.topology import topology_for
from repro.sim.traffic import UniformRandomTraffic
from repro.telemetry import (
    DEFAULT_WINDOW,
    TelemetryRecorder,
    telemetry_from_jsonl,
    telemetry_report,
    telemetry_to_csv,
    telemetry_to_jsonl,
)
from repro.telemetry.io import JSONL_SCHEMA, telemetry_rows
from tests.conftest import small_config

REL_TOL = 1e-9

#: A schema-2 file as the simulator wrote it while the header still
#: named the kernel: header, one window, footer.
SCHEMA2_JSONL = "\n".join([
    (
        '{"type": "header", "schema": 2, "window": 16, "num_nodes": 4,'
        ' "width": 2, "height": 2, "frequency_hz": 1000000000.0,'
        ' "warmup_cycles": 20, "kernel": "sparse", "router_kind": "vc",'
        ' "activity_mode": "average"}'
    ),
    (
        '{"type": "window", "index": 0, "cycle_start": 20, "cycle_end": 36,'
        ' "energy_j": {"input_buffer": [1.359607166208e-11,'
        ' 1.935474824448e-11, 5.27856770304e-12, 8.9572108032e-12],'
        ' "crossbar": [1.1531175845810992e-11, 1.812041918627442e-11,'
        ' 4.941932505347568e-12, 6.5892433404634244e-12], "arbiter":'
        ' [6.703467231600001e-13, 9.877590547200003e-13,'
        ' 2.4693976368000007e-13, 4.7838948516e-13], "link": [6.2208e-12,'
        ' 2.28096e-11, 6.2208e-12, 0.0]}, "events": {"buffer_write": [9,'
        ' 11, 3, 7], "buffer_read": [7, 11, 3, 4], "arbitration": [19, 28,'
        ' 7, 16], "xbar_traversal": [7, 11, 3, 4], "link_traversal": [3,'
        ' 11, 3, 0]}, "injected": [3, 11, 0, 0], "ejected": [4, 0, 0, 4],'
        ' "occupancy": [2, 1, 0, 3], "dropped": [0, 0, 0, 0], "misrouted":'
        ' [0, 0, 0, 0]}'
    ),
    '{"type": "footer", "spans_s": {"inject": 0.5}}',
]) + "\n"


def run_with_telemetry(config, window=32, rate=0.05, warmup=60, sample=40,
                       seed=1, **proto_kwargs):
    topo = topology_for(config)
    traffic = UniformRandomTraffic(topo, rate, seed=seed)
    protocol = RunProtocol(warmup_cycles=warmup, sample_packets=sample,
                           seed=seed, telemetry_window=window,
                           audit_every=50,
                           **proto_kwargs)
    return Simulation(config, traffic, protocol).run()


def assert_reproduces_accounting(result):
    """Summed windows == accountant totals (the acceptance criterion)."""
    record = result.telemetry
    accountant = result.accountant
    assert record.measured_cycles == result.measured_cycles
    for component, total in accountant.breakdown().items():
        recorded = record.component_energy_totals()[component]
        tol = REL_TOL * total if total else REL_TOL
        assert abs(recorded - total) <= tol, (
            f"{component}: windows sum to {recorded}, accountant {total}"
        )
    for node, total in enumerate(accountant.spatial_map()):
        recorded = record.node_energy_totals()[node]
        assert abs(recorded - total) <= REL_TOL * max(total, 1e-30), (
            f"node {node}: windows sum to {recorded}, accountant {total}"
        )
    for event in ev.EVENT_TYPES:
        assert record.event_totals()[event] == accountant.event_count(event)
    assert abs(record.total_energy_j() - accountant.total_energy()) \
        <= REL_TOL * accountant.total_energy()
    assert abs(record.total_power_w() - result.total_power_w) \
        <= REL_TOL * result.total_power_w


class TestAccountingEquivalence:
    def test_summed_windows_match_run_totals(self):
        result = run_with_telemetry(PRESETS["VC16"]())
        assert_reproduces_accounting(result)

    @pytest.mark.parametrize("kind", ["wormhole", "vc", "speculative_vc",
                                      "central"])
    def test_all_router_kinds(self, kind):
        result = run_with_telemetry(small_config(kind))
        assert_reproduces_accounting(result)

    def test_data_activity_mode(self):
        result = run_with_telemetry(
            small_config("vc").with_(activity_mode="data"))
        assert_reproduces_accounting(result)

    def test_with_leakage_and_clock(self):
        """Constant (traffic-insensitive) energy is deposited at
        finalization; it must land in the window series, not vanish."""
        cfg = small_config("vc").with_(include_leakage=True)
        result = run_with_telemetry(cfg)
        assert_reproduces_accounting(result)

    def test_window_larger_than_run_yields_one_window(self):
        result = run_with_telemetry(small_config("wormhole"),
                                    window=10**6)
        record = result.telemetry
        assert record.num_windows == 1
        assert_reproduces_accounting(result)

    def test_traffic_columns_without_power(self):
        result = run_with_telemetry(small_config("wormhole"),
                                    collect_power=False)
        record = result.telemetry
        assert record.component_energy_totals() == \
            dict.fromkeys(ev.COMPONENTS, 0.0)
        assert sum(record.injected_totals()) > 0
        # In-flight flits straddle the warm-up boundary, so measured
        # injections need not equal measured ejections exactly.
        assert sum(record.ejected_totals()) == \
            result.measured_flits_ejected


class TestWindowSeries:
    def test_window_boundaries_tile_the_measured_range(self):
        result = run_with_telemetry(PRESETS["VC16"](), window=16)
        record = result.telemetry
        assert record.windows[0].cycle_start == record.warmup_cycles
        assert record.windows[-1].cycle_end == result.total_cycles
        for prev, cur in zip(record.windows, record.windows[1:]):
            assert cur.cycle_start == prev.cycle_end
            assert cur.index == prev.index + 1
        # All but the residual window span exactly `window` cycles.
        for window in record.windows[:-1]:
            assert window.cycles == record.window

    def test_injection_ejection_totals_match_network(self):
        result = run_with_telemetry(PRESETS["VC16"]())
        record = result.telemetry
        assert sum(record.ejected_totals()) == result.measured_flits_ejected

    def test_occupancy_peaks_nonnegative_and_bounded(self):
        result = run_with_telemetry(PRESETS["VC16"](), rate=0.1)
        peaks = result.telemetry.occupancy_peaks()
        assert len(peaks) == 16
        assert all(p >= 0 for p in peaks)
        assert max(peaks) > 0

    def test_spans_recorded(self):
        record = run_with_telemetry(small_config("wormhole")).telemetry
        assert set(record.spans_s) == {"inject", "router_step", "observe",
                                       "finalize"}
        assert all(s >= 0 for s in record.spans_s.values())
        assert record.spans_s["router_step"] > 0

    def test_window_power_series_positive_under_load(self):
        record = run_with_telemetry(PRESETS["VC16"](), rate=0.1).telemetry
        series = record.window_power_w()
        assert len(series) == record.num_windows
        assert all(p > 0 for p in series)

    def test_disabled_by_default(self):
        topo = topology_for(small_config("wormhole"))
        traffic = UniformRandomTraffic(topo, 0.05, seed=1)
        protocol = RunProtocol(warmup_cycles=50, sample_packets=20)
        result = Simulation(small_config("wormhole"), traffic,
                            protocol).run()
        assert result.telemetry is None

    def test_recorder_rejects_bad_window(self):
        from repro.sim.network import Network
        network = Network(small_config("wormhole"))
        with pytest.raises(ValueError, match="window"):
            TelemetryRecorder(network, network.binding, 0)

    def test_protocol_rejects_negative_window(self):
        with pytest.raises(ValueError, match="telemetry_window"):
            RunProtocol(telemetry_window=-1)


class TestRoundTrip:
    def test_jsonl_round_trip_is_exact(self, tmp_path):
        record = run_with_telemetry(PRESETS["VC16"]()).telemetry
        path = tmp_path / "telemetry.jsonl"
        telemetry_to_jsonl(record, str(path))
        back = telemetry_from_jsonl(str(path))
        assert back.window == record.window
        assert back.num_windows == record.num_windows
        assert back.warmup_cycles == record.warmup_cycles
        assert back.router_kind == record.router_kind
        assert back.spans_s == record.spans_s
        # Python JSON floats round-trip exactly: bit-identical energy.
        assert back.component_energy_totals() == \
            record.component_energy_totals()
        assert back.node_energy_totals() == record.node_energy_totals()
        assert back.event_totals() == record.event_totals()
        assert back.channels == record.channels
        assert back.channel_utilization() == record.channel_utilization()
        for orig, read in zip(record.windows, back.windows):
            assert read.energy_j == orig.energy_j
            assert read.events == orig.events
            assert read.occupancy == orig.occupancy
            assert read.sent == orig.sent
            assert read.occupancy_sum == orig.occupancy_sum
            assert read.occupancy_peak == orig.occupancy_peak

    def test_schema2_file_reads_back(self, tmp_path):
        """A file written before the header dropped ``kernel`` still
        reads back (the key, and the fault-count window columns, are
        ignored) and rewrites as schema 5; it has no utilisation
        columns, so those queries raise."""
        path = tmp_path / "old.jsonl"
        path.write_text(SCHEMA2_JSONL)
        record = telemetry_from_jsonl(str(path))
        assert (record.window, record.num_nodes, record.router_kind) == \
            (16, 4, "vc")
        assert not hasattr(record, "kernel")
        assert record.windows[0].injected == [3, 11, 0, 0]
        assert not hasattr(record.windows[0], "dropped")
        assert record.spans_s == {"inject": 0.5}
        assert record.channels is None
        with pytest.raises(ValueError, match="schema 4"):
            record.channel_utilization()
        with pytest.raises(ValueError, match="schema 4"):
            record.occupancy_means()
        assert "before JSONL schema 4" in telemetry_report(record)
        again = tmp_path / "new.jsonl"
        telemetry_to_jsonl(record, str(again))
        header = json.loads(again.read_text().splitlines()[0])
        assert header["schema"] == JSONL_SCHEMA == 5
        assert "kernel" not in header
        assert "dropped" not in again.read_text()
        back = telemetry_from_jsonl(str(again))
        assert back.windows[0].energy_j == record.windows[0].energy_j
        assert back.component_energy_totals() == \
            record.component_energy_totals()
        assert back.channels is None

    def test_jsonl_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "header", "schema": 999}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            telemetry_from_jsonl(str(path))

    def test_jsonl_rejects_missing_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            telemetry_from_jsonl(str(path))

    def test_csv_rows_sum_to_run_energy(self, tmp_path):
        result = run_with_telemetry(PRESETS["VC16"]())
        path = tmp_path / "telemetry.csv"
        telemetry_to_csv(result.telemetry, str(path))
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert rows
        total = sum(float(r["energy_j"]) for r in rows)
        assert abs(total - result.accountant.total_energy()) \
            <= 1e-9 * result.accountant.total_energy()
        events = sum(int(r["events"]) for r in rows)
        assert events == sum(result.telemetry.event_totals().values())

    def test_rows_carry_grid_coordinates(self):
        record = run_with_telemetry(PRESETS["VC16"]()).telemetry
        for row in telemetry_rows(record):
            assert row["node"] == row["y"] * record.width + row["x"]


class TestReportRendering:
    def test_report_reproduces_breakdown(self):
        """The acceptance walk: a report rendered purely from windowed
        telemetry shows the same component power as the live result."""
        from repro.core.report import format_power

        result = run_with_telemetry(PRESETS["VC16"](), rate=0.08)
        text = telemetry_report(result.telemetry)
        live = result.power_breakdown_w()
        for component, power in live.items():
            if power == 0.0:
                continue
            assert component in text
            assert format_power(power) in text
        assert "power breakdown" in text
        assert "per-node power" in text
        assert "time series" in text
        assert "engine phase spans" in text

    def test_report_without_series(self):
        record = run_with_telemetry(small_config("wormhole")).telemetry
        assert "time series" not in telemetry_report(record, series=False)

    def test_spatial_grid_shape(self):
        from repro.telemetry.report import spatial_table

        record = run_with_telemetry(PRESETS["VC16"]()).telemetry
        lines = spatial_table(record).splitlines()
        assert len(lines) == record.height + 1  # rows + x-axis legend


class TestCli:
    def test_run_records_and_report_renders(self, tmp_path, capsys):
        from repro.cli import main

        jsonl = tmp_path / "run.jsonl"
        assert main(["run", "--preset", "VC16", "--rate", "0.05",
                     "--sample", "60", "--warmup", "80",
                     "--telemetry-window", "25",
                     "--telemetry-jsonl", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert jsonl.exists()

        assert main(["report", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "power breakdown (summed windows):" in out
        assert "occupancy/utilization:" in out
        assert "hottest channels:" in out
        assert "engine phase spans:" in out

    def test_jsonl_flag_implies_default_window(self, tmp_path, capsys):
        from repro.cli import main

        jsonl = tmp_path / "implied.jsonl"
        assert main(["run", "--preset", "VC16", "--rate", "0.05",
                     "--sample", "40", "--warmup", "50",
                     "--telemetry-jsonl", str(jsonl)]) == 0
        record = telemetry_from_jsonl(str(jsonl))
        assert record.window == DEFAULT_WINDOW

    def test_report_csv_conversion(self, tmp_path, capsys):
        from repro.cli import main

        jsonl = tmp_path / "run.jsonl"
        out_csv = tmp_path / "run.csv"
        main(["run", "--preset", "VC16", "--rate", "0.05",
              "--sample", "40", "--warmup", "50",
              "--telemetry-jsonl", str(jsonl)])
        capsys.readouterr()
        assert main(["report", str(jsonl), "--no-series",
                     "--csv", str(out_csv)]) == 0
        assert out_csv.exists()
        with open(out_csv) as f:
            assert "energy_j" in f.readline()

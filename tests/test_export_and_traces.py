"""Unit tests for result export and trace file I/O."""

import csv
import json

import pytest

from repro.core.export import (
    result_to_dict,
    result_to_json,
    spatial_to_csv,
    sweep_rows,
    sweep_to_csv,
)
from repro.core.config import RunProtocol
from repro.core.orion import Orion
from repro.core.report import SweepResult
from repro.sim.tracefile import (
    load_trace,
    save_trace,
    synthesize_trace,
    trace_traffic_from_file,
)
from repro.sim.topology import Torus
from repro.sim.traffic import TraceTraffic, UniformRandomTraffic

from tests.conftest import small_config


def quick_result():
    return Orion(small_config("wormhole")).run_uniform(
        0.03, RunProtocol(warmup_cycles=100, sample_packets=40))


class TestResultExport:
    def test_dict_has_key_metrics(self):
        d = result_to_dict(quick_result())
        for key in ("avg_latency_cycles", "total_power_w",
                    "power_breakdown_w", "node_power_w",
                    "throughput_flits_per_cycle"):
            assert key in d
        assert len(d["node_power_w"]) == 16

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "result.json"
        result_to_json(quick_result(), str(path))
        loaded = json.loads(path.read_text())
        assert loaded["router_kind"] == "wormhole"
        assert loaded["sample_packets"] == 40

    def test_dict_without_power(self):
        result = Orion(small_config("wormhole")).run_uniform(
            0.03, RunProtocol(warmup_cycles=100, sample_packets=40,
                              collect_power=False))
        d = result_to_dict(result)
        assert "total_power_w" not in d


class TestSweepExport:
    def sweep(self):
        return Orion(small_config("wormhole")).sweep_uniform(
            [0.02, 0.05], RunProtocol(warmup_cycles=100, sample_packets=40),
            label="test")

    def test_rows_sorted_by_rate(self):
        rows = sweep_rows(self.sweep())
        assert [r["rate"] for r in rows] == [0.02, 0.05]
        assert all(r["label"] == "test" for r in rows)
        assert "power_input_buffer_w" in rows[0]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        sweep_to_csv(self.sweep(), str(path))
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert float(rows[0]["rate"]) == 0.02

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            sweep_to_csv(SweepResult("empty"), str(tmp_path / "x.csv"))

    def test_spatial_csv(self, tmp_path):
        path = tmp_path / "spatial.csv"
        spatial_to_csv(quick_result(), str(path))
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 16
        assert rows[5]["x"] == "1" and rows[5]["y"] == "1"


class TestTraceFiles:
    def test_save_load_round_trip(self, tmp_path):
        records = [(0, 1, 2), (3, 4, 5), (3, 0, 9)]
        path = tmp_path / "trace.csv"
        save_trace(records, str(path))
        assert sorted(load_trace(str(path))) == sorted(records)

    def test_load_validates_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("when,from,to\n0,1,2\n")
        with pytest.raises(ValueError):
            load_trace(str(path))

    def test_load_validates_fields(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cycle,src,dst\n0,1\n")
        with pytest.raises(ValueError):
            load_trace(str(path))
        path.write_text("cycle,src,dst\n0,one,2\n")
        with pytest.raises(ValueError):
            load_trace(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert load_trace(str(path)) == []

    def test_synthesize_freezes_a_pattern(self):
        pattern = UniformRandomTraffic(Torus(4), 0.2, seed=4)
        records = synthesize_trace(pattern, 50)
        assert records
        assert all(0 <= c < 50 for c, _, _ in records)
        # Replaying the synthesized trace gives identical packets.
        pattern.reset(seed=4)
        direct = []
        for cycle in range(50):
            for src, dst in pattern.packets_at(cycle):
                direct.append((cycle, src, dst))
        assert records == direct

    def test_trace_traffic_from_file_end_to_end(self, tmp_path):
        from repro.sim.engine import Simulation
        path = tmp_path / "trace.csv"
        save_trace([(0, 0, 5), (1, 3, 9), (2, 15, 0)], str(path))
        cfg = small_config("vc")
        traffic = trace_traffic_from_file(Torus(4), str(path))
        result = Simulation(cfg, traffic, RunProtocol(
            warmup_cycles=0, sample_packets=3)).run()
        assert result.packets_delivered == 3

    def test_synthesize_validates_cycles(self):
        with pytest.raises(ValueError):
            synthesize_trace(UniformRandomTraffic(Torus(4), 0.1), 0)

    def test_header_is_case_and_space_insensitive(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("Cycle, SRC , dst\n0,1,2\n")
        assert load_trace(str(path)) == [(0, 1, 2)]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("cycle,src,dst\n0,1,2\n\n3,4,5\n")
        assert load_trace(str(path)) == [(0, 1, 2), (3, 4, 5)]

    def test_header_only_file_gives_empty_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("cycle,src,dst\n")
        assert load_trace(str(path)) == []

    def test_file_round_trip_preserves_replay(self, tmp_path):
        """save -> load -> TraceTraffic replays the exact records."""
        pattern = UniformRandomTraffic(Torus(4), 0.1, seed=11)
        records = synthesize_trace(pattern, 60)
        path = tmp_path / "trace.csv"
        save_trace(records, str(path))
        traffic = trace_traffic_from_file(Torus(4), str(path))
        replayed = []
        for cycle in range(60):
            for src, dst in traffic.packets_at(cycle):
                replayed.append((cycle, src, dst))
        assert sorted(replayed) == sorted(records)

    def test_synthesized_replay_simulates_identically(self):
        """A live pattern and its synthesized trace produce the same
        simulation: same packets at the same cycles, hence identical
        latency — the guarantee behind repeatable cross-configuration
        trace studies."""
        cfg = small_config("vc")
        protocol = RunProtocol(warmup_cycles=0, sample_packets=40,
                               collect_power=False)
        live = UniformRandomTraffic(Torus(4), 0.05, seed=7)
        # 400 traced cycles vastly outlasts the ~60 cycles the sampled
        # window needs, so both runs see identical injections.
        trace = TraceTraffic(Torus(4), synthesize_trace(live, 400))
        live.reset(seed=7)
        res_live = Orion(cfg).run(live, protocol)
        res_trace = Orion(cfg).run(trace, protocol)
        assert res_trace.packets_delivered == res_live.packets_delivered
        assert res_trace.avg_latency == res_live.avg_latency
        assert res_trace.measured_cycles == res_live.measured_cycles

"""Channel utilisation and buffer occupancy from the telemetry record.

The recorder samples per-router occupancy every measured cycle and
diffs every channel's send counter at window boundaries, so a
:class:`~repro.telemetry.TelemetryRecord` answers the utilisation and
occupancy queries directly.
"""

import pytest

from repro import Orion, RunProtocol, preset
from repro.exp import RunPoint, TrafficSpec, run_points
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.topology import NORTH, Torus
from repro.sim.traffic import UniformRandomTraffic
from repro.telemetry import TelemetryRecorder, utilization_report

from tests.conftest import small_config


def record_cycles(network, cycles, window=16):
    """Step a bare network ``cycles`` times under a recorder."""
    recorder = TelemetryRecorder(network, network.binding, window)
    recorder.begin(network.cycle)
    for _ in range(cycles):
        network.step()
        recorder.on_cycle(network.cycle)
    recorder.finalize(network.cycle)
    return recorder.record


class TestSampling:
    def test_covers_all_channels(self):
        record = record_cycles(Network(small_config("wormhole")), 1)
        assert len(record.channels) == 64  # 16 nodes x 4 links
        assert len(record.channel_utilization()) == 64

    def test_idle_network_has_zero_utilization(self):
        record = record_cycles(Network(small_config("wormhole")), 10)
        assert record.max_channel_utilization() == 0.0
        assert record.occupancy_means()[0] == 0.0

    def test_single_flow_loads_its_channels_only(self):
        net = Network(small_config("wormhole"))
        topo = net.topo
        src = topo.node_at(1, 1)
        # Sustained stream north for many packets.
        for _ in range(10):
            net.create_packet(src, topo.node_at(1, 2), 0)
        utils = record_cycles(net, 80).channel_utilization()
        assert utils[(src, NORTH)] > 0.3
        # A channel on the far side of the network stays idle.
        far = topo.node_at(3, 3)
        assert utils[(far, NORTH)] == 0.0

    def test_occupancy_tracks_buffered_flits(self):
        net = Network(small_config("wormhole", buffer_depth=2))
        topo = net.topo
        for _ in range(6):
            net.create_packet(topo.node_at(0, 0), topo.node_at(0, 2), 0)
        record = record_cycles(net, 150)
        assert record.occupancy_peaks()[topo.node_at(0, 0)] >= 1
        assert record.occupancy_means()[topo.node_at(0, 0)] > 0

    def test_queries_before_measured_cycles_raise(self):
        record = record_cycles(Network(small_config("wormhole")), 0)
        assert record.measured_cycles == 0
        for query in (record.channel_utilization, record.occupancy_means,
                      record.occupancy_peaks):
            with pytest.raises(ValueError, match="no measured cycles"):
                query()
        assert utilization_report(record).endswith("no measured cycles")

    def test_hottest_channels_labelled(self):
        net = Network(small_config("wormhole"))
        net.create_packet(0, 5, 0)
        top = record_cycles(net, 40).hottest_channels(3)
        assert len(top) == 3
        label, util = top[0]
        assert "(" in label and util >= 0

    def test_hottest_channels_validates_count(self):
        record = record_cycles(Network(small_config("wormhole")), 5)
        with pytest.raises(ValueError):
            record.hottest_channels(0)


def run_recorded(cfg, rate, warmup=100, sample=50, window=32):
    traffic = UniformRandomTraffic(Torus(4), rate, seed=2)
    return Simulation(cfg, traffic, RunProtocol(
        warmup_cycles=warmup, sample_packets=sample,
        telemetry_window=window)).run()


class TestEngineIntegration:
    def test_simulation_records_utilization(self):
        result = run_recorded(small_config("vc"), 0.03)
        record = result.telemetry
        assert record.measured_cycles == result.measured_cycles
        assert sum(record.ejected_totals()) == result.measured_flits_ejected
        assert 0.0 < record.mean_channel_utilization() < 1.0
        assert "hottest channels" in utilization_report(record)

    def test_utilization_disabled_by_default(self):
        cfg = small_config("vc")
        traffic = UniformRandomTraffic(Torus(4), 0.03, seed=2)
        protocol = RunProtocol(warmup_cycles=100, sample_packets=50)
        assert not hasattr(protocol, "monitor")
        result = Simulation(cfg, traffic, protocol).run()
        assert result.telemetry is None
        assert not hasattr(result, "monitor")

    def test_utilization_rises_with_load(self):
        cfg = small_config("wormhole")

        def mean_util(rate):
            return run_recorded(cfg, rate, warmup=150, sample=80) \
                .telemetry.mean_channel_utilization()

        assert mean_util(0.08) > 2 * mean_util(0.02)


#: A run whose cycle limit falls inside warm-up.
WARMUP_ONLY = RunProtocol(warmup_cycles=100, sample_packets=50,
                          max_cycles=50, on_stall="finish",
                          telemetry_window=10)


class TestRunEndingInWarmup:
    """A telemetry run that stops before measurement starts keeps its
    status and returns an empty record."""

    def test_library_run_returns_status(self):
        result = Orion(preset("VC16")).run_uniform(0.05, WARMUP_ONLY)
        assert result.status == "max_cycles"
        record = result.telemetry
        assert record.num_windows == 0 and record.measured_cycles == 0
        assert set(record.spans_s) >= {"inject", "router_step"}

    def test_run_points_records_status(self):
        point = RunPoint(config=preset("VC16"),
                         traffic=TrafficSpec.of("uniform"), rate=0.05,
                         protocol=WARMUP_ONLY)
        outcome, = run_points([point])
        assert outcome.status == "max_cycles"
        assert outcome.telemetry.measured_cycles == 0

"""Unit tests for the network occupancy/utilization monitor."""

import pytest

from repro.core.config import RunProtocol
from repro.sim.engine import Simulation
from repro.sim.monitor import NetworkMonitor
from repro.sim.network import Network
from repro.sim.topology import NORTH, Torus
from repro.sim.traffic import UniformRandomTraffic

from tests.conftest import small_config


class TestSampling:
    def test_covers_all_channels(self):
        net = Network(small_config("wormhole"))
        monitor = NetworkMonitor(net)
        assert len(monitor._channels) == 64  # 16 nodes x 4 links

    def test_idle_network_has_zero_utilization(self):
        net = Network(small_config("wormhole"))
        monitor = NetworkMonitor(net)
        for _ in range(10):
            net.step()
            monitor.sample()
        assert monitor.max_channel_utilization() == 0.0
        assert monitor.average_occupancy(0) == 0.0

    def test_single_flow_loads_its_channels_only(self):
        net = Network(small_config("wormhole"))
        monitor = NetworkMonitor(net)
        topo = net.topo
        src = topo.node_at(1, 1)
        # Sustained stream north for many packets.
        for _ in range(10):
            net.create_packet(src, topo.node_at(1, 2), 0)
        for _ in range(80):
            net.step()
            monitor.sample()
        utils = monitor.channel_utilization()
        assert utils[(src, NORTH)] > 0.3
        # A channel on the far side of the network stays idle.
        far = topo.node_at(3, 3)
        assert utils[(far, NORTH)] == 0.0

    def test_occupancy_tracks_buffered_flits(self):
        net = Network(small_config("wormhole", buffer_depth=2))
        monitor = NetworkMonitor(net)
        topo = net.topo
        for _ in range(6):
            net.create_packet(topo.node_at(0, 0), topo.node_at(0, 2), 0)
        peak_seen = 0
        for _ in range(150):
            net.step()
            monitor.sample()
        assert monitor.peak_occupancy(topo.node_at(0, 0)) >= 1
        assert monitor.average_occupancy(topo.node_at(0, 0)) > 0

    def test_queries_before_sampling_raise(self):
        monitor = NetworkMonitor(Network(small_config("wormhole")))
        with pytest.raises(ValueError):
            monitor.channel_utilization()
        with pytest.raises(ValueError):
            monitor.average_occupancy(0)

    def test_hottest_channels_labelled(self):
        net = Network(small_config("wormhole"))
        monitor = NetworkMonitor(net)
        net.create_packet(0, 5, 0)
        for _ in range(40):
            net.step()
            monitor.sample()
        top = monitor.hottest_channels(3)
        assert len(top) == 3
        label, util = top[0]
        assert "(" in label and util >= 0

    def test_hottest_channels_validates_count(self):
        monitor = NetworkMonitor(Network(small_config("wormhole")))
        with pytest.raises(ValueError):
            monitor.hottest_channels(0)


class TestEngineIntegration:
    def test_simulation_attaches_monitor(self):
        cfg = small_config("vc")
        traffic = UniformRandomTraffic(Torus(4), 0.03, seed=2)
        result = Simulation(cfg, traffic, RunProtocol(
            warmup_cycles=100, sample_packets=50, monitor=True)).run()
        assert result.monitor is not None
        assert result.monitor.cycles == result.measured_cycles
        assert 0.0 < result.monitor.mean_channel_utilization() < 1.0
        assert "hottest channels" in result.monitor.report()

    def test_monitor_disabled_by_default(self):
        cfg = small_config("vc")
        traffic = UniformRandomTraffic(Torus(4), 0.03, seed=2)
        result = Simulation(cfg, traffic, RunProtocol(
            warmup_cycles=100, sample_packets=50)).run()
        assert result.monitor is None

    def test_utilization_rises_with_load(self):
        cfg = small_config("wormhole")

        def mean_util(rate):
            traffic = UniformRandomTraffic(Torus(4), rate, seed=2)
            result = Simulation(cfg, traffic, RunProtocol(
                warmup_cycles=150, sample_packets=80, monitor=True)).run()
            return result.monitor.mean_channel_utilization()

        assert mean_util(0.08) > 2 * mean_util(0.02)

"""Cross-cutting integration tests: feature combinations and plumbing
that individual modules' tests don't cover together."""

import pytest

from repro import Orion, RunProtocol, preset
from repro.core import events as ev
from repro.core.config import LinkConfig
from repro.sim.network import Network
from repro.sim.routing import route_nodes
from repro.sim.topology import Torus

from tests.conftest import small_config


class TestEverythingOn:
    def test_all_extensions_together(self):
        """Data-mode activity + leakage + clock + bus-invert + telemetry
        in one run: totals stay consistent and positive."""
        cfg = (preset("VC16")
               .with_(activity_mode="data",
                      include_leakage=True,
                      include_clock=True,
                      link=LinkConfig(kind="on_chip", length_mm=3.0,
                                      encoding="bus_invert")))
        from repro.sim.engine import Simulation
        from repro.sim.traffic import UniformRandomTraffic
        sim = Simulation(cfg, UniformRandomTraffic(Torus(4), 0.04,
                                                   seed=2),
                         RunProtocol(warmup_cycles=150, sample_packets=80,
                                     telemetry_window=64))
        result = sim.run()
        breakdown = result.power_breakdown_w()
        assert breakdown[ev.CLOCK] > 0
        assert breakdown[ev.LINK] > 0
        assert sum(breakdown.values()) == pytest.approx(
            result.total_power_w)
        record = result.telemetry
        assert record.measured_cycles == result.measured_cycles
        assert record.total_energy_j() == pytest.approx(
            result.total_energy_j, rel=1e-9, abs=0.0)
        assert record.mean_channel_utilization() > 0

    def test_speculative_router_with_dateline_on_8x8(self):
        cfg = small_config("vc", num_vcs=4,
                           vc_class_mode="dateline").with_(
            width=8, height=8, tie_break="even").with_router(
            kind="speculative_vc", num_vcs=4,
            vc_class_mode="dateline")
        net = Network(cfg)
        packets = [net.create_packet(i, (i + 27) % 64, 0)
                   for i in range(0, 64, 4)]
        for _ in range(2000):
            net.step()
            if all(p.eject_cycle is not None for p in packets):
                break
        net.audit()
        assert all(p.eject_cycle is not None for p in packets)


class TestTieBreakPlumbing:
    def test_network_routes_follow_configured_tie_break(self):
        """The NetworkConfig tie_break reaches route computation."""
        for tie in ("avoid_wrap", "even"):
            cfg = small_config("wormhole").with_(tie_break=tie)
            net = Network(cfg)
            topo = net.topo
            # A distance-2 tie along y from (2, 2): avoid_wrap must not
            # cross a wrap edge; even may.
            src = topo.node_at(2, 2)
            dst = topo.node_at(2, 0)
            packet = net.create_packet(src, dst, 0)
            nodes = route_nodes(topo, src, packet.route)
            wraps = any(
                topo.crosses_wrap_edge(nodes[i], port)
                for i, port in enumerate(packet.route[:-1])
            )
            if tie == "avoid_wrap":
                assert not wraps


class TestMeshEndToEnd:
    @pytest.mark.parametrize("kind", ["wormhole", "vc", "central"])
    def test_mesh_network_simulates(self, kind):
        cfg = small_config(kind).with_(topology="mesh")
        result = Orion(cfg).run_uniform(
            0.02, RunProtocol(warmup_cycles=100, sample_packets=40))
        assert result.sample_packets == 40
        # Mesh corner routers own fewer links.
        assert min(r.out_degree
                   for r in Network(cfg).routers) == 2

    def test_mesh_longer_average_latency_than_torus(self):
        protocol = RunProtocol(warmup_cycles=150, sample_packets=120, seed=4)
        torus = Orion(small_config("wormhole")).run_uniform(0.02, protocol)
        mesh = Orion(small_config("wormhole").with_(
            topology="mesh")).run_uniform(0.02, protocol)
        assert mesh.avg_latency > torus.avg_latency


class TestActivityModesAgree:
    def test_data_mode_tracks_average_mode_at_scale(self):
        """Random payloads average to the F/2 expectation: the two
        activity modes agree within a few percent over many flits."""
        base = small_config("wormhole")
        protocol = RunProtocol(warmup_cycles=200, sample_packets=250, seed=6)
        avg = Orion(base).run_uniform(0.05, protocol)
        data = Orion(base.with_(activity_mode="data")).run_uniform(
            0.05, protocol)
        assert data.total_power_w == pytest.approx(avg.total_power_w,
                                                   rel=0.10)

    def test_event_counts_identical_across_modes(self):
        base = small_config("vc")
        protocol = RunProtocol(warmup_cycles=200, sample_packets=150, seed=6)
        avg = Orion(base).run_uniform(0.05, protocol)
        data = Orion(base.with_(activity_mode="data")).run_uniform(
            0.05, protocol)
        for event in (ev.BUFFER_WRITE, ev.BUFFER_READ,
                      ev.XBAR_TRAVERSAL, ev.LINK_TRAVERSAL):
            assert avg.accountant.event_count(event) == \
                data.accountant.event_count(event)


class TestEnergyBookkeeping:
    @pytest.mark.parametrize("kind", ["wormhole", "vc", "central"])
    def test_event_counts_scale_with_hops(self, kind):
        """Each flit does one buffer write per router visited and one
        link traversal per inter-router hop, so after a full drain
        ``writes - links == flits ejected``."""
        from repro.core.events import EnergyAccountant
        from repro.core.power_binding import PowerBinding
        cfg = small_config(kind)
        acc = EnergyAccountant(cfg.num_nodes)
        binding = PowerBinding(cfg, acc)
        net = Network(cfg, binding)
        packets = [net.create_packet(i % 16, (i * 7 + 3) % 16, 0)
                   for i in range(24) if i % 16 != (i * 7 + 3) % 16]
        for _ in range(800):
            net.step()
            if all(p.eject_cycle is not None for p in packets):
                break
        assert all(p.eject_cycle is not None for p in packets)
        binding.finalize(net.cycle, net.links_per_node())
        writes = acc.event_count(ev.BUFFER_WRITE)
        links = acc.event_count(ev.LINK_TRAVERSAL)
        assert writes - links == net.flits_ejected
        # And reads match writes: every buffered flit leaves its buffer.
        assert acc.event_count(ev.BUFFER_READ) == writes

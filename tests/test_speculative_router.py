"""Behavioural tests for the speculative VC router (Peh-Dally)."""

import pytest

from repro import Orion, RunProtocol, preset
from repro.delay import RouterDelayModel
from repro.sim.network import Network
from repro.sim.stats import zero_load_latency_estimate

from tests.conftest import small_config


def spec_config(**kwargs):
    return small_config("vc", **kwargs).with_router(kind="speculative_vc")


def deliver(network, src, dst, max_cycles=300):
    packet = network.create_packet(src=src, dst=dst, cycle=network.cycle)
    for _ in range(max_cycles):
        network.step()
        if packet.eject_cycle is not None:
            return packet
    raise AssertionError("packet not delivered")


class TestPipeline:
    def test_zero_load_latency_matches_two_stage_model(self):
        """Successful speculation collapses VA+SA into one stage: heads
        move at wormhole speed while keeping virtual channels."""
        network = Network(spec_config())
        topo = network.topo
        packet = deliver(network, topo.node_at(0, 0), topo.node_at(0, 2))
        expected = zero_load_latency_estimate(
            avg_hops=2, pipeline_stages=2,
            packet_length_flits=network.config.packet_length_flits)
        assert packet.latency == expected

    def test_one_cycle_per_hop_faster_than_plain_vc(self):
        plain = Network(small_config("vc"))
        spec = Network(spec_config())
        src, dst = (0, 0), (0, 2)
        plain_lat = deliver(plain, plain.topo.node_at(*src),
                            plain.topo.node_at(*dst)).latency
        spec_lat = deliver(spec, spec.topo.node_at(*src),
                           spec.topo.node_at(*dst)).latency
        assert plain_lat - spec_lat == 3  # one cycle per router visited


class TestCorrectness:
    def test_delivers_under_load_with_conservation(self):
        network = Network(spec_config())
        packets = []
        for i in range(40):
            src, dst = i % 16, (i * 5 + 3) % 16
            if src != dst:
                packets.append(network.create_packet(src, dst, 0))
        for _ in range(1200):
            network.step()
            network.audit()
        assert all(p.eject_cycle is not None for p in packets)

    def test_speculation_never_displaces_confirmed_requests(self):
        """Throughput under contention matches the plain VC router —
        speculation only fills otherwise idle crossbar slots."""
        def drain_cycles(kind_cfg):
            network = Network(kind_cfg)
            for i in range(1, 16):
                network.create_packet(src=i, dst=0, cycle=0)
            for cycle in range(4000):
                network.step()
                if network.packets_delivered == 15:
                    return cycle
            raise AssertionError("packets stuck")

        spec = drain_cycles(spec_config())
        plain = drain_cycles(small_config("vc"))
        assert spec <= plain

    def test_credit_accounting_survives_speculation(self):
        network = Network(spec_config(buffer_depth=2))
        topo = network.topo
        packets = [network.create_packet(src=topo.node_at(2, 0),
                                         dst=topo.node_at(2, 2), cycle=0)
                   for _ in range(6)]
        for _ in range(600):
            network.step()
            network.audit()
        assert all(p.eject_cycle is not None for p in packets)


class TestEndToEnd:
    def test_speculative_preset_variant_runs(self):
        cfg = preset("VC16").with_router(kind="speculative_vc")
        protocol = RunProtocol(warmup_cycles=300, sample_packets=200)
        result = Orion(cfg).run_uniform(0.05, protocol)
        plain = Orion(preset("VC16")).run_uniform(0.05, protocol)
        # Lower latency at equal offered load ...
        assert result.avg_latency < plain.avg_latency
        # ... at essentially unchanged power (same modules switching).
        assert result.total_power_w == pytest.approx(plain.total_power_w,
                                                     rel=0.10)

    def test_delay_model_reports_two_stages(self):
        cfg = preset("VC16").with_router(kind="speculative_vc")
        model = RouterDelayModel(cfg)
        assert model.pipeline_depth == 2
        # The merged stage is at least as slow as plain SA.
        plain = RouterDelayModel(preset("VC16"))
        assert model.delays.switch_allocation >= \
            plain.delays.switch_allocation

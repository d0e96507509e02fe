"""Integration-level tests of network assembly and flit transport."""

import pytest

from repro.sim.network import Network
from repro.sim.topology import LOCAL

from tests.conftest import small_config

KINDS = ["wormhole", "vc", "central"]


def run_cycles(network, n):
    for _ in range(n):
        network.step()


class TestAssembly:
    @pytest.mark.parametrize("kind", KINDS)
    def test_router_count_and_wiring(self, kind):
        net = Network(small_config(kind))
        assert len(net.routers) == 16
        for router in net.routers:
            # 4 inter-router links in, 4 out, LOCAL unwired.
            assert sum(c is not None for c in router.in_channels) == 4
            assert sum(c is not None for c in router.out_channels) == 4
            assert router.in_channels[LOCAL] is None
            assert router.out_channels[LOCAL] is None

    @pytest.mark.parametrize("kind", KINDS)
    def test_links_per_node(self, kind):
        net = Network(small_config(kind))
        assert net.links_per_node() == [4] * 16

    def test_mesh_edge_nodes_have_fewer_links(self):
        cfg = small_config("wormhole").with_(topology="mesh")
        net = Network(cfg)
        corner = net.topo.node_at(0, 0)
        assert net.routers[corner].out_degree == 2


class TestDelivery:
    @pytest.mark.parametrize("kind", KINDS)
    def test_single_packet_delivered(self, kind):
        net = Network(small_config(kind))
        packet = net.create_packet(src=0, dst=5, cycle=0)
        run_cycles(net, 100)
        assert packet.eject_cycle is not None
        assert net.packets_delivered == 1
        assert net.flits_ejected == net.config.packet_length_flits

    @pytest.mark.parametrize("kind", KINDS)
    def test_all_pairs_delivered(self, kind):
        net = Network(small_config(kind))
        packets = []
        for dst in range(1, 16):
            packets.append(net.create_packet(src=0, dst=dst, cycle=0))
        run_cycles(net, 600)
        assert all(p.eject_cycle is not None for p in packets)

    @pytest.mark.parametrize("kind", KINDS)
    def test_flit_conservation_throughout(self, kind):
        net = Network(small_config(kind))
        for i in range(20):
            net.create_packet(src=i % 16, dst=(i * 7 + 1) % 16 if
                              (i * 7 + 1) % 16 != i % 16 else (i + 1) % 16,
                              cycle=0)
        for _ in range(200):
            net.step()
            net.audit()

    @pytest.mark.parametrize("kind", KINDS)
    def test_in_order_delivery_per_flow(self, kind):
        """Packets between the same (src, dst) pair arrive in creation
        order — wormhole networks must not reorder a flow."""
        net = Network(small_config(kind))
        order = []
        net.on_packet_delivered = lambda p: order.append(p.packet_id)
        for _ in range(10):
            net.create_packet(src=2, dst=9, cycle=net.cycle)
        run_cycles(net, 400)
        assert order == sorted(order)
        assert len(order) == 10

    @pytest.mark.parametrize("kind", KINDS)
    def test_ejection_at_wrong_node_caught(self, kind):
        """The sink validates destinations (guards routing bugs)."""
        net = Network(small_config(kind))
        packet = net.create_packet(src=0, dst=5, cycle=0)
        # Corrupt this packet's own route (routes are shared tuples):
        # eject one hop early.
        packet.route = packet.route[:-2] + (LOCAL,)
        with pytest.raises(RuntimeError):
            run_cycles(net, 100)


class TestInjection:
    @pytest.mark.parametrize("kind", KINDS)
    def test_injection_is_one_flit_per_cycle(self, kind):
        net = Network(small_config(kind))
        for _ in range(4):
            net.create_packet(src=0, dst=5, cycle=0)
        before = net.flits_injected
        net.step()
        assert net.flits_injected - before <= 1

    def test_source_queue_holds_overflow(self):
        cfg = small_config("wormhole", buffer_depth=2)
        net = Network(cfg)
        for _ in range(10):
            net.create_packet(src=0, dst=5, cycle=0)
        assert net.flits_awaiting_injection == 10 * 3
        run_cycles(net, 3)
        # Injection drains the queue gradually, never overflowing.
        assert net.flits_awaiting_injection >= 10 * 3 - 3


class TestPayloads:
    def test_payloads_generated_in_data_mode(self):
        cfg = small_config("wormhole").with_(activity_mode="data")
        net = Network(cfg)
        net.create_packet(src=0, dst=5, cycle=0)
        flits = list(net.source_queues[0])
        assert all(f.payload is not None for f in flits)
        assert all(0 <= f.payload < 2 ** cfg.router.flit_bits
                   for f in flits)

    def test_no_payloads_in_average_mode(self):
        net = Network(small_config("wormhole"))
        net.create_packet(src=0, dst=5, cycle=0)
        assert all(f.payload is None for f in net.source_queues[0])

"""Behavioural tests for the virtual-channel router."""

import pytest

from repro.sim.network import Network
from repro.sim.stats import zero_load_latency_estimate
from repro.sim.topology import LOCAL, NORTH

from tests.conftest import small_config


def net(**kwargs):
    return Network(small_config("vc", **kwargs))


def deliver(network, src, dst, max_cycles=300):
    packet = network.create_packet(src=src, dst=dst, cycle=network.cycle)
    for _ in range(max_cycles):
        network.step()
        if packet.eject_cycle is not None:
            return packet
    raise AssertionError("packet not delivered")


def log_arrivals(router, log):
    """Record the VC of every flit ``router`` drains off its input
    channels, just before its arrival phase drains them."""
    original = router.arrival_phase

    def wrapped(cycle):
        for channel in router.in_channels:
            if channel is not None and channel._flit is not None:
                log.append(channel._flit.vc)
        original(cycle)
    router.arrival_phase = wrapped


class TestPipelineTiming:
    def test_zero_load_latency_matches_three_stage_model(self):
        """VA + SA + ST per hop plus 1-cycle links (Peh-Dally [15])."""
        network = net()
        topo = network.topo
        packet = deliver(network, topo.node_at(0, 0), topo.node_at(0, 2))
        expected = zero_load_latency_estimate(
            avg_hops=2, pipeline_stages=3,
            packet_length_flits=network.config.packet_length_flits)
        assert packet.latency == expected

    def test_vc_router_is_one_stage_deeper_than_wormhole(self):
        topo_src, topo_dst = (0, 0), (0, 2)
        vc_net = net()
        wh_net = Network(small_config("wormhole"))
        vc_lat = deliver(vc_net, vc_net.topo.node_at(*topo_src),
                         vc_net.topo.node_at(*topo_dst)).latency
        wh_lat = deliver(wh_net, wh_net.topo.node_at(*topo_src),
                         wh_net.topo.node_at(*topo_dst)).latency
        # One extra stage per hop (2 hops) + 1 at ejection router.
        assert vc_lat - wh_lat == 3


class TestVirtualChannels:
    def test_flits_carry_assigned_vc(self):
        network = net(num_vcs=2)
        topo = network.topo
        src, dst = topo.node_at(0, 0), topo.node_at(0, 1)
        seen_vcs = []
        log_arrivals(network.routers[dst], seen_vcs)
        deliver(network, src, dst)
        assert len(seen_vcs) == network.config.packet_length_flits
        assert len(set(seen_vcs)) == 1  # whole packet on one VC
        assert all(0 <= v < 2 for v in seen_vcs)

    def test_two_packets_interleave_across_vcs(self):
        """The VC advantage: two packets share one physical link at flit
        granularity via different VCs."""
        network = net(num_vcs=2)
        topo = network.topo
        # Two packets from the same source to the same remote column.
        a = network.create_packet(src=topo.node_at(0, 0),
                                  dst=topo.node_at(0, 2), cycle=0)
        b = network.create_packet(src=topo.node_at(0, 0),
                                  dst=topo.node_at(0, 1), cycle=0)
        for _ in range(200):
            network.step()
        assert a.eject_cycle is not None and b.eject_cycle is not None
        # b (1 hop) must not wait for the whole of a (2 hops):
        # with a single FIFO it would eject strictly after a's tail
        # cleared the first link.
        assert b.eject_cycle <= a.eject_cycle

    def test_output_vc_released_at_tail(self):
        network = net(num_vcs=2)
        topo = network.topo
        src = topo.node_at(0, 0)
        deliver(network, src, topo.node_at(0, 2))
        for _ in range(10):
            network.step()
        router = network.routers[src]
        assert all(owner is None
                   for port in router.out_vc_owner for owner in port)

    def test_vc_credit_isolation(self):
        """Exhausting one VC's credits must not block the other VC."""
        network = net(num_vcs=2, buffer_depth=2)
        topo = network.topo
        packets = [network.create_packet(src=topo.node_at(0, 0),
                                         dst=topo.node_at(0, 2), cycle=0)
                   for _ in range(6)]
        for _ in range(500):
            network.step()
            network.audit()
        assert all(p.eject_cycle is not None for p in packets)


class TestDateline:
    def config(self):
        return small_config("vc", num_vcs=2,
                            vc_class_mode="dateline").with_(tie_break="even")

    def test_wrap_crossing_switches_vc_class(self):
        """Before the dateline a packet rides class 0; the hop after
        crossing the wraparound edge rides class 1."""
        network = Network(self.config())
        topo = network.topo
        # (1,3) has even parity, so the distance-2 tie goes north:
        # (1,3) -> wrap -> (1,0) -> (1,1).
        src = topo.node_at(1, 3)
        mid = topo.node_at(1, 0)
        dst = topo.node_at(1, 1)
        pre_wrap, post_wrap = [], []
        log_arrivals(network.routers[mid], pre_wrap)
        log_arrivals(network.routers[dst], post_wrap)
        packet = network.create_packet(src=src, dst=dst, cycle=0)
        for _ in range(100):
            network.step()
        assert packet.eject_cycle is not None
        # Route sanity: two hops north through the wrap edge.
        assert packet.route[0] == NORTH and packet.route[1] == NORTH
        # Crossing hop requested pre-crossing: class 0 (vc 0 of 2).
        assert pre_wrap and all(v == 0 for v in pre_wrap)
        # Post-crossing hop: class 1 (vc 1 of 2).
        assert post_wrap and all(v == 1 for v in post_wrap)

    def test_dateline_network_delivers_under_load(self):
        network = Network(self.config())
        packets = []
        for i in range(30):
            src, dst = i % 16, (i * 5 + 3) % 16
            if src != dst:
                packets.append(network.create_packet(src, dst, 0))
        for _ in range(1500):
            network.step()
        assert all(p.eject_cycle is not None for p in packets)


class TestInjection:
    def test_packets_round_robin_across_injection_vcs(self):
        network = net(num_vcs=2)
        router = network.routers[0]
        for _ in range(2):
            network.create_packet(src=0, dst=4, cycle=0)
        for _ in range(8):
            network.step()
        # Two packets should have landed in different injection VCs.
        occupied = [len(vc.fifo) > 0 for vc in router.vcs[LOCAL]]
        # (They may have partially drained; check history via vc usage.)
        assert router._inject_rr in (0, 1)

    def test_body_flit_without_open_packet_rejected(self):
        network = net()
        packet = network.create_packet(src=0, dst=4, cycle=0)
        flits = list(network.source_queues[0])
        body = flits[1]
        network.source_queues[0].clear()
        with pytest.raises(RuntimeError):
            network.routers[0].inject_flit(body)

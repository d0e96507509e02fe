"""Behavioural tests for the wormhole router."""

from repro.sim.network import Network
from repro.sim.stats import zero_load_latency_estimate

from tests.conftest import small_config


def net(**kwargs):
    return Network(small_config("wormhole", **kwargs))


def deliver(network, src, dst, max_cycles=200):
    packet = network.create_packet(src=src, dst=dst, cycle=network.cycle)
    start = network.cycle
    for _ in range(max_cycles):
        network.step()
        if packet.eject_cycle is not None:
            return packet
    raise AssertionError("packet not delivered")


class TestPipelineTiming:
    def test_zero_load_latency_matches_two_stage_model(self):
        """Head pays SA+ST+link per hop plus final SA+ST; the tail
        follows len-1 cycles behind — the paper's 2-stage wormhole
        pipeline [15]."""
        network = net()
        topo = network.topo
        src = topo.node_at(0, 0)
        dst = topo.node_at(0, 2)  # 2 hops
        packet = deliver(network, src, dst)
        expected = zero_load_latency_estimate(
            avg_hops=2, pipeline_stages=2,
            packet_length_flits=network.config.packet_length_flits)
        assert packet.latency == expected

    def test_longer_routes_cost_three_cycles_per_hop(self):
        network = net()
        topo = network.topo
        one = deliver(network, topo.node_at(0, 0), topo.node_at(0, 1))
        two = deliver(network, topo.node_at(0, 0), topo.node_at(0, 2))
        assert two.latency - one.latency == 3


class TestConnections:
    def test_connection_held_until_tail(self):
        """While a packet streams, its output port is owned by the input
        and released exactly when the tail traverses."""
        network = net()
        src = network.topo.node_at(0, 0)
        network.create_packet(src=src, dst=network.topo.node_at(0, 2),
                              cycle=0)
        router = network.routers[src]
        owned_cycles = 0
        for _ in range(40):
            network.step()
            if router.out_owner[0] is not None:  # NORTH output owned
                owned_cycles += 1
        # 3 flits stream => owned for ~3 cycles, then released.
        assert owned_cycles >= 3
        assert router.out_owner[0] is None

    def test_no_interleaving_on_one_output(self):
        """Two packets to the same output port serialize whole-packet:
        their flits never interleave on the link."""
        network = net()
        topo = network.topo
        src_a = topo.node_at(1, 0)
        src_b = topo.node_at(1, 1)
        # Both leave (1, 1) north to (1, 2), on the one wire into dst:
        dst = topo.node_at(1, 2)
        seen = []
        wires = [c for c in network.routers[dst].in_channels
                 if c is not None]
        network.create_packet(src=src_a, dst=dst, cycle=0)
        network.create_packet(src=src_b, dst=dst, cycle=0)
        for _ in range(100):
            network.step()
            # A flit sent this cycle sits on its wire until the next
            # cycle's arrival phase: one sighting per flit.
            seen += [c._flit.packet.packet_id for c in wires
                     if c.busy]
        assert len(seen) == 6
        # Whole packets: first three ids equal, last three equal.
        assert len(set(seen[:3])) == 1
        assert len(set(seen[3:])) == 1


class TestCredits:
    def test_backpressure_blocks_at_full_buffer(self):
        """With a blocked downstream FIFO the sender stops exactly at
        zero credits — never overflows (the arrival phase's buffer
        overflow guard would raise)."""
        network = net(buffer_depth=2)
        topo = network.topo
        # A long packet stream into one column saturates buffers.
        for _ in range(6):
            network.create_packet(src=topo.node_at(2, 0),
                                  dst=topo.node_at(2, 2), cycle=0)
        for _ in range(300):
            network.step()
            network.audit()
        assert network.packets_delivered == 6

    def test_credits_restored_after_drain(self):
        network = net()
        src = network.topo.node_at(0, 0)
        deliver(network, src, network.topo.node_at(0, 2))
        for _ in range(20):
            network.step()
        router = network.routers[src]
        depth = network.config.router.buffer_depth
        for port, credits in enumerate(router.out_credits):
            if router.out_channels[port] is not None:
                assert credits == depth


class TestArbitration:
    def test_contending_inputs_share_output(self):
        """Four sources all crossing one column: everything still
        delivers (fair arbitration, no starvation)."""
        network = net()
        topo = network.topo
        packets = []
        for x in range(4):
            for _ in range(2):
                packets.append(network.create_packet(
                    src=topo.node_at(x, 0), dst=topo.node_at(x, 2),
                    cycle=network.cycle))
        for _ in range(400):
            network.step()
        assert all(p.eject_cycle is not None for p in packets)


class TestInjectionPort:
    def test_injection_space_tracks_local_fifo(self):
        network = net(buffer_depth=4)
        router = network.routers[0]
        assert router.injection_space() == 4
        network.create_packet(src=0, dst=5, cycle=0)
        network.step()
        assert router.injection_space() <= 4

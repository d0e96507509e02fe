"""Behavioural tests for the central-buffered router."""

from repro.sim.network import Network
from repro.sim.stats import zero_load_latency_estimate

from tests.conftest import small_config


def net(**kwargs):
    return Network(small_config("central", **kwargs))


def deliver(network, src, dst, max_cycles=300):
    packet = network.create_packet(src=src, dst=dst, cycle=network.cycle)
    for _ in range(max_cycles):
        network.step()
        if packet.eject_cycle is not None:
            return packet
    raise AssertionError("packet not delivered")


class TestPipelineTiming:
    def test_zero_load_latency_matches_vc_depth(self):
        """CB and VC routers are both three cycles deep at zero load,
        keeping the section 4.4 comparison fair."""
        network = net()
        topo = network.topo
        packet = deliver(network, topo.node_at(0, 0), topo.node_at(0, 2))
        expected = zero_load_latency_estimate(
            avg_hops=2, pipeline_stages=3,
            packet_length_flits=network.config.packet_length_flits)
        assert packet.latency == expected


class TestFabricPortLimits:
    def test_at_most_read_ports_reads_per_cycle(self):
        network = net(cb_read_ports=2, cb_write_ports=2)
        topo = network.topo
        # Five flows converge on one router from different inputs.
        mid = topo.node_at(1, 1)
        for x in range(4):
            for _ in range(3):
                src = topo.node_at(1, (1 + 1) % 4)
        # Direct check: the router never grants more than its port count.
        router = network.routers[mid]
        for i in range(16):
            if i != mid:
                network.create_packet(src=i, dst=mid, cycle=0)
        max_reads, max_writes = 0, 0
        for _ in range(300):
            network.step()
            max_reads = max(max_reads, len(router._read_grants))
            max_writes = max(max_writes, len(router._write_grants))
        assert max_reads <= 2
        assert max_writes <= 2
        assert network.packets_delivered == 15

    def test_single_port_fabric_is_slower(self):
        """Fewer fabric ports -> lower throughput under load (the
        Figure 7(a) mechanism)."""
        def drain_time(read_ports, write_ports):
            network = net(cb_read_ports=read_ports,
                          cb_write_ports=write_ports)
            for i in range(1, 16):
                network.create_packet(src=i, dst=0, cycle=0)
            for cycle in range(4000):
                network.step()
                if network.packets_delivered == 15:
                    return cycle
            raise AssertionError("packets stuck")

        assert drain_time(1, 1) > drain_time(2, 2)


class TestHeadOfLine:
    def test_no_hol_blocking_through_central_buffer(self):
        """Section 4.4: in a CB router, "packets from the same input port
        need not line up behind one another if they are destined for
        different output ports" — unlike a wormhole input FIFO.

        Packet A heads for a contended output of the middle router;
        packet B follows A through the same input but exits a free
        output.  In the CB network B's delivery is decoupled from A's;
        in a wormhole network B waits for A's tail.
        """
        def scenario(kind):
            extra = {"cb_rows": 4, "cb_banks": 2} if kind == "central" \
                else {}
            network = Network(small_config(kind, buffer_depth=4, **extra))
            topo = network.topo
            contested = topo.node_at(0, 2)
            # Converging streams oversubscribe the contested node's
            # ejection port, backing traffic up into its neighbours.
            for source in [(1, 2), (2, 2), (3, 2), (0, 3)]:
                for _ in range(6):
                    network.create_packet(src=topo.node_at(*source),
                                          dst=contested, cycle=0)
            for _ in range(15):
                network.step()
            a = network.create_packet(src=topo.node_at(0, 0),
                                      dst=contested, cycle=network.cycle)
            b = network.create_packet(src=topo.node_at(0, 0),
                                      dst=topo.node_at(1, 1),
                                      cycle=network.cycle)
            for _ in range(1500):
                network.step()
            assert a.eject_cycle is not None
            assert b.eject_cycle is not None
            return a, b

        cb_a, cb_b = scenario("central")
        wh_a, wh_b = scenario("wormhole")
        # Wormhole: B is stuck behind A in the shared input FIFO, so it
        # ejects after A despite A's congestion.
        assert wh_b.eject_cycle > wh_a.eject_cycle
        # Central buffer: B overtakes A inside the router.
        assert cb_b.eject_cycle < cb_a.eject_cycle

    def test_packets_to_same_output_stay_whole(self):
        """Per-output queues serialize packets: flits never interleave
        on a link."""
        network = net()
        topo = network.topo
        dst = topo.node_at(1, 2)
        seen = []
        wires = [c for c in network.routers[dst].in_channels
                 if c is not None]
        # Both leave (1, 1) north to (1, 2), on the one wire into dst;
        # the second starts two cycles later, so its flits enter (1, 1)'s
        # central buffer while the first packet's are arriving.
        network.create_packet(src=topo.node_at(1, 0), dst=dst, cycle=0)
        for cycle in range(200):
            if cycle == 2:
                network.create_packet(src=topo.node_at(1, 1), dst=dst,
                                      cycle=cycle)
            network.step()
            # A flit sent this cycle sits on its wire until the next
            # cycle's arrival phase: one sighting per flit.
            seen += [c._flit.packet.packet_id for c in wires
                     if c.busy]
        assert len(seen) == 6
        assert len(set(seen[:3])) == 1
        assert len(set(seen[3:])) == 1


class TestCapacity:
    def test_central_buffer_occupancy_bounded(self):
        network = net(cb_rows=4, cb_banks=2)  # tiny: 8 flits capacity
        for i in range(1, 16):
            network.create_packet(src=i, dst=0, cycle=0)
        router_max = 0
        for _ in range(600):
            network.step()
            network.audit()
            router_max = max(router_max,
                             max(r.occupancy for r in network.routers))
        assert router_max <= 8
        assert network.packets_delivered == 15

    def test_credit_backpressure(self):
        network = net(buffer_depth=2)
        topo = network.topo
        packets = [network.create_packet(src=topo.node_at(2, 0),
                                         dst=topo.node_at(2, 2), cycle=0)
                   for _ in range(5)]
        for _ in range(500):
            network.step()
            network.audit()
        assert all(p.eject_cycle is not None for p in packets)

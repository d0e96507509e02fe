"""Property-based tests (hypothesis) on simulator invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import Network
from repro.sim.routing import dimension_ordered_route, route_hops, route_nodes
from repro.sim.topology import Mesh, Torus

from tests.conftest import small_config

kinds = st.sampled_from(["wormhole", "vc", "central"])
nodes16 = st.integers(min_value=0, max_value=15)


class TestRoutingProperties:
    @given(st.integers(2, 8), st.integers(2, 8), st.data())
    @settings(max_examples=60)
    def test_routes_minimal_and_terminate_any_torus(self, w, h, data):
        topo = Torus(w, h)
        src = data.draw(st.integers(0, topo.num_nodes - 1))
        dst = data.draw(st.integers(0, topo.num_nodes - 1))
        if src == dst:
            return
        tie = data.draw(st.sampled_from(["avoid_wrap", "even"]))
        route = dimension_ordered_route(topo, src, dst, tie_break=tie)
        assert route_hops(route) == topo.manhattan_distance(src, dst)
        assert route_nodes(topo, src, route)[-1] == dst

    @given(st.integers(2, 8), st.integers(2, 8), st.data())
    @settings(max_examples=60)
    def test_routes_minimal_any_mesh(self, w, h, data):
        topo = Mesh(w, h)
        src = data.draw(st.integers(0, topo.num_nodes - 1))
        dst = data.draw(st.integers(0, topo.num_nodes - 1))
        if src == dst:
            return
        route = dimension_ordered_route(topo, src, dst)
        assert route_hops(route) == topo.manhattan_distance(src, dst)

    @given(st.integers(2, 8), st.integers(2, 8), st.data())
    @settings(max_examples=60)
    def test_dor_never_revisits_a_node(self, w, h, data):
        topo = Torus(w, h)
        src = data.draw(st.integers(0, topo.num_nodes - 1))
        dst = data.draw(st.integers(0, topo.num_nodes - 1))
        if src == dst:
            return
        route = dimension_ordered_route(topo, src, dst)
        nodes = route_nodes(topo, src, route)
        assert len(nodes) == len(set(nodes))


class TestTransportProperties:
    @given(kinds,
           st.lists(st.tuples(nodes16, nodes16), min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_every_packet_delivered_and_conserved(self, kind, pairs):
        """Whatever the workload, all flits are delivered exactly once
        and conservation holds at every cycle."""
        net = Network(small_config(kind))
        packets = []
        for src, dst in pairs:
            if src != dst:
                packets.append(net.create_packet(src, dst, net.cycle))
        for _ in range(1200):
            net.step()
            if all(p.eject_cycle is not None for p in packets):
                break
        net.audit()
        assert all(p.eject_cycle is not None for p in packets)
        assert net.packets_delivered == len(packets)
        assert net.flits_ejected == len(packets) * 3

    @given(kinds, st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=25, deadline=None)
    def test_latency_at_least_zero_load_bound(self, kind, src, dst):
        """No packet beats the pipeline: latency >= hops * (stages+1) +
        serialization."""
        if src == dst:
            return
        net = Network(small_config(kind))
        packet = net.create_packet(src, dst, 0)
        for _ in range(300):
            net.step()
            if packet.eject_cycle is not None:
                break
        assert packet.eject_cycle is not None
        stages = 2 if kind == "wormhole" else 3
        hops = net.topo.manhattan_distance(src, dst)
        bound = hops * (stages + 1) + stages + (3 - 1)
        assert packet.latency >= bound

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_energy_equals_sum_of_parts(self, data):
        """Network energy == sum over nodes == sum over components."""
        from repro.core.events import EnergyAccountant
        from repro.core.power_binding import PowerBinding
        kind = data.draw(kinds)
        cfg = small_config(kind)
        acc = EnergyAccountant(cfg.num_nodes)
        binding = PowerBinding(cfg, acc)
        net = Network(cfg, binding)
        n = data.draw(st.integers(1, 8))
        for i in range(n):
            src = data.draw(nodes16)
            dst = data.draw(nodes16)
            if src != dst:
                net.create_packet(src, dst, 0)
        for _ in range(400):
            net.step()
        binding.finalize(net.cycle, net.links_per_node())
        total = acc.total_energy()
        by_node = sum(acc.node_total(i) for i in range(16))
        by_component = sum(acc.breakdown().values())
        assert abs(total - by_node) <= 1e-18 + 1e-9 * total
        assert abs(total - by_component) <= 1e-18 + 1e-9 * total

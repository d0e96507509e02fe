"""Integration tests asserting the paper's qualitative claims at reduced
scale.

Each test runs the relevant experiment with fewer sample packets than the
paper's 10,000 (the benchmarks run the full-scale versions) and asserts
the *shape* of the result: who wins, what dominates, where the structure
lies.
"""

import pytest

from repro import Orion, RunProtocol, preset
from repro.core import events as ev


def run(cfg, rate, sample=400, warmup=300, seed=1):
    return Orion(cfg).run_uniform(rate, RunProtocol(
        warmup_cycles=warmup, sample_packets=sample, seed=seed))


#: Sweep protocol of the Figure 5 curves; Figure 6's spatial runs.
FIG5 = RunProtocol(warmup_cycles=400, sample_packets=500)
FIG6 = RunProtocol(warmup_cycles=500, sample_packets=250, seed=7)


class TestFigure5:
    """On-chip 4x4 torus: wormhole versus virtual-channel routers."""

    def test_vc16_saturates_at_paper_rate(self):
        """Section 4.2: VC16 saturates at ~0.15 packets/cycle/node."""
        sweep = Orion(preset("VC16")).sweep_uniform(
            [0.02, 0.13, 0.15, 0.17], FIG5)
        sat = sweep.saturation_rate()
        assert sat is not None
        assert 0.13 <= sat <= 0.17

    def test_vc16_matches_wh64_with_quarter_buffering(self):
        """VC16 reaches WH64-class throughput with 16 versus 64 flits of
        buffering per port."""
        vc = Orion(preset("VC16")).sweep_uniform(
            [0.02, 0.13], FIG5)
        wh = Orion(preset("WH64")).sweep_uniform(
            [0.02, 0.13], FIG5)
        # Neither saturated at 0.13; latencies within the same band.
        assert vc.points[1].avg_latency < 2 * vc.points[0].avg_latency
        assert wh.points[1].avg_latency < 2 * wh.points[0].avg_latency

    def test_vc16_dissipates_less_power_than_wh64(self):
        """Figure 5(b): below saturation VC16 burns less power than
        WH64 at equal injection rate (quarter-size buffer arrays)."""
        vc = run(preset("VC16"), 0.08)
        wh = run(preset("WH64"), 0.08)
        assert vc.total_power_w < wh.total_power_w

    def test_vc64_power_tracks_wh64(self):
        """Figure 5(b): VC64 dissipates approximately the same power as
        WH64 — same physical buffering, negligible arbiter delta."""
        vc = run(preset("VC64"), 0.08, sample=300)
        wh = run(preset("WH64"), 0.08, sample=300)
        assert vc.total_power_w == pytest.approx(wh.total_power_w,
                                                 rel=0.10)

    def test_vc128_burns_more_power_for_no_gain_at_moderate_load(self):
        """Section 4.2: choosing VC128 over VC64 adds power without a
        matching performance improvement below saturation."""
        vc128 = run(preset("VC128"), 0.08, sample=300)
        vc64 = run(preset("VC64"), 0.08, sample=300)
        assert vc128.total_power_w > vc64.total_power_w
        assert vc128.avg_latency == pytest.approx(vc64.avg_latency,
                                                  rel=0.15)

    def test_power_levels_off_after_saturation(self):
        """Figure 5(b): total network power flattens beyond saturation
        because the network cannot absorb more traffic."""
        sweep = Orion(preset("VC16")).sweep_uniform(
            [0.17, 0.22], RunProtocol(warmup_cycles=400, sample_packets=400))
        lo, hi = sweep.points[0].total_power_w, sweep.points[1].total_power_w
        assert hi < lo * 1.15

    def test_figure_5c_breakdown(self):
        """Figure 5(c): buffers + crossbar > 85% of node power, arbiter
        < 1%, links < 15% for the on-chip VC64 router."""
        result = run(preset("VC64"), 0.08, sample=300)
        breakdown = result.power_breakdown_w()
        total = sum(breakdown.values())
        datapath = breakdown[ev.INPUT_BUFFER] + breakdown[ev.CROSSBAR]
        assert datapath / total > 0.85
        assert breakdown[ev.ARBITER] / total < 0.01
        assert breakdown[ev.LINK] / total < 0.15


class TestFigure6:
    """Power spatial distribution: uniform versus broadcast."""

    def config(self):
        # VC router, 2 VCs x 8 flits (section 4.3), balanced routing.
        return preset("VC16").with_(tie_break="even")

    def test_uniform_traffic_is_spatially_flat(self):
        """Figure 6(a): uniform random traffic yields near-identical
        power at every node."""
        result = Orion(self.config()).run_uniform(
            0.2 / 16, FIG6)
        powers = result.node_power_w()
        mean = sum(powers) / len(powers)
        assert max(powers) < 1.35 * mean
        assert min(powers) > 0.65 * mean

    def test_broadcast_source_is_hottest(self):
        """Figure 6(b): the broadcasting node consumes the most power."""
        topo_source = 9  # (1, 2)
        result = Orion(self.config()).run_broadcast(
            topo_source, 0.2, FIG6)
        powers = result.node_power_w()
        assert powers[topo_source] == max(powers)

    def test_broadcast_power_decays_with_distance(self):
        """Figure 6(b): node power falls off quickly with Manhattan
        distance from the broadcast source."""
        from repro.sim.topology import Torus
        topo = Torus(4)
        source = topo.node_at(1, 2)
        result = Orion(self.config()).run_broadcast(
            source, 0.2, FIG6)
        powers = result.node_power_w()
        by_distance = {}
        for node, power in enumerate(powers):
            d = topo.manhattan_distance(source, node)
            by_distance.setdefault(d, []).append(power)
        means = {d: sum(v) / len(v) for d, v in by_distance.items()}
        assert means[0] > means[1] > means[2]

    def test_y_first_routing_heats_the_source_column(self):
        """Figure 6(b): with y-first routing from (1,2), the column
        neighbours (1,1) and (1,3) run hotter than the row neighbours
        (0,2) and (2,2)."""
        from repro.sim.topology import Torus
        topo = Torus(4)
        source = topo.node_at(1, 2)
        result = Orion(self.config()).run_broadcast(
            source, 0.2, FIG6)
        powers = result.node_power_w()
        column = powers[topo.node_at(1, 1)] + powers[topo.node_at(1, 3)]
        row = powers[topo.node_at(0, 2)] + powers[topo.node_at(2, 2)]
        assert column > row


class TestFigure7:
    """Chip-to-chip 4x4 torus: central-buffered versus crossbar routers."""

    def test_cb_saturates_before_xb_under_uniform_traffic(self):
        """Figure 7(a): the CB router's 2-port fabric limits uniform
        random throughput below the XB router's."""
        rates = [0.02, 0.10]
        cb = Orion(preset("CB")).sweep_uniform(
            rates, RunProtocol(warmup_cycles=300, sample_packets=250))
        xb = Orion(preset("XB")).sweep_uniform(
            rates, RunProtocol(warmup_cycles=300, sample_packets=250))
        cb_infl = cb.points[1].avg_latency / cb.points[0].avg_latency
        xb_infl = xb.points[1].avg_latency / xb.points[0].avg_latency
        assert cb_infl > xb_infl

    def test_cb_consumes_more_power_than_xb(self):
        """Figures 7(b)/(e): CB routers burn more power at equal load
        despite equal area (full-row central buffer accesses)."""
        cb = run(preset("CB"), 0.05, sample=250)
        xb = run(preset("XB"), 0.05, sample=250)
        assert cb.total_power_w > xb.total_power_w

    def test_figure_7c_xb_breakdown(self):
        """Figure 7(c): links > 70% of XB node power; arbiter and
        crossbar invisible."""
        result = run(preset("XB"), 0.05, sample=250)
        breakdown = result.power_breakdown_w()
        total = sum(breakdown.values())
        assert breakdown[ev.LINK] / total > 0.70
        assert breakdown[ev.ARBITER] / total < 0.01
        assert breakdown[ev.CROSSBAR] / total < 0.01
        # Among router components, input buffers dominate.
        assert breakdown[ev.INPUT_BUFFER] == max(
            breakdown[c] for c in (ev.INPUT_BUFFER, ev.CROSSBAR,
                                   ev.ARBITER, ev.CENTRAL_BUFFER))

    def test_figure_7f_cb_breakdown(self):
        """Figure 7(f): the central buffer dominates CB router power;
        arbiter and input buffers invisible."""
        result = run(preset("CB"), 0.05, sample=250)
        breakdown = result.power_breakdown_w()
        router_components = (ev.INPUT_BUFFER, ev.CENTRAL_BUFFER,
                             ev.CROSSBAR, ev.ARBITER)
        router_total = sum(breakdown[c] for c in router_components)
        assert breakdown[ev.CENTRAL_BUFFER] / router_total > 0.90
        assert breakdown[ev.ARBITER] / router_total < 0.01

    def test_chip_to_chip_link_power_is_load_invariant(self):
        """Section 4.4: differential chip-to-chip links burn the same
        power regardless of traffic."""
        light = run(preset("XB"), 0.02, sample=200)
        heavy = run(preset("XB"), 0.08, sample=200)
        assert light.power_breakdown_w()[ev.LINK] == pytest.approx(
            heavy.power_breakdown_w()[ev.LINK], rel=0.01)
        # On-chip links, by contrast, scale with load.
        light_oc = run(preset("VC16"), 0.02, sample=200)
        heavy_oc = run(preset("VC16"), 0.08, sample=200)
        assert heavy_oc.power_breakdown_w()[ev.LINK] > \
            2 * light_oc.power_breakdown_w()[ev.LINK]

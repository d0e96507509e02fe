"""Cross-validation of the analytic estimator against the simulator.

The analytic subsystem doubles as a standing correctness check: zero-load
latency must match simulation *exactly* (same pipeline arithmetic), and
power / saturation predictions must land within stated tolerances of
simulated values on the paper's Figure 5 configuration.
"""

import importlib
import math
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.core.config import RunProtocol
from repro.core.orion import Orion
from repro.core.presets import PRESETS, preset
from repro.analytic import (
    AnalyticEstimate,
    ZERO_LOAD_PIPELINE_DEPTH,
    estimate,
    estimate_saturation,
    flow_matrix,
    pipeline_depth,
    queueing_delay,
    router_event_rates,
    zero_load_latency,
)
from repro.sim.routing import dimension_ordered_route
from repro.sim.topology import topology_for
from repro.sim.traffic import (
    TRAFFIC_REGISTRY,
    TraceTraffic,
    TrafficKind,
    TrafficPattern,
    make_traffic,
)

from tests.conftest import small_config

#: One uncontended packet per (src, dst) pair: a trace with a single
#: packet measures pure pipeline latency.
SINGLE_PACKET = RunProtocol(warmup_cycles=0, sample_packets=1,
                            collect_power=False)

PAIRS = [(0, 5), (0, 15), (3, 12), (1, 2), (0, 3)]


def simulated_single_packet_latency(config, src, dst):
    topo = topology_for(config)
    traffic = TraceTraffic(topo, [(0, src, dst)])
    return Orion(config).run(traffic, SINGLE_PACKET).avg_latency


class TestZeroLoadExactness:
    """Acceptance: analytic zero-load latency equals simulated latency,
    exactly in cycles, for mesh and torus presets."""

    @pytest.mark.parametrize("name", ["WH64", "VC16", "CB", "XB"])
    @pytest.mark.parametrize("topology", ["torus", "mesh"])
    def test_presets_match_exactly(self, name, topology):
        config = preset(name).with_(topology=topology)
        topo = topology_for(config)
        for src, dst in PAIRS:
            hops = len(dimension_ordered_route(
                topo, src, dst, tie_break=config.tie_break)) - 1
            assert simulated_single_packet_latency(config, src, dst) == \
                zero_load_latency(config, hops), \
                f"{name}/{topology} {src}->{dst} ({hops} hops)"

    def test_speculative_router_matches_exactly(self):
        config = small_config("vc").with_router(kind="speculative_vc")
        topo = topology_for(config)
        for src, dst in PAIRS:
            hops = len(dimension_ordered_route(
                topo, src, dst, tie_break=config.tie_break)) - 1
            assert simulated_single_packet_latency(config, src, dst) == \
                zero_load_latency(config, hops)

    def test_depth_map_covers_all_router_kinds(self):
        from repro.sim.routers import ROUTER_CLASSES
        assert set(ZERO_LOAD_PIPELINE_DEPTH) == set(ROUTER_CLASSES)

    def test_known_kinds_have_positive_depth(self):
        for kind, depth in ZERO_LOAD_PIPELINE_DEPTH.items():
            assert depth >= 2, kind
        config = small_config("wormhole")
        assert pipeline_depth(config) == 2


class TestPowerCrossValidation:
    """Acceptance: analytic power within 15% of simulated, Figure 5
    uniform-traffic configuration (VC16)."""

    def test_vc16_uniform_total_power_within_15pct(self):
        config = preset("VC16")
        est = estimate(config, "uniform", 0.05, with_saturation=False)
        sim = Orion(config).run_uniform(
            0.05, RunProtocol(warmup_cycles=400, sample_packets=400))
        rel = abs(est.total_power_w - sim.total_power_w) / sim.total_power_w
        assert rel < 0.15, f"analytic {est.total_power_w:.3f} W vs " \
                           f"simulated {sim.total_power_w:.3f} W"

    def test_vc16_breakdown_components_track_simulation(self):
        config = preset("VC16")
        est = estimate(config, "uniform", 0.05, with_saturation=False)
        sim = Orion(config).run_uniform(
            0.05, RunProtocol(warmup_cycles=400, sample_packets=400))
        sim_breakdown = sim.power_breakdown_w()
        for component, sim_w in sim_breakdown.items():
            if sim_w <= 0.0:
                continue
            assert est.power_breakdown_w[component] == \
                pytest.approx(sim_w, rel=0.15), component

    def test_event_rates_match_simulated_counts(self):
        """Predicted events/cycle track the accountant's counts."""
        config = preset("VC16")
        flows = flow_matrix(config, "uniform", 0.04)
        from repro.analytic.power import estimate_power
        est = estimate_power(flows)
        sim = Orion(config).run_uniform(
            0.04, RunProtocol(warmup_cycles=400, sample_packets=400))
        for event in ("buffer_write", "buffer_read", "xbar_traversal",
                      "link_traversal"):
            simulated = sim.accountant.event_count(event) / \
                sim.measured_cycles
            assert est.event_rates[event] == \
                pytest.approx(simulated, rel=0.15), event

    def test_constant_power_configs_include_idle_links(self):
        """CB/XB presets burn chip-to-chip link power at zero traffic."""
        config = preset("XB")
        est = estimate(config, "uniform", 0.001, with_saturation=False)
        # 16 nodes x 4 outgoing links x 3 W of constant link power.
        assert est.power_breakdown_w["link"] > 100.0


class TestSaturationCrossValidation:
    """Acceptance: analytic saturation within 20% of simulated, Figure 5
    uniform-traffic configuration (VC16)."""

    def test_vc16_uniform_saturation_within_20pct(self):
        config = preset("VC16")
        predicted = estimate_saturation(config, "uniform").rate
        protocol = RunProtocol(warmup_cycles=400, sample_packets=300)
        sweep = Orion(config).sweep_uniform(
            [0.02, 0.11, 0.13, 0.15, 0.17], protocol)
        measured = sweep.saturation_rate(interpolate=True)
        assert measured is not None
        rel = abs(predicted - measured) / measured
        assert rel < 0.20, f"analytic {predicted:.4f} vs " \
                           f"measured {measured:.4f}"

    def test_saturation_below_throughput_bound(self):
        config = preset("VC16")
        sat = estimate_saturation(config, "uniform")
        assert 0.0 < sat.rate < sat.throughput_bound

    def test_zero_flow_traffic_never_saturates(self):
        """A hotspot kind with rate scaled to zero has no finite
        saturation point."""
        config = small_config("wormhole")
        base = flow_matrix(config, "uniform", 0.0)
        assert base.max_channel_load == 0.0


class TestFlowMatrix:
    def test_uniform_conservation(self):
        config = small_config("wormhole")
        flows = flow_matrix(config, "uniform", 0.1)
        n = topology_for(config).num_nodes
        assert flows.injection_packets == pytest.approx(0.1 * n)
        assert sum(flows.source_load) == pytest.approx(flows.injection_flits)
        # Flits crossing links = injected flits x average hops.
        assert flows.link_flits == pytest.approx(
            flows.injection_flits * flows.avg_hops)

    def test_loads_linear_in_rate(self):
        config = small_config("vc")
        one = flow_matrix(config, "uniform", 0.02)
        two = flow_matrix(config, "uniform", 0.04)
        for channel, load in one.channel_load.items():
            assert two.channel_load[channel] == pytest.approx(2 * load)
        scaled = one.scaled(2.0)
        assert scaled.channel_load == pytest.approx(two.channel_load)
        assert scaled.avg_hops == one.avg_hops

    def test_broadcast_rate_is_whole_network(self):
        config = small_config("wormhole")
        flows = flow_matrix(config, "broadcast", 0.12, source=9)
        assert flows.injection_packets == pytest.approx(0.12)
        assert flows.source_load[9] == pytest.approx(
            0.12 * config.packet_length_flits)
        assert sum(flows.source_load) == pytest.approx(flows.source_load[9])

    def test_transpose_diagonal_is_silent(self):
        topo = topology_for(small_config("wormhole"))
        flows = make_traffic("transpose", topo, 0.1).flows()
        diagonal = {topo.node_at(i, i) for i in range(4)}
        assert all(src not in diagonal for src, _ in flows)

    def test_hotspot_flows_sum_to_rate_per_sender(self):
        topo = topology_for(small_config("wormhole"))
        flows = make_traffic("hotspot", topo, 0.1, hotspot=5).flows()
        per_src = {}
        for (src, _dst), pkts in flows.items():
            per_src[src] = per_src.get(src, 0.0) + 0.1 * pkts
        for src, total in per_src.items():
            assert total == pytest.approx(0.1), f"source {src}"

    def test_bursty_average_flows_match_uniform(self):
        topo = topology_for(small_config("wormhole"))
        assert make_traffic("bursty", topo, 0.1).flows() == \
            make_traffic("uniform", topo, 0.1).flows()

    def test_unmodelled_traffic_rejected_with_hint(self, monkeypatch):
        class Silent(TrafficPattern):
            def packets_at(self, cycle):
                return []

        monkeypatch.setitem(TRAFFIC_REGISTRY, "silent",
                            TrafficKind("silent", Silent))
        config = small_config("wormhole")
        with pytest.raises(ValueError, match=r"'silent'.*flows\(\)"):
            flow_matrix(config, "silent", 0.1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            flow_matrix(small_config("wormhole"), "uniform", -0.1)

    def test_mean_hops_uniform_torus(self):
        """4x4 torus, uniform: mean minimal distance is 32/15."""
        assert flow_matrix(small_config("wormhole"), "uniform").avg_hops \
            == pytest.approx(32.0 / 15.0)


class TestLatencyModel:
    def test_queueing_grows_with_rate(self):
        config = small_config("vc")
        low = queueing_delay(flow_matrix(config, "uniform", 0.02))
        high = queueing_delay(flow_matrix(config, "uniform", 0.08))
        assert 0.0 < low < high

    def test_overloaded_channel_gives_infinite_latency(self):
        config = small_config("vc")
        flows = flow_matrix(config, "uniform", 0.9)
        assert math.isinf(queueing_delay(flows))

    def test_event_rate_model_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="event-rate"):
            router_event_rates("quantum", 1.0, 0.2)


class TestEstimateFacade:
    def test_orion_estimate_mirrors_module_function(self):
        config = preset("VC16")
        via_facade = Orion(config).estimate_uniform(0.05)
        direct = estimate(config, "uniform", 0.05)
        assert isinstance(via_facade, AnalyticEstimate)
        assert via_facade.avg_latency == direct.avg_latency
        assert via_facade.total_power_w == direct.total_power_w
        assert via_facade.saturation.rate == direct.saturation.rate

    def test_orion_estimate_saturation(self):
        config = preset("VC16")
        sat = Orion(config).estimate_saturation("uniform")
        assert 0.0 < sat.rate < sat.throughput_bound

    def test_is_saturated_flag(self):
        config = preset("VC16")
        below = Orion(config).estimate_uniform(0.02)
        assert not below.is_saturated
        above = Orion(config).estimate_traffic(
            "uniform", below.saturation.rate * 1.5)
        assert above.is_saturated

    def test_describe_is_printable(self):
        text = Orion(preset("WH64")).estimate_uniform(0.03).describe()
        assert "zero-load" in text and "saturation" in text

    def test_16x16_mesh_estimate_is_fast(self):
        """Acceptance: well under a second for a 16x16 mesh point."""
        config = preset("VC16").with_(topology="mesh", width=16, height=16)
        start = time.perf_counter()
        est = estimate(config, "uniform", 0.02)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        assert math.isfinite(est.avg_latency)
        assert est.total_power_w > 0.0
        assert math.isfinite(est.saturation.rate)


class TestGuidedGrid:
    def test_grid_brackets_prediction_and_skips_deep_past(self):
        from repro.exp import guided_rate_grid
        config = preset("VC16")
        grid = guided_rate_grid(config, "uniform", points=8)
        sat = grid.prediction.rate
        assert min(grid.rates) < 0.5 * sat
        assert max(grid.rates) >= sat
        assert max(grid.rates) <= grid.skipped_above + 1e-12
        assert len(grid.rates) == 8

    def test_too_few_points_rejected(self):
        from repro.exp import guided_rate_grid
        with pytest.raises(ValueError, match=">= 4"):
            guided_rate_grid(preset("VC16"), "uniform", points=3)

    def test_guided_sweep_matches_dense_uniform_grid(self):
        """Acceptance: guided mode's saturation estimate matches a
        uniform dense-grid sweep within one grid step, on fewer
        simulated points."""
        from repro.exp import run_guided_sweep
        config = preset("VC16")
        protocol = RunProtocol(warmup_cycles=300, sample_packets=250)
        dense_rates = [0.02, 0.04, 0.06, 0.08, 0.10, 0.12,
                       0.14, 0.16, 0.18]
        dense = Orion(config).sweep_uniform(dense_rates, protocol)
        dense_sat = dense.saturation_rate()
        guided = run_guided_sweep(config, "uniform", protocol, points=8)
        guided_sat = guided.saturation_rate()
        assert dense_sat is not None and guided_sat is not None
        assert len(guided.grid.rates) < len(dense_rates)
        step = max(0.02, guided.grid.dense_step)
        assert abs(guided_sat - dense_sat) <= step + 1e-9


# --- the per-structure record ---------------------------------------------

estimate_module = importlib.import_module("repro.analytic.estimate")

SATURATION_RATES = (0.0, 0.003, 0.01, 0.037, 0.05, 0.11, 0.2, 0.9)


@pytest.fixture
def cold_memo(monkeypatch):
    """A private, empty structure memo; ``clear()`` it to go cold."""
    memo = {}
    monkeypatch.setattr(estimate_module, "_structures", memo)
    return memo


class TestStructureRecord:
    """An estimate looks up one rate-independent record per (config,
    traffic, params) and scales it: its answers must not depend on what
    the process estimated before."""

    @pytest.mark.parametrize("traffic",
                             ["uniform", "transpose", "bitcomp", "tornado"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_saturation_is_one_number_per_structure(self, cold_memo, name,
                                                    traffic):
        config = preset(name)
        reference = estimate_saturation(config, traffic)
        assert Orion(config).estimate_saturation(traffic) == reference
        for rate in SATURATION_RATES:
            assert estimate(config, traffic, rate).saturation == reference
            # Cold, the rate's own estimate must find the same point.
            cold_memo.clear()
            assert estimate(config, traffic, rate).saturation == reference

    def test_warm_answers_equal_cold_answers(self, cold_memo):
        calls = [(name, traffic, rate, params)
                 for name in ("VC16", "CB", "WH64")
                 for traffic, params in (("uniform", {}),
                                         ("hotspot", {"hotspot": 5}),
                                         ("bursty", {}))
                 for rate in (0.0, 0.02, 0.07, 0.3)]
        warm = [estimate(preset(n), t, r, **p) for n, t, r, p in calls]
        for (name, traffic, rate, params), answer in zip(calls, warm):
            cold_memo.clear()
            assert estimate(preset(name), traffic, rate, **params) == answer

    def test_equal_config_spellings_key_apart(self, cold_memo):
        """``vdd=1`` and ``vdd=1.0`` compare equal but are keyed on
        their text, so neither spelling's record answers for the
        other; both price identically anyway."""
        base = preset("VC16")
        as_int = base.with_(tech=replace(base.tech, vdd=1))
        as_float = base.with_(tech=replace(base.tech, vdd=1.0))
        assert as_int == as_float
        warm = [estimate(c, "uniform", 0.05) for c in (as_int, as_float)]
        assert len(cold_memo) == 2
        assert warm[0] == warm[1]
        for config, answer in zip((as_float, as_int), reversed(warm)):
            cold_memo.clear()
            assert estimate(config, "uniform", 0.05) == answer

    def test_concurrent_callers_get_cold_answers(self, cold_memo,
                                                 monkeypatch):
        """Threads racing on a memo that keeps clearing itself still get
        the answer a cold process gives."""
        monkeypatch.setattr(estimate_module, "STRUCTURE_MEMO_SIZE", 3)
        calls = [(preset(name), traffic, rate)
                 for name in ("VC16", "WH64", "CB")
                 for traffic in ("uniform", "tornado")
                 for rate in (0.01, 0.06)]
        expected = []
        for call in calls:
            cold_memo.clear()
            expected.append(estimate(*call))
        mismatches = []

        def worker(offset):
            for i in range(4 * len(calls)):
                k = (i + offset) % len(calls)
                if estimate(*calls[k]) != expected[k]:
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_resolved_params_share_a_record(self, cold_memo):
        estimate(preset("VC16"), "bursty", 0.05)
        estimate(preset("VC16"), "bursty", 0.05, burst_length=10.0)
        assert len(cold_memo) == 1

    def test_memo_is_bounded(self, cold_memo, monkeypatch):
        monkeypatch.setattr(estimate_module, "STRUCTURE_MEMO_SIZE", 4)
        answers = []
        for width in range(3, 13):
            config = preset("VC16").with_(width=width)
            answers.append((config, estimate(config, "uniform", 0.02)))
            assert len(cold_memo) <= 4
        for config, answer in answers:
            assert estimate(config, "uniform", 0.02) == answer

    def test_reregistered_builder_is_not_served_stale(self, monkeypatch):
        config = preset("VC16")
        tornado = estimate(config, "tornado", 0.05)
        uniform = estimate(config, "uniform", 0.05)
        monkeypatch.setitem(TRAFFIC_REGISTRY, "tornado",
                            replace(TRAFFIC_REGISTRY["tornado"],
                                    factory=TRAFFIC_REGISTRY["uniform"]
                                    .factory))
        swapped = estimate(config, "tornado", 0.05)
        assert swapped.total_power_w == uniform.total_power_w
        assert swapped.total_power_w != tornado.total_power_w
        monkeypatch.undo()
        assert estimate(config, "tornado", 0.05) == tornado

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rate must be >= 0"):
            estimate(preset("VC16"), "uniform", -0.01)

    def test_repeat_estimates_of_a_structure_are_cheap(self, cold_memo):
        """A repeat pays for arithmetic only; a 16x16 mesh's first
        estimate routes 65,280 flows, its next rates route none."""
        config = preset("VC16").with_(topology="mesh", width=16, height=16)
        first = time.perf_counter()
        estimate(config, "uniform", 0.02)
        first = time.perf_counter() - first
        repeat = time.perf_counter()
        estimate(config, "uniform", 0.021)
        repeat = time.perf_counter() - repeat
        assert repeat < 0.25 * first, (first, repeat)

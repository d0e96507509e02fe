"""Unit tests for the simulation engine and its measurement protocol."""

import pytest

from repro.core import events as ev
from repro.core.config import RunProtocol
from repro.sim.engine import (
    DeadlockError,
    Simulation,
    SimulationTimeout,
)
from repro.sim.traffic import TraceTraffic, UniformRandomTraffic
from repro.sim.topology import Torus

from tests.conftest import small_config


def sim(kind="wormhole", rate=0.02, warmup=100, sample=50, **protocol):
    cfg = small_config(kind)
    traffic = UniformRandomTraffic(Torus(4), rate, seed=11)
    return Simulation(cfg, traffic, RunProtocol(
        warmup_cycles=warmup, sample_packets=sample, **protocol))


class TestProtocol:
    def test_sample_size_honoured(self):
        result = sim(sample=40).run()
        assert result.sample_packets == 40
        assert result.latency.count == 40

    def test_measured_cycles_exclude_warmup(self):
        result = sim(warmup=120).run()
        assert result.measured_cycles == result.total_cycles - 120

    def test_warmup_energy_excluded(self):
        """Energy from the first warmup cycles must not appear in the
        result (section 4.1)."""
        long_warm = sim(warmup=400, sample=30).run()
        # Rough invariant: energy per measured cycle should be similar
        # whether warm-up was long or short.
        short_warm = sim(warmup=50, sample=30).run()
        per_cycle_long = long_warm.total_energy_j / long_warm.measured_cycles
        per_cycle_short = (short_warm.total_energy_j /
                           short_warm.measured_cycles)
        assert per_cycle_long == pytest.approx(per_cycle_short, rel=0.5)

    def test_power_formula(self):
        """Average power = total energy * f / measured cycles."""
        result = sim().run()
        f = result.config.tech.frequency_hz
        assert result.total_power_w == pytest.approx(
            result.total_energy_j * f / result.measured_cycles)

    def test_breakdown_sums_to_total_power(self):
        result = sim().run()
        assert sum(result.power_breakdown_w().values()) == pytest.approx(
            result.total_power_w)

    def test_node_power_sums_to_total(self):
        result = sim().run()
        assert sum(result.node_power_w()) == pytest.approx(
            result.total_power_w)

    def test_all_sample_packets_have_latency(self):
        result = sim().run()
        assert result.avg_latency > 0
        assert result.latency.minimum >= 1

    def test_collect_power_false_disables_accounting(self):
        result = sim(collect_power=False).run()
        assert result.accountant is None
        with pytest.raises(ValueError):
            result.total_energy_j

    def test_event_counts_match_flits(self):
        """Every measured flit-hop does exactly one buffer read and one
        crossbar traversal in a wormhole network."""
        result = sim().run()
        acc = result.accountant
        reads = acc.event_count(ev.BUFFER_READ)
        xbars = acc.event_count(ev.XBAR_TRAVERSAL)
        assert reads == xbars


class TestTermination:
    def test_timeout_raises(self):
        with pytest.raises(SimulationTimeout):
            sim(max_cycles=150, warmup=100, sample=10_000).run()

    def test_trace_traffic_completes(self):
        cfg = small_config("wormhole")
        trace = [(0, 0, 5), (0, 1, 6), (3, 2, 7)]
        s = Simulation(cfg, TraceTraffic(Torus(4), trace),
                       RunProtocol(warmup_cycles=0, sample_packets=3))
        result = s.run()
        assert result.packets_delivered == 3

    @staticmethod
    def _stalled(**protocol):
        """A simulation whose routers never move a flit, with one packet
        waiting at its source."""
        s = sim(watchdog_cycles=50, warmup=0, sample=5, **protocol)
        for router in s.network.routers:
            router.traversal_phase = lambda cycle: None
            router.allocation_phase = lambda cycle: None
            router.inject_flit = lambda flit: False
        s.network.create_packet(0, 5, 0)
        return s

    def test_watchdog_fires_on_artificial_stall(self):
        """Freeze every router: the watchdog must detect the stall
        instead of spinning forever."""
        with pytest.raises(DeadlockError):
            self._stalled().run()

    def test_permanent_freeze_raises_by_default(self):
        """Routers that freeze for good mid-run, with traffic in flight
        after warm-up, raise under the default ``on_stall="raise"``."""
        s = sim(watchdog_cycles=200, warmup=100, sample=5000, rate=0.05)
        network = s.network
        for router in network.routers:
            def frozen(phase):
                return lambda *args: (None if network.cycle >= 150
                                      else phase(*args))
            router.traversal_phase = frozen(router.traversal_phase)
            router.allocation_phase = frozen(router.allocation_phase)
            inject = router.inject_flit
            router.inject_flit = lambda flit, inject=inject: (
                False if network.cycle >= 150 else inject(flit))
        with pytest.raises(DeadlockError):
            s.run()
        assert network.cycle >= 150 + 200

    def test_stall_status_with_finish(self):
        """Under ``on_stall="finish"`` the same stall ends the run with
        status "stalled" once the idle window elapses."""
        result = self._stalled(on_stall="finish").run()
        assert result.status == "stalled"
        assert result.total_cycles == 50
        assert result.sample_packets == 0

    def test_max_cycles_status_with_finish(self):
        result = sim(max_cycles=300, warmup=100, sample=5000,
                     on_stall="finish").run()
        assert result.status == "max_cycles"
        assert result.total_cycles == 300


class TestValidation:
    def test_rejects_bad_parameters(self):
        cfg = small_config("wormhole")
        traffic = UniformRandomTraffic(Torus(4), 0.1)
        with pytest.raises(ValueError):
            Simulation(cfg, traffic, RunProtocol(warmup_cycles=-1))
        with pytest.raises(ValueError):
            Simulation(cfg, traffic, RunProtocol(sample_packets=0))


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = sim().run()
        b = sim().run()
        assert a.avg_latency == b.avg_latency
        assert a.total_cycles == b.total_cycles
        assert a.total_energy_j == pytest.approx(b.total_energy_j)

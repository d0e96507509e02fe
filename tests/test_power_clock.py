"""Unit tests for the clock-power extension."""

import pytest

from repro import Orion, RunProtocol, preset
from repro.core import events as ev
from repro.power import ClockPower
from repro.tech import Technology


FAST = RunProtocol(warmup_cycles=150, sample_packets=60)


def tech(f=2e9):
    return Technology(0.1, vdd=1.2, frequency_hz=f)


class TestClockModel:
    def test_energy_is_full_swing_per_cycle(self):
        model = ClockPower(tech(), registered_bits=1000, area_um2=1e5)
        assert model.energy_per_cycle() == pytest.approx(
            model.clock_cap * 1.2 * 1.2)

    def test_power_scales_with_frequency(self):
        slow = ClockPower(tech(1e9), registered_bits=1000, area_um2=1e5)
        fast = ClockPower(tech(2e9), registered_bits=1000, area_um2=1e5)
        assert fast.power_watts() == pytest.approx(2 * slow.power_watts())

    def test_more_registers_more_cap(self):
        small = ClockPower(tech(), registered_bits=100, area_um2=1e5)
        big = ClockPower(tech(), registered_bits=10000, area_um2=1e5)
        assert big.clock_cap > small.clock_cap

    def test_larger_area_longer_tree(self):
        small = ClockPower(tech(), registered_bits=100, area_um2=1e4)
        big = ClockPower(tech(), registered_bits=100, area_um2=1e8)
        assert big.clock_cap > small.clock_cap

    def test_validation(self):
        with pytest.raises(ValueError):
            ClockPower(tech(), registered_bits=-1, area_um2=1e5)
        with pytest.raises(ValueError):
            ClockPower(tech(), registered_bits=10, area_um2=-1.0)

    def test_describe(self):
        d = ClockPower(tech(), registered_bits=10, area_um2=1e4).describe()
        assert d["power_w"] > 0


class TestEndToEnd:
    def test_clock_adds_constant_component(self):
        base = preset("VC16")
        on = Orion(base.with_(include_clock=True)).run_uniform(0.03, FAST)
        off = Orion(base).run_uniform(0.03, FAST)
        assert on.power_breakdown_w()[ev.CLOCK] > 0
        assert off.power_breakdown_w()[ev.CLOCK] == 0.0
        assert on.total_power_w > off.total_power_w

    def test_clock_power_is_rate_independent(self):
        cfg = preset("VC16").with_(include_clock=True)
        slow = Orion(cfg).run_uniform(0.02, FAST)
        fast = Orion(cfg).run_uniform(0.08, FAST)
        assert slow.power_breakdown_w()[ev.CLOCK] == pytest.approx(
            fast.power_breakdown_w()[ev.CLOCK], rel=0.01)

    def test_central_router_clock_model_builds(self):
        cfg = preset("CB").with_(include_clock=True)
        result = Orion(cfg).run_uniform(0.02, FAST)
        assert result.power_breakdown_w()[ev.CLOCK] > 0

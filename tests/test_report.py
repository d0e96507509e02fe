"""Unit tests for result reporting."""

import pytest

from repro.core.report import (
    SweepPoint,
    SweepResult,
    breakdown_table,
    comparison_table,
    format_power,
    spatial_table,
)
from repro.core.config import RunProtocol
from repro.sim.engine import Simulation
from repro.sim.traffic import UniformRandomTraffic
from repro.sim.topology import Torus

from tests.conftest import small_config


def quick_result():
    cfg = small_config("wormhole")
    traffic = UniformRandomTraffic(Torus(4), 0.02, seed=5)
    return Simulation(cfg, traffic, RunProtocol(
        warmup_cycles=80, sample_packets=30)).run()


def point(rate, latency, power=1.0):
    return SweepPoint(rate=rate, avg_latency=latency, total_power_w=power,
                      throughput_flits_per_cycle=rate * 16 * 3,
                      breakdown_w={})


class TestFormatting:
    def test_format_power_prefixes(self):
        assert format_power(2.5) == "2.500 W"
        assert format_power(0.0025) == "2.500 mW"
        assert format_power(2.5e-6) == "2.500 uW"
        assert format_power(2.5e-9) == "2.500 nW"

    def test_format_power_rejects_negative(self):
        with pytest.raises(ValueError):
            format_power(-1.0)


class TestTables:
    def test_breakdown_table_lists_components_and_total(self):
        table = breakdown_table(quick_result())
        for name in ("input_buffer", "crossbar", "arbiter", "link",
                     "total"):
            assert name in table

    def test_spatial_table_has_grid_shape(self):
        table = spatial_table(quick_result())
        lines = table.splitlines()
        assert len(lines) == 5  # 4 rows + x-axis labels
        assert lines[0].startswith("y=3")
        assert "x=0" in lines[-1]

    def test_comparison_table_aligns_rates(self):
        a = SweepResult("A", [point(0.01, 10.0), point(0.02, 12.0)])
        b = SweepResult("B", [point(0.02, 14.0)])
        table = comparison_table([a, b])
        assert "A" in table and "B" in table
        lines = table.splitlines()
        assert len(lines) == 3  # header + two rates
        assert "-" in lines[1]  # B missing at rate 0.01

    def test_comparison_table_rejects_empty(self):
        with pytest.raises(ValueError):
            comparison_table([])


class TestSweepResult:
    def test_zero_load_is_lowest_rate_point(self):
        sweep = SweepResult("X", [point(0.05, 30.0), point(0.01, 10.0)])
        assert sweep.zero_load_latency == 10.0

    def test_saturation_rate_uses_paper_criterion(self):
        sweep = SweepResult("X", [
            point(0.01, 10.0), point(0.05, 15.0), point(0.10, 21.0),
            point(0.15, 90.0)])
        assert sweep.saturation_rate() == 0.10

    def test_unsaturated_sweep(self):
        sweep = SweepResult("X", [point(0.01, 10.0), point(0.02, 11.0)])
        assert sweep.saturation_rate() is None

    def test_table_renders_all_points(self):
        sweep = SweepResult("X", [point(0.01, 10.0), point(0.02, 11.0)])
        text = sweep.table()
        assert "0.010" in text and "0.020" in text
        assert "saturation" in text

    def test_empty_sweep_zero_load_raises(self):
        with pytest.raises(ValueError):
            SweepResult("X").zero_load_latency

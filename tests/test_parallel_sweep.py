"""Tests for multiprocessing sweep execution."""

import pytest

from repro.core.config import RunProtocol
from repro.core.orion import Orion

from tests.conftest import small_config


class TestParallelSweep:
    def test_matches_serial_results(self):
        orion = Orion(small_config("wormhole"))
        protocol = RunProtocol(warmup_cycles=100, sample_packets=60, seed=3)
        serial = orion.sweep_uniform([0.02, 0.05], protocol)
        parallel = orion.sweep_uniform([0.02, 0.05], protocol, processes=2)
        assert parallel.rates == serial.rates
        for p, s in zip(parallel.points, serial.points):
            assert p.avg_latency == s.avg_latency
            assert p.total_power_w == pytest.approx(s.total_power_w)

    def test_broadcast_parallel(self):
        orion = Orion(small_config("vc"))
        sweep = orion.sweep_broadcast(
            9, [0.05, 0.10],
            RunProtocol(warmup_cycles=100, sample_packets=60), processes=2)
        assert len(sweep.points) == 2
        assert all(p.avg_latency > 0 for p in sweep.points)

    def test_keep_results_across_processes(self):
        orion = Orion(small_config("wormhole"))
        sweep = orion.sweep_uniform(
            [0.02], RunProtocol(warmup_cycles=100, sample_packets=40),
            processes=2, keep_results=True)
        result = sweep.points[0].result
        assert result is not None
        assert result.accountant is not None
        assert result.total_power_w > 0

    def test_empty_rates_rejected(self):
        with pytest.raises(ValueError):
            Orion(small_config("wormhole")).sweep_uniform(
                [], processes=2)

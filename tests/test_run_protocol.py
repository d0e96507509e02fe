"""Tests for RunProtocol, the single per-run measurement currency."""

import pytest

from repro.core.config import RunProtocol
from repro.core.orion import Orion

from tests.conftest import small_config


class TestRunProtocol:
    def test_defaults_match_paper(self):
        proto = RunProtocol()
        assert proto.warmup_cycles == 1000
        assert proto.sample_packets == 10000
        assert proto.collect_power and not proto.monitor

    @pytest.mark.parametrize("field,value", [
        ("warmup_cycles", -1),
        ("sample_packets", 0),
        ("max_cycles", 0),
        ("watchdog_cycles", 0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            RunProtocol(**{field: value})

    def test_with_replaces_fields(self):
        proto = RunProtocol().with_(seed=9, monitor=True)
        assert proto.seed == 9 and proto.monitor
        assert RunProtocol().seed == 1  # original untouched


class TestMonitorThroughFacade:
    """Bugfix: Orion.run*/run_uniform could not enable the occupancy
    monitor; RunProtocol(monitor=True) now threads it through."""

    def test_run_uniform_monitor(self):
        orion = Orion(small_config("wormhole"))
        result = orion.run_uniform(
            0.03, RunProtocol(warmup_cycles=100, sample_packets=40,
                              monitor=True))
        assert result.monitor is not None
        assert result.monitor.cycles > 0
        assert 0.0 < result.monitor.max_channel_utilization() <= 1.0

    def test_run_broadcast_monitor(self):
        orion = Orion(small_config("vc"))
        result = orion.run_broadcast(
            9, 0.1, RunProtocol(warmup_cycles=100, sample_packets=40,
                                monitor=True))
        assert result.monitor is not None

    def test_monitor_off_by_default(self):
        orion = Orion(small_config("wormhole"))
        result = orion.run_uniform(0.03, RunProtocol(warmup_cycles=50,
                                                     sample_packets=20))
        assert result.monitor is None

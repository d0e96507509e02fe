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
        assert proto.collect_power and not proto.telemetry_window

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
        proto = RunProtocol().with_(seed=9, telemetry_window=50)
        assert proto.seed == 9 and proto.telemetry_window == 50
        assert RunProtocol().seed == 1  # original untouched

    def test_monitor_field_is_gone(self):
        """Utilisation and occupancy ride the telemetry record."""
        with pytest.raises(TypeError, match="monitor"):
            RunProtocol(monitor=True)


class TestTelemetryThroughFacade:
    """Orion.run* thread the protocol's telemetry window, and with it
    the channel-utilisation and occupancy columns, through."""

    def test_run_uniform_telemetry(self):
        orion = Orion(small_config("wormhole"))
        result = orion.run_uniform(
            0.03, RunProtocol(warmup_cycles=100, sample_packets=40,
                              telemetry_window=50))
        record = result.telemetry
        assert record.measured_cycles == result.measured_cycles > 0
        assert 0.0 < record.max_channel_utilization() <= 1.0

    def test_run_broadcast_telemetry(self):
        orion = Orion(small_config("vc"))
        result = orion.run_broadcast(
            9, 0.1, RunProtocol(warmup_cycles=100, sample_packets=40,
                                telemetry_window=50))
        assert max(result.telemetry.occupancy_peaks()) > 0

    def test_telemetry_off_by_default(self):
        orion = Orion(small_config("wormhole"))
        result = orion.run_uniform(0.03, RunProtocol(warmup_cycles=50,
                                                     sample_packets=20))
        assert result.telemetry is None

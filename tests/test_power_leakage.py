"""Unit tests for the static-power extension (Butts-Sohi model)."""

import pytest

from repro import Orion, RunProtocol, preset
from repro.power import (
    CentralBufferPower,
    FIFOBufferPower,
    FlipFlopPower,
    MatrixArbiterPower,
    MatrixCrossbarPower,
    MuxTreeCrossbarPower,
    QueuingArbiterPower,
    RoundRobinArbiterPower,
)
from repro.power import leakage
from repro.tech import Technology


FAST = RunProtocol(warmup_cycles=200, sample_packets=60)


def tech(feature=0.1):
    return Technology(feature, vdd=1.2, frequency_hz=1e9)


class TestStaticPowerFormula:
    def test_linear_in_width(self):
        t = tech()
        assert leakage.static_power(t, 200.0) == pytest.approx(
            2 * leakage.static_power(t, 100.0))

    def test_grows_with_smaller_nodes(self):
        """Leakage per um rises steeply as the process scales."""
        width = 1000.0
        assert leakage.static_power(tech(0.07), width) > \
            10 * leakage.static_power(tech(0.18), width)

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            leakage.static_power(tech(), -1.0)


class TestInventories:
    def test_buffer_width_scales_with_cells(self):
        t = tech()
        small = FIFOBufferPower(t, depth_flits=16, flit_bits=32)
        big = FIFOBufferPower(t, depth_flits=64, flit_bits=32)
        assert leakage.buffer_width_um(big) > \
            3 * leakage.buffer_width_um(small)

    def test_crossbar_width_scales_with_radix(self):
        t = tech()
        small = MatrixCrossbarPower(t, 3, 3, 32)
        big = MatrixCrossbarPower(t, 6, 6, 32)
        assert leakage.crossbar_width_um(big) > \
            2 * leakage.crossbar_width_um(small)

    def test_mux_tree_leaks_less_than_matrix(self):
        t = tech()
        mx = MatrixCrossbarPower(t, 8, 8, 64)
        mt = MuxTreeCrossbarPower(t, 8, 8, 64)
        assert leakage.crossbar_width_um(mt) < leakage.crossbar_width_um(mx)

    def test_arbiter_inventories_cover_all_types(self):
        t = tech()
        for cls in (MatrixArbiterPower, RoundRobinArbiterPower,
                    QueuingArbiterPower):
            width = leakage.arbiter_width_um(cls(t, requesters=4))
            assert width > 0

    def test_matrix_arbiter_state_grows_quadratically(self):
        t = tech()
        small = leakage.arbiter_width_um(MatrixArbiterPower(t, requesters=4))
        big = leakage.arbiter_width_um(MatrixArbiterPower(t, requesters=16))
        assert big > 8 * small

    def test_central_buffer_includes_subcomponents(self):
        t = tech()
        model = CentralBufferPower(t, rows=256, banks=4, flit_bits=32)
        total = leakage.central_buffer_width_um(model)
        assert total > leakage.buffer_width_um(model.bank_model)

    def test_flipflop_width_positive(self):
        assert leakage.flipflop_width_um(FlipFlopPower(tech())) > 0

    def test_unknown_model_rejected(self):
        with pytest.raises(TypeError):
            leakage.crossbar_width_um(object())
        with pytest.raises(TypeError):
            leakage.arbiter_width_um(object())


class TestEndToEnd:
    def test_leakage_adds_idle_floor(self):
        """With leakage on, a nearly idle network still burns power in
        buffers; with it off, idle power is only the links."""
        base = preset("VC16")
        with_leak = base.with_(include_leakage=True)
        rate = 0.01
        off = Orion(base).run_uniform(rate, FAST)
        on = Orion(with_leak).run_uniform(rate, FAST)
        assert on.total_power_w > off.total_power_w

    def test_leakage_is_rate_independent(self):
        cfg = preset("VC16").with_(include_leakage=True)
        slow = Orion(cfg).run_uniform(0.01, FAST)
        base = preset("VC16")
        slow_off = Orion(base).run_uniform(0.01, FAST)
        static = slow.total_power_w - slow_off.total_power_w
        fast = Orion(cfg).run_uniform(0.08, FAST)
        fast_off = Orion(base).run_uniform(0.08, FAST)
        static_fast = fast.total_power_w - fast_off.total_power_w
        assert static == pytest.approx(static_fast, rel=0.05)

    def test_event_counts_unchanged_by_leakage(self):
        from repro.core import events as ev
        cfg = preset("VC16").with_(include_leakage=True)
        result = Orion(cfg).run_uniform(0.02, FAST)
        base = Orion(preset("VC16")).run_uniform(0.02, FAST)
        assert result.accountant.event_count(ev.BUFFER_WRITE) == \
            base.accountant.event_count(ev.BUFFER_WRITE)

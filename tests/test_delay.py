"""Unit tests for the Peh-Dally-style router delay model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import preset
from repro.delay import (
    RouterDelayModel,
    arbiter_delay_fo4,
    buffer_access_delay_fo4,
    crossbar_delay_fo4,
    fo4_to_ps,
    inverter,
    mux,
    nand,
    nor,
    path_delay_tau,
    switch_allocation_delay_fo4,
    tau_to_fo4,
    vc_allocation_delay_fo4,
)


class TestLogicalEffort:
    def test_fo4_inverter_is_five_tau(self):
        # d = g*h + p = 1*4 + 1 = 5 tau = 1 FO4.
        d = path_delay_tau([inverter()], electrical=4.0)
        assert tau_to_fo4(d) == pytest.approx(1.0)

    def test_gate_efforts(self):
        assert nand(2).effort == pytest.approx(4 / 3)
        assert nor(2).effort == pytest.approx(5 / 3)
        assert mux(4).effort == 2.0
        assert nand(3).parasitic == 3.0

    def test_delay_grows_with_effort(self):
        base = path_delay_tau([inverter(), nand(2)])
        loaded = path_delay_tau([inverter(), nand(2)], electrical=8.0)
        branched = path_delay_tau([inverter(), nand(2)], branching=4.0)
        assert loaded > base
        assert branched > base

    def test_validation(self):
        with pytest.raises(ValueError):
            path_delay_tau([])
        with pytest.raises(ValueError):
            path_delay_tau([inverter()], branching=0.5)
        with pytest.raises(ValueError):
            path_delay_tau([inverter()], electrical=0.0)
        with pytest.raises(ValueError):
            nand(0)

    def test_fo4_ps_scaling(self):
        # An FO4 is ~36 ps at 0.1 um and halves with the feature size.
        assert fo4_to_ps(1.0, 0.1) == pytest.approx(36.0)
        assert fo4_to_ps(1.0, 0.05) == pytest.approx(18.0)
        with pytest.raises(ValueError):
            fo4_to_ps(1.0, 0.0)


class TestFunctionDelays:
    def test_arbiter_delay_grows_with_requesters(self):
        delays = [arbiter_delay_fo4(r) for r in (2, 4, 8, 16, 32)]
        assert delays == sorted(delays)

    def test_va_slower_than_sa(self):
        """VA arbitrates over (P-1)*V requesters, SA over at most P-1."""
        assert vc_allocation_delay_fo4(5, 8) > \
            switch_allocation_delay_fo4(5, 8)

    def test_sa_with_vcs_adds_a_stage(self):
        assert switch_allocation_delay_fo4(5, 4) > \
            switch_allocation_delay_fo4(5, 1)

    def test_crossbar_delay_grows_with_ports_and_width(self):
        assert crossbar_delay_fo4(8, 64) > crossbar_delay_fo4(4, 64)
        assert crossbar_delay_fo4(5, 256) > crossbar_delay_fo4(5, 32)

    def test_buffer_delay_grows_with_array(self):
        assert buffer_access_delay_fo4(256, 64) > \
            buffer_access_delay_fo4(16, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            arbiter_delay_fo4(0)
        with pytest.raises(ValueError):
            vc_allocation_delay_fo4(1, 2)
        with pytest.raises(ValueError):
            crossbar_delay_fo4(5, 0)
        with pytest.raises(ValueError):
            buffer_access_delay_fo4(0, 8)


class TestRouterDelayModel:
    def test_pipeline_depths_match_the_paper(self):
        """Section 4.2: VC routers fit a 3-stage pipeline, wormhole a
        2-stage one."""
        assert RouterDelayModel(preset("WH64")).pipeline_depth == 2
        assert RouterDelayModel(preset("VC16")).pipeline_depth == 3
        assert RouterDelayModel(preset("CB")).pipeline_depth == 2

    def test_wormhole_cycle_shorter_than_vc(self):
        wh = RouterDelayModel(preset("WH64"))
        vc = RouterDelayModel(preset("VC64"))
        assert wh.min_cycle_fo4() < vc.min_cycle_fo4()

    def test_xb_sustains_its_configured_1ghz(self):
        model = RouterDelayModel(preset("XB"))
        assert model.fits_frequency(1.0e9)

    def test_more_vcs_slow_the_allocator(self):
        vc16 = RouterDelayModel(preset("VC16"))
        vc64 = RouterDelayModel(preset("VC64"))
        assert vc64.delays.vc_allocation > vc16.delays.vc_allocation
        assert vc64.max_frequency_hz() < vc16.max_frequency_hz()

    def test_max_frequency_plausible_at_point_one_micron(self):
        for name in ("WH64", "VC16", "VC64", "CB", "XB"):
            f = RouterDelayModel(preset(name)).max_frequency_hz()
            assert 0.5e9 < f < 20e9, name

    def test_report_mentions_all_stages(self):
        report = RouterDelayModel(preset("VC16")).report()
        for token in ("VA", "SA", "ST", "GHz"):
            assert token in report


class TestLogicalEffortProperties:
    @given(st.integers(1, 8), st.floats(1.0, 64.0), st.floats(0.1, 64.0))
    @settings(max_examples=60)
    def test_path_delay_positive_and_monotone_in_effort(self, n, b, h):
        gates = [inverter()] * n
        base = path_delay_tau(gates, branching=b, electrical=h)
        more = path_delay_tau(gates, branching=b * 2, electrical=h)
        assert base > 0
        assert more > base

    @given(st.integers(1, 16))
    @settings(max_examples=30)
    def test_wider_gates_slower(self, fan_in):
        base = path_delay_tau([nand(fan_in)])
        wider = path_delay_tau([nand(fan_in + 1)])
        assert wider > base
        assert path_delay_tau([nor(fan_in + 1)]) > \
            path_delay_tau([nor(fan_in)])

    @given(st.integers(2, 64), st.integers(2, 64))
    @settings(max_examples=40)
    def test_router_function_delays_monotone(self, a, b):
        lo, hi = sorted((a, b))
        if lo == hi:
            return
        assert arbiter_delay_fo4(hi) > arbiter_delay_fo4(lo)
        assert crossbar_delay_fo4(5, hi * 8) >= crossbar_delay_fo4(
            5, lo * 8)
        assert buffer_access_delay_fo4(hi * 8, 32) >= \
            buffer_access_delay_fo4(lo * 8, 32)

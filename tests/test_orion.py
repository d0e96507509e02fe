"""Unit tests for the Orion facade."""

import pytest

from repro import Orion, RunProtocol, preset
from repro.core.presets import walkthrough_router
from repro.core.report import SweepResult
from repro.power import (
    FIFOBufferPower,
    MatrixArbiterPower,
    MatrixCrossbarPower,
    OnChipLinkPower,
)
from repro.tech import Technology

from tests.conftest import small_config


def orion(kind="wormhole", **kwargs):
    return Orion(small_config(kind, **kwargs))


class TestRuns:
    def test_run_uniform(self):
        result = orion().run_uniform(
            0.02, RunProtocol(warmup_cycles=100, sample_packets=40))
        assert result.sample_packets == 40
        assert result.total_power_w > 0

    def test_run_broadcast(self):
        result = orion().run_broadcast(
            source=6, rate=0.15,
            protocol=RunProtocol(warmup_cycles=100, sample_packets=40))
        assert result.sample_packets == 40
        # Only node 6 injects: its router sees every buffer write first.
        powers = result.node_power_w()
        assert powers[6] == max(powers)

    def test_collect_power_false(self):
        result = orion().run_uniform(
            0.02, RunProtocol(warmup_cycles=50, sample_packets=20,
                              collect_power=False))
        assert result.accountant is None


class TestSweep:
    def test_sweep_uniform_produces_curve(self):
        sweep = orion().sweep_uniform(
            [0.01, 0.03], RunProtocol(warmup_cycles=80, sample_packets=30),
            label="test")
        assert isinstance(sweep, SweepResult)
        assert sweep.rates == [0.01, 0.03]
        assert len(sweep.latencies) == 2
        assert all(p > 0 for p in sweep.powers)

    def test_power_rises_with_rate(self):
        sweep = orion().sweep_uniform(
            [0.01, 0.05], RunProtocol(warmup_cycles=100, sample_packets=60))
        assert sweep.points[1].total_power_w > sweep.points[0].total_power_w

    def test_sweep_rejects_empty_rates(self):
        with pytest.raises(ValueError):
            orion().sweep_uniform([])

    def test_keep_results(self):
        sweep = orion().sweep_uniform(
            [0.01], RunProtocol(warmup_cycles=50, sample_packets=20),
            keep_results=True)
        assert sweep.points[0].result is not None


class TestWalkthrough:
    def test_flit_energy_decomposition(self):
        """Section 3.3: E_flit = E_wrt + E_arb + E_read + E_xb + E_link."""
        energies = Orion(preset("WH64")).flit_energy_walkthrough()
        parts = ("E_wrt", "E_arb", "E_read", "E_xb", "E_link")
        assert set(parts) <= set(energies)
        assert energies["E_flit"] == pytest.approx(
            sum(energies[p] for p in parts))
        assert all(energies[p] > 0 for p in parts)

    def test_walkthrough_matches_standalone_models(self):
        """The facade's E_flit terms are the section 3.3 router's
        standalone power models: 4-flit 32-bit FIFO, 4:1 matrix arbiter
        driving the 5x5 crossbar's control lines, 3 mm on-chip link."""
        tech = Technology(0.1, vdd=1.2, frequency_hz=2e9)
        buffer = FIFOBufferPower(tech, depth_flits=4, flit_bits=32)
        xbar = MatrixCrossbarPower(tech, 5, 5, 32)
        arbiter = MatrixArbiterPower(
            tech, requesters=4,
            xbar_control_energy=xbar.control_line_energy)
        link = OnChipLinkPower(tech, length_mm=3.0, width_bits=32)
        energies = Orion(walkthrough_router()).flit_energy_walkthrough()
        assert energies["E_wrt"] == pytest.approx(buffer.write_energy())
        assert energies["E_arb"] == pytest.approx(
            arbiter.arbitration_energy(1))
        assert energies["E_read"] == pytest.approx(buffer.read_energy())
        assert energies["E_xb"] == pytest.approx(xbar.traversal_energy())
        assert energies["E_link"] == pytest.approx(link.traversal_energy())

    def test_arbiter_is_smallest_term(self):
        energies = Orion(preset("WH64")).flit_energy_walkthrough()
        assert energies["E_arb"] == min(
            v for k, v in energies.items() if k != "E_flit")

    def test_power_models_standalone(self):
        binding = Orion(preset("VC16")).power_models()
        assert binding.buffer_model.read_energy() > 0
        assert binding.crossbar_model.traversal_energy() > 0

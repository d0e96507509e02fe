"""Tests for the extension features: extra traffic patterns, bus-invert
link coding, and dateline deadlock avoidance on larger tori."""

import pytest

from repro import Orion, RunProtocol, preset
from repro.core import events as ev
from repro.core.config import LinkConfig
from repro.power import BusInvertLinkPower, OnChipLinkPower
from repro.sim.network import Network
from repro.sim.topology import Torus
from repro.sim.traffic import (
    BurstyTraffic,
    ShuffleTraffic,
    TornadoTraffic,
    UniformRandomTraffic,
)
from repro.tech import Technology

from tests.conftest import small_config


def drain(pattern, cycles):
    pairs = []
    for c in range(cycles):
        pairs.extend(pattern.packets_at(c))
    return pairs


class TestTornado:
    def test_fixed_halfway_destinations(self):
        topo = Torus(4)
        pattern = TornadoTraffic(topo, rate=1.0, seed=3)
        for src, dst in drain(pattern, 5):
            sx, sy = topo.coords(src)
            dx, dy = topo.coords(dst)
            assert dx == (sx + 1) % 4
            assert dy == (sy + 1) % 4

    def test_rate_respected(self):
        pattern = TornadoTraffic(Torus(4), rate=0.1, seed=3)
        count = len(drain(pattern, 4000))
        assert count / (16 * 4000) == pytest.approx(0.1, rel=0.15)


class TestShuffle:
    def test_bit_rotation(self):
        topo = Torus(4)
        pattern = ShuffleTraffic(topo, rate=1.0, seed=3)
        for src, dst in drain(pattern, 3):
            expected = ((src << 1) | (src >> 3)) & 0xF
            assert dst == expected

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            ShuffleTraffic(Torus(3, 4), rate=0.5)


class TestBursty:
    def test_average_rate_preserved(self):
        pattern = BurstyTraffic(Torus(4), rate=0.05, burst_length=10,
                                duty_cycle=0.25, seed=3)
        count = len(drain(pattern, 30000))
        assert count / (16 * 30000) == pytest.approx(0.05, rel=0.15)

    def test_burstier_than_uniform(self):
        """The ON/OFF modulation correlates arrivals over time, so
        injection counts aggregated over windows show a much higher
        variance than the memoryless Bernoulli process at equal rate
        (marginal per-cycle variance is identical by construction)."""
        def windowed_variance(pattern, window=20, cycles=40000):
            counts = []
            for start in range(0, cycles, window):
                total = 0
                for c in range(start, start + window):
                    total += len(pattern.packets_at(c))
                counts.append(total)
            mean = sum(counts) / len(counts)
            return sum((c - mean) ** 2 for c in counts) / len(counts)

        bursty = windowed_variance(
            BurstyTraffic(Torus(4), 0.05, burst_length=20,
                          duty_cycle=0.2, seed=3))
        uniform = windowed_variance(
            UniformRandomTraffic(Torus(4), 0.05, seed=3))
        assert bursty > 2.0 * uniform

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyTraffic(Torus(4), rate=0.5, duty_cycle=0.25)  # on-rate 2
        with pytest.raises(ValueError):
            BurstyTraffic(Torus(4), rate=0.1, burst_length=0.5)
        with pytest.raises(ValueError):
            BurstyTraffic(Torus(4), rate=0.1, duty_cycle=0.0)

    def test_end_to_end_delivery(self):
        net = Network(small_config("vc"))
        pattern = BurstyTraffic(net.topo, 0.05, seed=3)
        created = []
        for _ in range(400):
            for src, dst in pattern.packets_at(net.cycle):
                created.append(net.create_packet(src, dst, net.cycle))
            net.step()
        for _ in range(400):
            net.step()
        assert created
        assert all(p.eject_cycle is not None for p in created)


class TestBusInvert:
    def tech(self):
        return Technology(0.1, vdd=1.2, frequency_hz=2e9)

    def test_coded_never_worse_than_half_plus_one(self):
        link = BusInvertLinkPower(self.tech(), length_mm=3.0,
                                  width_bits=64)
        worst = link.traversal_energy(0, (1 << 64) - 1)
        assert worst == pytest.approx((0 + 1) * link.bit_energy)
        half = link.traversal_energy(0, (1 << 32) - 1)
        assert half <= (32 + 1) * link.bit_energy

    def test_average_mode_below_uncoded(self):
        plain = OnChipLinkPower(self.tech(), length_mm=3.0, width_bits=256)
        coded = BusInvertLinkPower(self.tech(), length_mm=3.0,
                                   width_bits=256)
        assert coded.traversal_energy() < plain.traversal_energy()
        # Theory: expected coded switches = W/2 - E|d - W/2| + 1.
        assert coded.expected_coded_switches < 128 + 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(kind="chip_to_chip", encoding="bus_invert")
        with pytest.raises(ValueError):
            LinkConfig(encoding="gray")

    def test_end_to_end_link_power_savings_on_inverted_data(self):
        """Simulated with payload tracking, bus-invert reduces link
        energy; every other component is untouched."""
        base = small_config("wormhole").with_(activity_mode="data")
        coded = base.with_(link=LinkConfig(kind="on_chip", length_mm=1.0,
                                           encoding="bus_invert"))
        def run(cfg):
            return Orion(cfg).run_uniform(
                0.05, RunProtocol(warmup_cycles=200, sample_packets=150))
        plain_result = run(base)
        coded_result = run(coded)
        plain_b = plain_result.power_breakdown_w()
        coded_b = coded_result.power_breakdown_w()
        assert coded_b[ev.LINK] < plain_b[ev.LINK]
        assert coded_b[ev.INPUT_BUFFER] == pytest.approx(
            plain_b[ev.INPUT_BUFFER], rel=0.02)


class TestDatelineAtLargerRadix:
    def test_8x8_torus_dateline_delivers_under_load(self):
        """Radix-8 tori need dateline classes (avoid_wrap only covers
        radix <= 4); the VC router must deliver heavy traffic without
        deadlock."""
        cfg = small_config("vc", num_vcs=4,
                           vc_class_mode="dateline").with_(
            width=8, height=8, tie_break="even")
        net = Network(cfg)
        pattern = UniformRandomTraffic(net.topo, 0.10, seed=5)
        created = []
        for _ in range(300):
            for src, dst in pattern.packets_at(net.cycle):
                created.append(net.create_packet(src, dst, net.cycle))
            net.step()
        for _ in range(2500):
            net.step()
            if all(p.eject_cycle is not None for p in created):
                break
        net.audit()
        assert len(created) > 300
        assert all(p.eject_cycle is not None for p in created)

"""Property-based tests (hypothesis) on power-model invariants."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import events as ev
from repro.core.config import LinkConfig
from repro.core.events import EnergyAccountant
from repro.core.power_binding import PowerBinding
from repro.power import (
    BusInvertLinkPower,
    CentralBufferPower,
    FIFOBufferPower,
    MatrixArbiterPower,
    MatrixCrossbarPower,
    MuxTreeCrossbarPower,
    OnChipLinkPower,
    expected_switches,
    hamming_distance,
    popcount,
)
from repro.tech import Technology

from tests.conftest import small_config

features = st.sampled_from([0.35, 0.25, 0.18, 0.13, 0.10, 0.07])
depths = st.integers(min_value=1, max_value=512)
widths = st.integers(min_value=1, max_value=512)
ports = st.integers(min_value=1, max_value=4)


def tech(feature):
    return Technology(feature)


class TestHamming:
    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=2**64 - 1))
    def test_symmetric(self, a, b):
        assert hamming_distance(a, b) == hamming_distance(b, a)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_identity_is_zero(self, a):
        assert hamming_distance(a, a) == 0

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_triangle_inequality(self, a, b, c):
        assert hamming_distance(a, c) <= (
            hamming_distance(a, b) + hamming_distance(b, c))

    @given(st.integers(min_value=1, max_value=256))
    def test_expected_switches_default_is_half_width(self, width):
        assert expected_switches(width, None, None) == width / 2

    @given(st.integers(min_value=1, max_value=64), st.data())
    def test_expected_switches_bounded_by_width(self, width, data):
        a = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        b = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        assert 0 <= expected_switches(width, a, b) <= width


def _reference_popcount(value):
    """Set bits counted one at a time by shift and mask: a reference
    independent of the library's popcount primitive."""
    count = 0
    while value:
        count += value & 1
        value >>= 1
    return count


#: One bit, the paper presets' 256-bit flit, and two wider words.
REFERENCE_WIDTHS = st.sampled_from([1, 256, 1024, 4096])


class TestPopcountReference:
    @given(REFERENCE_WIDTHS, st.data())
    def test_popcount_matches_bit_loop(self, width, data):
        value = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        assert popcount(value) == _reference_popcount(value)

    @given(REFERENCE_WIDTHS, st.data())
    def test_hamming_matches_bit_loop(self, width, data):
        a = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        b = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        assert hamming_distance(a, b) == _reference_popcount(a ^ b)

    @given(st.integers(max_value=-1), st.integers(min_value=0))
    def test_negative_operands_raise(self, negative, value):
        with pytest.raises(ValueError):
            popcount(negative)
        with pytest.raises(ValueError):
            hamming_distance(negative, value)
        with pytest.raises(ValueError):
            hamming_distance(value, negative)

    @pytest.mark.parametrize("encoding", ["none", "bus_invert"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_binding_sums_reference_distances(self, seed, encoding):
        """Random 256-bit payloads at one link site and one buffer site:
        the binding's integer switching sums equal the summed reference
        distances, folded to ``min(d, 256 - d)`` on a bus-invert link
        only."""
        width = 256
        rng = random.Random(seed)
        # Distances 128, 129, 127 and 256 first: both sides of the fold.
        payloads = [0]
        for flips in (2**128 - 1, 2**129 - 1, 2**127 - 1, 2**width - 1):
            payloads.append(payloads[-1] ^ flips)
        payloads += [rng.getrandbits(width) for _ in range(200)]
        cfg = small_config("vc", flit_bits=width).with_(
            activity_mode="data",
            link=LinkConfig(kind="on_chip", length_mm=1.0,
                            encoding=encoding))
        binding = PowerBinding(cfg, EnergyAccountant(cfg.num_nodes))
        node, port = 5, 2
        for payload in payloads:
            binding.link_traversal(node, port, payload)
            binding.buffer_write(node, port, payload)
        distances = [_reference_popcount(a ^ b)
                     for a, b in zip(payloads, payloads[1:])]
        folded = [min(d, width - d) for d in distances] \
            if encoding == "bus_invert" else distances
        # Per event: (last payloads, observed per node, switched per
        # node, fold width).
        _, observed, switched, _ = binding._sites[ev.LINK_TRAVERSAL]
        assert observed[node] == len(distances)
        assert switched[node] == sum(folded)
        _, observed, switched, _ = binding._sites[ev.BUFFER_WRITE]
        assert observed[node] == len(distances)
        assert switched[node] == sum(distances)


class TestBufferProperties:
    @settings(max_examples=40)
    @given(features, depths, widths, ports, ports)
    def test_energies_positive_and_finite(self, f, depth, width, pr, pw):
        buf = FIFOBufferPower(tech(f), depth_flits=depth, flit_bits=width,
                              read_ports=pr, write_ports=pw)
        for energy in (buf.read_energy(), buf.write_energy()):
            assert energy > 0
            assert math.isfinite(energy)

    @settings(max_examples=30)
    @given(features, depths, widths)
    def test_read_energy_monotone_in_width(self, f, depth, width):
        t = tech(f)
        narrow = FIFOBufferPower(t, depth_flits=depth, flit_bits=width)
        wide = FIFOBufferPower(t, depth_flits=depth, flit_bits=width + 8)
        assert wide.read_energy() > narrow.read_energy()

    @settings(max_examples=30)
    @given(features, depths, widths)
    def test_read_energy_monotone_in_depth(self, f, depth, width):
        t = tech(f)
        shallow = FIFOBufferPower(t, depth_flits=depth, flit_bits=width)
        deep = FIFOBufferPower(t, depth_flits=depth + 8, flit_bits=width)
        assert deep.read_energy() > shallow.read_energy()

    @settings(max_examples=30)
    @given(features, depths, widths, ports)
    def test_more_ports_longer_lines(self, f, depth, width, p):
        t = tech(f)
        few = FIFOBufferPower(t, depth_flits=depth, flit_bits=width,
                              read_ports=p, write_ports=p)
        more = FIFOBufferPower(t, depth_flits=depth, flit_bits=width,
                               read_ports=p + 1, write_ports=p + 1)
        assert more.wordline_length_um > few.wordline_length_um
        assert more.bitline_length_um > few.bitline_length_um

    @settings(max_examples=30)
    @given(st.integers(min_value=2, max_value=64), st.data())
    def test_write_energy_bounded_by_full_flip(self, width, data):
        buf = FIFOBufferPower(tech(0.1), depth_flits=8, flit_bits=width)
        a = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        b = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        tracked = buf.write_energy(a, b)
        full = buf.write_energy(0, 2**width - 1)
        floor = buf.write_energy(a, a)
        assert floor <= tracked <= full


class TestCrossbarProperties:
    @settings(max_examples=40)
    @given(features, st.integers(2, 12), st.integers(2, 12),
           st.integers(1, 512))
    def test_matrix_energies_positive(self, f, i, o, w):
        xb = MatrixCrossbarPower(tech(f), inputs=i, outputs=o, width_bits=w)
        assert xb.traversal_energy() > 0
        assert xb.control_line_energy > 0

    @settings(max_examples=30)
    @given(features, st.integers(2, 12), st.integers(1, 256))
    def test_matrix_monotone_in_radix(self, f, radix, w):
        t = tech(f)
        small = MatrixCrossbarPower(t, inputs=radix, outputs=radix,
                                    width_bits=w)
        big = MatrixCrossbarPower(t, inputs=radix + 1, outputs=radix + 1,
                                  width_bits=w)
        assert big.traversal_energy() > small.traversal_energy()

    @settings(max_examples=30)
    @given(features, st.integers(2, 32), st.integers(1, 128))
    def test_mux_tree_never_beats_matrix_radix_growth(self, f, i, w):
        """Mux-tree traversal grows logarithmically with inputs, matrix
        linearly — the tree is never the more expensive of the two at
        large radix and equal width."""
        t = tech(f)
        mt = MuxTreeCrossbarPower(t, inputs=i, outputs=i, width_bits=w)
        mx = MatrixCrossbarPower(t, inputs=i, outputs=i, width_bits=w)
        assert mt.traversal_energy() <= mx.traversal_energy() * 1.5


class TestArbiterProperties:
    @settings(max_examples=40)
    @given(features, st.integers(1, 32), st.data())
    def test_energy_monotone_in_requests(self, f, r, data):
        arb = MatrixArbiterPower(tech(f), requesters=r)
        n = data.draw(st.integers(min_value=0, max_value=r - 1))
        assert arb.arbitration_energy(n + 1) >= arb.arbitration_energy(n)

    @settings(max_examples=40)
    @given(features, st.integers(1, 32))
    def test_energy_nonnegative(self, f, r):
        arb = MatrixArbiterPower(tech(f), requesters=r)
        for n in range(r + 1):
            assert arb.arbitration_energy(n) >= 0.0


class TestLinkProperties:
    @settings(max_examples=40)
    @given(features, st.floats(min_value=0.5, max_value=20.0),
           st.integers(1, 512))
    def test_on_chip_energy_scales_with_length_and_width(self, f, mm, w):
        t = tech(f)
        link = OnChipLinkPower(t, length_mm=mm, width_bits=w)
        double = OnChipLinkPower(t, length_mm=2 * mm, width_bits=w)
        assert double.traversal_energy() > link.traversal_energy()
        assert link.traversal_energy() > 0


def _data_dependent_models(t, width):
    """``(name, energy(old, new), folded)`` for every payload-dependent
    energy the simulator prices; ``folded`` marks the bus-invert link,
    whose switching count is ``min(d, W - d)``."""
    cb = CentralBufferPower(t, rows=64, banks=2, flit_bits=width)
    return [
        ("fifo_write",
         FIFOBufferPower(t, depth_flits=8, flit_bits=width).write_energy,
         False),
        ("matrix_crossbar",
         MatrixCrossbarPower(t, width_bits=width).traversal_energy, False),
        ("mux_tree_crossbar",
         MuxTreeCrossbarPower(t, width_bits=width).traversal_energy, False),
        ("on_chip_link",
         OnChipLinkPower(t, length_mm=1.0, width_bits=width)
         .traversal_energy, False),
        ("bus_invert_link",
         BusInvertLinkPower(t, length_mm=1.0, width_bits=width)
         .traversal_energy, True),
        ("cb_write", cb.write_energy, False),
        ("cb_read", cb.read_energy, False),
    ]


def _view_energy(binding, node, component):
    energies, _ = binding.telemetry_view()
    return energies[node][component]


class TestAffineInSwitching:
    """The premise of counter-based data-mode pricing: every
    data-dependent model is affine in one integer switching count ``s``,
    so ``(events, observed events, sum of s)`` per (node, event) prices a
    run exactly.  A non-affine model added later fails here."""

    @settings(max_examples=40)
    @given(features, st.integers(1, 96), st.data())
    def test_energy_is_affine_in_switched_bits(self, f, width, data):
        a = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        b = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        d = hamming_distance(a, b)
        for name, energy, folded in _data_dependent_models(tech(f), width):
            s = min(d, width - d) if folded else d
            e0 = energy(0, 0)
            affine = e0 + s * (energy(0, 1) - e0)
            assert math.isclose(energy(a, b), affine, rel_tol=1e-12), name

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 64), st.sampled_from(["matrix", "mux_tree"]),
           st.sampled_from(["none", "bus_invert"]), st.data())
    def test_binding_prices_the_models(self, width, crossbar, encoding,
                                       data):
        """Through the binding, an unobserved event costs the model's
        ``E(None, None)`` — the average-mode constant — and an observed
        one exactly ``E(old, new)``."""
        a = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        b = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        cfg = small_config("central", flit_bits=width,
                           crossbar_type=crossbar).with_(
            activity_mode="data",
            link=LinkConfig(kind="on_chip", length_mm=1.0,
                            encoding=encoding))
        binding = PowerBinding(cfg, EnergyAccountant(cfg.num_nodes))
        sites = [
            (lambda p: binding.buffer_write(0, 0, p), 0, ev.INPUT_BUFFER,
             binding.buffer_model.write_energy),
            (lambda p: binding.xbar_traversal(0, 1, p), 0, ev.CROSSBAR,
             binding.crossbar_model.traversal_energy),
            (lambda p: binding.link_traversal(0, 1, p), 0, ev.LINK,
             binding.link_model.traversal_energy),
            (lambda p: binding.cb_write(0, p), 0, ev.CENTRAL_BUFFER,
             binding.central_model.write_energy),
            (lambda p: binding.cb_read(1, p), 1, ev.CENTRAL_BUFFER,
             binding.central_model.read_energy),
        ]
        for sink, node, component, energy in sites:
            before = _view_energy(binding, node, component)
            sink(None)
            unobserved = _view_energy(binding, node, component) - before
            assert math.isclose(unobserved, energy(None, None),
                                rel_tol=1e-12), component
            sink(a)  # first sighting: still the average constant
            sink(b)
            priced = _view_energy(binding, node, component) - before
            expected = 2 * energy(None, None) + energy(a, b)
            assert math.isclose(priced, expected, rel_tol=1e-12), component

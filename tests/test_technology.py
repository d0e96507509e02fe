"""Unit tests for the technology substrate (Cg/Cd/Cw primitives)."""

import pytest

from repro.tech import Technology
from repro.tech import constants as k


def tech(feature=0.1, vdd=1.2, f=2e9):
    return Technology(feature, vdd=vdd, frequency_hz=f)


class TestConstruction:
    def test_explicit_operating_point(self):
        t = tech()
        assert t.feature_size_um == 0.1
        assert t.vdd == 1.2
        assert t.frequency_hz == 2e9

    def test_default_vdd_from_feature_size(self):
        t = Technology(0.1)
        assert t.vdd == k.DEFAULT_VDD_BY_FEATURE[0.10]

    def test_default_frequency_from_feature_size(self):
        t = Technology(0.18)
        assert t.frequency_hz == k.DEFAULT_FREQ_BY_FEATURE[0.18]

    def test_defaults_use_nearest_known_node(self):
        t = Technology(0.09)  # nearest table entry is 0.10
        assert t.vdd == k.DEFAULT_VDD_BY_FEATURE[0.10]

    def test_rejects_nonpositive_feature_size(self):
        with pytest.raises(ValueError):
            Technology(0.0)
        with pytest.raises(ValueError):
            Technology(-0.1)

    def test_rejects_nonpositive_vdd(self):
        with pytest.raises(ValueError):
            Technology(0.1, vdd=-1.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            Technology(0.1, vdd=1.2, frequency_hz=-5.0)

    def test_scale_relative_to_base(self):
        assert tech(0.1).scale == pytest.approx(0.1 / 0.8)
        assert Technology(0.8).scale == pytest.approx(1.0)


class TestGateCap:
    def test_matches_formula(self):
        t = tech()
        w = 2.0
        expected = k.CGATE_PER_AREA * w * t.leff_um + k.CPOLYWIRE_PER_UM * w
        assert t.gate_cap(w) == pytest.approx(expected)

    def test_pass_gate_uses_lower_per_area(self):
        t = tech()
        assert t.gate_cap(2.0, pass_gate=True) < t.gate_cap(2.0)

    def test_linear_in_width(self):
        t = tech()
        assert t.gate_cap(4.0) == pytest.approx(2.0 * t.gate_cap(2.0))

    def test_scales_down_with_feature_size(self):
        # Same drawn width, smaller Leff -> less gate cap.
        assert tech(0.07).gate_cap(2.0) < tech(0.18).gate_cap(2.0)


class TestDiffCap:
    def test_matches_formula(self):
        t = tech()
        w = 3.0
        dl = k.DIFF_LENGTH_FACTOR * t.feature_size_um
        expected = (k.CNDIFF_AREA * w * dl
                    + k.CNDIFF_SIDE * (w + 2 * dl)
                    + k.CNDIFF_OVERLAP * w)
        assert t.diff_cap(w) == pytest.approx(expected)

    def test_pmos_has_higher_area_cap(self):
        t = tech()
        assert t.diff_cap(3.0, pmos=True) > t.diff_cap(3.0)

    def test_monotone_in_width(self):
        t = tech()
        assert t.diff_cap(6.0) > t.diff_cap(3.0)

    def test_total_cap_is_gate_plus_diff(self):
        t = tech()
        assert t.total_cap(2.5) == pytest.approx(
            t.gate_cap(2.5) + t.diff_cap(2.5))


class TestWireCap:
    def test_linear_in_length(self):
        t = tech()
        assert t.wire_cap(200.0) == pytest.approx(2 * t.wire_cap(100.0))

    def test_bitline_layer_heavier_than_wordline(self):
        t = tech()
        assert t.wire_cap(100.0, layer="bit") > t.wire_cap(100.0, layer="word")

    def test_link_layer_reproduces_paper_value(self):
        # 1.08 pF per 3 mm at 0.1 um (section 4.2).
        t = tech(0.1)
        assert t.wire_cap(3000.0, layer="link") == pytest.approx(1.08e-12)

    def test_per_um_wire_cap_is_technology_independent(self):
        assert tech(0.07).wire_cap(100.0) == pytest.approx(
            tech(0.25).wire_cap(100.0))

    def test_zero_length_is_zero(self):
        assert tech().wire_cap(0.0) == 0.0

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            tech().wire_cap(-1.0)

    def test_rejects_unknown_layer(self):
        with pytest.raises(ValueError):
            tech().wire_cap(10.0, layer="copper")


class TestComposites:
    def test_inverter_cap_sums_both_devices(self):
        t = tech()
        total = t.inverter_cap(2.0, 4.0)
        assert total == pytest.approx(
            t.total_cap(2.0) + t.total_cap(4.0, pmos=True))

    def test_inverter_gate_plus_drain_equals_total(self):
        t = tech()
        assert t.inverter_gate_cap(2.0, 4.0) + t.inverter_drain_cap(2.0, 4.0) \
            == pytest.approx(t.inverter_cap(2.0, 4.0))

    def test_scaled_width_lookup(self):
        t = tech(0.1)
        base = k.BASE_WIDTHS["memcell_access"]
        assert t.scaled_width("memcell_access") == pytest.approx(
            base * 0.1 / 0.8)

    def test_scaled_width_unknown_name(self):
        with pytest.raises(KeyError):
            tech().scaled_width("flux_capacitor")

    def test_cell_geometry_scales(self):
        assert tech(0.1).cell_width_um == pytest.approx(
            k.BASE_CELL_WIDTH * 0.125)
        assert tech(0.1).wire_spacing_um == pytest.approx(
            k.BASE_WIRE_SPACING * 0.125)


class TestSwitchEnergy:
    def test_half_c_v_squared(self):
        t = tech(vdd=1.2)
        assert t.switch_energy(1e-12) == pytest.approx(0.5 * 1e-12 * 1.44)

    def test_quadratic_in_vdd(self):
        lo = Technology(0.1, vdd=1.0, frequency_hz=1e9)
        hi = Technology(0.1, vdd=2.0, frequency_hz=1e9)
        assert hi.switch_energy(1e-12) == pytest.approx(
            4.0 * lo.switch_energy(1e-12))

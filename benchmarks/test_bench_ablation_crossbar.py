"""Ablation: crossbar implementation choice (matrix vs multiplexer
tree).

The Appendix models both.  The matrix crossbar charges full crosspoint
rails per traversal; the mux tree charges a log-depth path.  Since the
crossbar is a dominant on-chip power consumer (Figure 5c), the choice
visibly moves total network power — this bench quantifies by how much.
"""

import pytest

from repro import Orion, preset
from repro.core import events as ev
from repro.power import MatrixCrossbarPower, MuxTreeCrossbarPower
from repro.tech import Technology

from conftest import PROTOCOL, SAMPLE


def test_crossbar_energy_scaling(benchmark):
    tech = Technology(0.1, vdd=1.2, frequency_hz=2e9)

    def table():
        out = {}
        for width in (32, 64, 128, 256, 512):
            mx = MatrixCrossbarPower(tech, 5, 5, width)
            mt = MuxTreeCrossbarPower(tech, 5, 5, width)
            out[width] = (mx.traversal_energy(), mt.traversal_energy())
        return out

    energies = benchmark(table)
    print("\n== Ablation: 5x5 crossbar traversal energy (pJ) ==")
    print(f"{'width':>6} {'matrix':>12} {'mux tree':>12} {'ratio':>8}")
    for width, (mx, mt) in energies.items():
        print(f"{width:>6} {mx * 1e12:>12.2f} {mt * 1e12:>12.2f} "
              f"{mx / mt:>8.2f}")
    assert all(mx > mt for mx, mt in energies.values())


def test_network_power_by_crossbar(benchmark):
    def run_both():
        results = {}
        for crossbar_type in ("matrix", "mux_tree"):
            cfg = preset("VC16").with_router(crossbar_type=crossbar_type)
            results[crossbar_type] = Orion(cfg).run_uniform(
                0.08, PROTOCOL.with_(sample_packets=min(SAMPLE, 400)))
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    shares = {}
    for crossbar_type, result in results.items():
        breakdown = result.power_breakdown_w()
        shares[crossbar_type] = (breakdown[ev.CROSSBAR]
                                 / sum(breakdown.values()))
        print(f"\ncrossbar={crossbar_type}: total "
              f"{result.total_power_w:.3f} W, crossbar share "
              f"{shares[crossbar_type]:.1%}")
    # Swapping the matrix fabric for a mux tree cuts both the crossbar
    # share and total network power — a sizeable end-to-end saving.
    assert shares["mux_tree"] < shares["matrix"]
    assert results["mux_tree"].total_power_w < \
        0.8 * results["matrix"].total_power_w

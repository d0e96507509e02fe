"""Ablation: process-technology scaling.

Re-evaluates the section 3.3 walkthrough flit energy across process
nodes from 0.35 um to 0.07 um, separating the Vdd^2 contribution from
geometric shrink, and re-runs a small network simulation at two nodes to
show end-to-end power scaling.
"""

import pytest

from repro import Orion, preset
from repro.core.config import TechConfig

from conftest import PROTOCOL, SAMPLE

NODES = (0.35, 0.25, 0.18, 0.13, 0.10, 0.07)


def test_flit_energy_across_nodes(benchmark):
    def table():
        out = {}
        for feature in NODES:
            cfg = preset("WH64").with_(tech=TechConfig(
                feature_size_um=feature, vdd=_default_vdd(feature),
                frequency_hz=1e9))
            out[feature] = Orion(cfg).flit_energy_walkthrough()
        return out

    energies = benchmark(table)
    print("\n== Ablation: walkthrough E_flit across process nodes ==")
    print(f"{'node um':>8} {'Vdd V':>6} {'E_flit pJ':>12}")
    for feature in NODES:
        print(f"{feature:>8} {_default_vdd(feature):>6.2f} "
              f"{energies[feature]['E_flit'] * 1e12:>12.2f}")
    flits = [energies[f]["E_flit"] for f in NODES]
    # Energy falls monotonically with feature size (Vdd^2 + geometry).
    assert flits == sorted(flits, reverse=True)
    # 0.35 um -> 0.07 um shrinks per-flit energy by more than 10x.
    assert flits[0] > 10 * flits[-1]


def _default_vdd(feature):
    from repro.tech.constants import DEFAULT_VDD_BY_FEATURE
    key = min(DEFAULT_VDD_BY_FEATURE, key=lambda f: abs(f - feature))
    return DEFAULT_VDD_BY_FEATURE[key]


@pytest.mark.parametrize("feature,vdd", [(0.18, 1.8), (0.07, 1.0)])
def test_network_power_across_nodes(benchmark, feature, vdd):
    cfg = preset("VC16").with_(tech=TechConfig(
        feature_size_um=feature, vdd=vdd, frequency_hz=1e9))

    def run():
        return Orion(cfg).run_uniform(
            0.05, PROTOCOL.with_(sample_packets=min(SAMPLE, 400)))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n{feature} um @ {vdd} V, 1 GHz: "
          f"{result.total_power_w:.3f} W network power")
    assert result.total_power_w > 0

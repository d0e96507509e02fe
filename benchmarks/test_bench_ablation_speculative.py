"""Ablation: speculative switch allocation (Peh-Dally architecture).

Compares the plain 3-stage VC router against the speculative 2-stage
variant at equal configuration: heads save one cycle per hop at low
load, throughput is preserved (speculation only fills idle crossbar
slots) and power is essentially unchanged.
"""

import pytest

from repro import Orion, preset

from conftest import PROTOCOL, SAMPLE

RATES = (0.02, 0.10, 0.15)


def _sweep(kind):
    cfg = preset("VC16")
    if kind == "speculative":
        cfg = cfg.with_router(kind="speculative_vc")
    return Orion(cfg).sweep_uniform(
        RATES, PROTOCOL.with_(sample_packets=min(SAMPLE, 500)), label=kind)


def test_speculative_vs_plain(benchmark):
    def both():
        return {kind: _sweep(kind) for kind in ("plain", "speculative")}

    sweeps = benchmark.pedantic(both, rounds=1, iterations=1)
    print("\n== Ablation: speculative VC router ==")
    print(f"{'rate':>8} {'plain lat':>10} {'spec lat':>10} "
          f"{'plain W':>9} {'spec W':>9}")
    for i, rate in enumerate(RATES):
        p = sweeps["plain"].points[i]
        s = sweeps["speculative"].points[i]
        print(f"{rate:>8.3f} {p.avg_latency:>10.2f} "
              f"{s.avg_latency:>10.2f} {p.total_power_w:>9.2f} "
              f"{s.total_power_w:>9.2f}")
    # One pipeline stage saved per router at low load: ~3 cycles over
    # an average 2-hop route plus ejection.
    low_gain = (sweeps["plain"].points[0].avg_latency
                - sweeps["speculative"].points[0].avg_latency)
    assert 2.0 <= low_gain <= 4.0
    # Speculation never hurts pre-saturation latency.
    for i in range(len(RATES) - 1):
        assert sweeps["speculative"].points[i].avg_latency <= \
            sweeps["plain"].points[i].avg_latency + 0.5
    # Power unchanged within 10% (same modules, same switching).
    for i in range(len(RATES)):
        assert sweeps["speculative"].points[i].total_power_w == \
            pytest.approx(sweeps["plain"].points[i].total_power_w,
                          rel=0.10)

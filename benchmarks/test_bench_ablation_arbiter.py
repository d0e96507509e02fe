"""Ablation: arbiter implementation choice.

The paper models three arbiter types (matrix, round-robin, queuing) and
observes that arbiter power is negligible (< 1% of node power).  This
bench quantifies the per-arbitration energy gap between the types across
requester counts and confirms that swapping the arbiter leaves total
network power essentially unchanged.
"""

import pytest

from repro import Orion, preset
from repro.core import events as ev
from repro.power import (
    MatrixArbiterPower,
    QueuingArbiterPower,
    RoundRobinArbiterPower,
)
from repro.tech import Technology

from conftest import PROTOCOL, SAMPLE

KINDS = {
    "matrix": MatrixArbiterPower,
    "round_robin": RoundRobinArbiterPower,
    "queuing": QueuingArbiterPower,
}


def test_arbiter_energy_by_type(benchmark):
    tech = Technology(0.1, vdd=1.2, frequency_hz=2e9)

    def table():
        return {
            (name, r): cls(tech, requesters=r).arbitration_energy(r)
            for name, cls in KINDS.items()
            for r in (2, 4, 8, 16, 32)
        }

    energies = benchmark(table)
    print("\n== Ablation: arbitration energy by type (pJ) ==")
    print(f"{'requesters':>10}" + "".join(f"{k:>14}" for k in KINDS))
    for r in (2, 4, 8, 16, 32):
        row = f"{r:>10}"
        for name in KINDS:
            row += f"{energies[(name, r)] * 1e12:>14.4f}"
        print(row)
    # Matrix state grows as R^2, round-robin as log R.
    assert energies[("matrix", 32)] > energies[("round_robin", 32)]


@pytest.mark.parametrize("arbiter_type", sorted(KINDS))
def test_network_power_insensitive_to_arbiter(benchmark, arbiter_type):
    """Figure 5(c)'s conclusion, as an end-to-end ablation: arbiter
    choice moves total network power by well under 1%."""
    cfg = preset("VC16").with_router(arbiter_type=arbiter_type)

    def run():
        return Orion(cfg).run_uniform(
            0.08, PROTOCOL.with_(sample_packets=min(SAMPLE, 400)))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    breakdown = result.power_breakdown_w()
    share = breakdown[ev.ARBITER] / sum(breakdown.values())
    print(f"\narbiter={arbiter_type}: total "
          f"{result.total_power_w:.3f} W, arbiter share {share:.4%}")
    assert share < 0.01

"""Figure 6: power spatial distribution under uniform versus broadcast
traffic (on-chip 4x4 torus, VC routers with 2 VCs x 8 flits).

Paper shape: (a) uniform random traffic at 0.2/16 per node gives a flat
distribution; (b) broadcast from node (1,2) at 0.2 makes the source the
hottest node, power decaying quickly with Manhattan distance, with the
y-first routing heating (1,1)/(1,3) above (0,2)/(2,2) and same-x nodes
matching.
"""

import pytest

from repro import Orion, preset
from repro.core.report import spatial_table
from repro.sim.topology import Torus

from conftest import PROTOCOL

TOTAL_RATE = 0.2


def config():
    # Balanced tie-breaks preserve torus symmetry for the spatial study.
    return preset("VC16").with_(tie_break="even")


def run_uniform():
    return Orion(config()).run_uniform(TOTAL_RATE / 16,
                                       PROTOCOL.with_(seed=7))


def run_broadcast():
    return Orion(config()).run_broadcast(9, TOTAL_RATE,
                                         PROTOCOL.with_(seed=7))


def test_fig6a_uniform_spatial(benchmark):
    result = benchmark.pedantic(run_uniform, rounds=1, iterations=1)
    print("\n== Figure 6(a): node power, uniform random 0.2/16 ==")
    print(spatial_table(result))
    powers = result.node_power_w()
    mean = sum(powers) / len(powers)
    print(f"max/mean {max(powers) / mean:.3f}, min/mean "
          f"{min(powers) / mean:.3f}")
    assert max(powers) < 1.4 * mean
    assert min(powers) > 0.6 * mean


def test_fig6b_broadcast_spatial(benchmark):
    result = benchmark.pedantic(run_broadcast, rounds=1, iterations=1)
    print("\n== Figure 6(b): node power, broadcast from (1,2) at 0.2 ==")
    print(spatial_table(result))
    topo = Torus(4)
    source = topo.node_at(1, 2)
    powers = result.node_power_w()
    assert powers[source] == max(powers)
    by_distance = {}
    for node, power in enumerate(powers):
        d = topo.manhattan_distance(source, node)
        by_distance.setdefault(d, []).append(power)
    means = {d: sum(v) / len(v) for d, v in by_distance.items()}
    print("power vs Manhattan distance: " + ", ".join(
        f"d={d}: {means[d] * 1e3:.1f} mW" for d in sorted(means)))
    # Power decays quickly with distance from the source.
    assert means[0] > means[1] > means[2]
    # Y-first routing: column neighbours hotter than row neighbours.
    column = powers[topo.node_at(1, 1)] + powers[topo.node_at(1, 3)]
    row = powers[topo.node_at(0, 2)] + powers[topo.node_at(2, 2)]
    assert column > row

"""Network occupancy/utilization monitoring.

An optional observer that accumulates:

* per-channel utilization (fraction of cycles a flit was in flight) —
  the load map behind saturation behaviour;
* per-router buffer occupancy (average and peak flits buffered);
* per-node ejection counts (accepted traffic distribution).

Utilization and ejection ride the network's maintained counters (each
channel counts its sends, the network counts per-node ejections), so
:meth:`NetworkMonitor.sample` never scans the channel list: a flit sent
during cycle *t* is exactly the flit a post-step busy scan would
observe after cycle *t* (single-cycle channels drain unconditionally at
*t*+1), so send-count deltas reproduce the per-cycle scan bit for bit.
Occupancy sampling reads the routers' O(1) maintained ``_buffered``
counters, visiting only the network's active set — retired routers hold
zero flits (an audited invariant).

Monitoring is opt-in (``Simulation(..., monitor=True)``).  The engine
calls :meth:`NetworkMonitor.begin` at the end of warm-up to baseline
the counters, then :meth:`NetworkMonitor.sample` once per measured
cycle.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.network import Network
from repro.sim.topology import PORT_NAMES


class NetworkMonitor:
    """Accumulates occupancy/utilization statistics for one network."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self._channels: List = []
        for router in network.routers:
            for channel in router.out_channels:
                if channel is not None:
                    self._channels.append(channel)
        self.cycles = 0
        n = len(network.routers)
        self._occupancy_sum = [0] * n
        self._occupancy_peak = [0] * n
        self.begin()

    def begin(self) -> None:
        """Baseline the maintained counters (the engine calls this at
        the end of warm-up, so deltas cover measured cycles only)."""
        self._sent_baseline = [ch.flits_sent for ch in self._channels]
        self._ejected_baseline = list(self.network.node_flits_ejected)

    def sample(self) -> None:
        """Record one cycle's occupancy (call once per measured cycle).

        Channel utilization and ejections need no per-cycle work — the
        network maintains those counters as the events happen."""
        self.cycles += 1
        occupancy_sum = self._occupancy_sum
        occupancy_peak = self._occupancy_peak
        routers = self.network.routers
        for node in self.network._active:
            buffered = routers[node]._buffered
            occupancy_sum[node] += buffered
            if buffered > occupancy_peak[node]:
                occupancy_peak[node] = buffered

    # --- queries ---------------------------------------------------------------

    def channel_utilization(self) -> Dict[Tuple[int, int], float]:
        """``(src_node, out_port) -> busy fraction`` for every channel."""
        if self.cycles == 0:
            raise ValueError("no cycles sampled yet")
        return {
            (ch.src_node, ch.src_port):
                (ch.flits_sent - base) / self.cycles
            for ch, base in zip(self._channels, self._sent_baseline)
        }

    def max_channel_utilization(self) -> float:
        """Utilization of the most loaded channel (the bottleneck)."""
        return max(self.channel_utilization().values())

    def mean_channel_utilization(self) -> float:
        """Average utilization across all channels."""
        utils = self.channel_utilization()
        return sum(utils.values()) / len(utils)

    def average_occupancy(self, node: int) -> float:
        """Mean flits buffered at one router."""
        if self.cycles == 0:
            raise ValueError("no cycles sampled yet")
        return self._occupancy_sum[node] / self.cycles

    def peak_occupancy(self, node: int) -> int:
        """Most flits ever buffered at one router."""
        return self._occupancy_peak[node]

    def ejection_counts(self) -> List[int]:
        """Flits ejected per node since :meth:`begin` — the accepted
        traffic distribution."""
        return [count - base for count, base
                in zip(self.network.node_flits_ejected,
                       self._ejected_baseline)]

    def hottest_channels(self, count: int = 5) -> List[Tuple[str, float]]:
        """The ``count`` most utilized channels, labelled for humans."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        utils = self.channel_utilization()
        ranked = sorted(utils.items(), key=lambda kv: -kv[1])[:count]
        out = []
        for (node, port), util in ranked:
            x, y = self.network.topo.coords(node)
            out.append((f"({x},{y}) {PORT_NAMES[port]}", util))
        return out

    def report(self) -> str:
        """Human-readable utilization/occupancy summary."""
        lines = [
            f"cycles sampled: {self.cycles}",
            f"channel utilization: mean "
            f"{self.mean_channel_utilization():.3f}, max "
            f"{self.max_channel_utilization():.3f}",
            "hottest channels:",
        ]
        for label, util in self.hottest_channels():
            lines.append(f"  {label:<16} {util:.3f}")
        occupancies = [self.average_occupancy(n)
                       for n in range(len(self.network.routers))]
        peaks = [self.peak_occupancy(n)
                 for n in range(len(self.network.routers))]
        ejected = self.ejection_counts()
        lines.append(
            f"buffer occupancy: avg {sum(occupancies) / len(occupancies):.2f} "
            f"flits/router, peak {max(peaks)} flits"
        )
        lines.append(f"flits ejected: {sum(ejected)} "
                     f"(max {max(ejected)} at one node)")
        return "\n".join(lines)

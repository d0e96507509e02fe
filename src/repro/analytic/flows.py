"""Analytic traffic flows: expected packet rates per (src, dst) pair.

Each registered traffic pattern declares its own *flow table*
(``TrafficPattern.flows()``): the expected packets/cycle from every
source to every destination per unit of rate, read from the tables its
generator samples.  :func:`flow_matrix` builds the pattern, scales that
table to the queried rate and routes it with the simulator's own
dimension-ordered routing (same topology, same tie-break).  The
resulting :class:`FlowMatrix` aggregates everything the latency and
power models need:

* per-channel flit loads (utilisation of every inter-router link),
* per-source injection-channel loads,
* per-router flit/packet throughputs,
* flow-weighted average hop count.

Channel loads are exact expectations of the simulator's own traffic —
the same destinations, the same routes — so analytic utilisation,
event rates and queueing corrections share the simulator's geometry
rather than approximating it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.config import NetworkConfig
from repro.sim.routing import dimension_ordered_route
from repro.sim.topology import LOCAL, topology_for
from repro.sim.traffic import make_traffic


@dataclass
class FlowMatrix:
    """Expected steady-state loads of one (config, traffic, rate) point.

    All rates are per cycle: ``channel_load``/``source_load`` in flits,
    ``router_packets`` in packets.  Built by :func:`flow_matrix`.
    """

    config: NetworkConfig
    #: Expected packets/cycle network-wide.
    injection_packets: float
    #: Flits/cycle on each directed inter-router channel.
    channel_load: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: Flits/cycle offered to each node's injection channel.
    source_load: List[float] = field(default_factory=list)
    #: Flits/cycle entering each router (injection + link arrivals).
    router_flits: List[float] = field(default_factory=list)
    #: Packets/cycle entering each router.
    router_packets: List[float] = field(default_factory=list)
    #: Flow-weighted mean hop count (router-to-router links per packet).
    avg_hops: float = 0.0

    @property
    def injection_flits(self) -> float:
        """Expected flits/cycle injected network-wide."""
        return self.injection_packets * self.config.packet_length_flits

    @property
    def link_flits(self) -> float:
        """Expected flits/cycle summed over all inter-router channels."""
        return sum(self.channel_load.values())

    @property
    def max_channel_load(self) -> float:
        """Highest per-channel flit load — the capacity bottleneck
        (includes injection channels, which also move one flit/cycle)."""
        loads = list(self.channel_load.values()) + list(self.source_load)
        return max(loads) if loads else 0.0

    def scaled(self, factor: float) -> "FlowMatrix":
        """The same flow geometry at ``factor`` times the rate (loads are
        linear in the injection rate).  At zero nothing flows, so the
        mean hop count is zero, as :func:`flow_matrix` gives at rate 0."""
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        return FlowMatrix(
            config=self.config,
            injection_packets=self.injection_packets * factor,
            channel_load={c: load * factor
                          for c, load in self.channel_load.items()},
            source_load=[load * factor for load in self.source_load],
            router_flits=[f * factor for f in self.router_flits],
            router_packets=[p * factor for p in self.router_packets],
            avg_hops=self.avg_hops if factor > 0 else 0.0,
        )


def flow_matrix(config: NetworkConfig, traffic: str = "uniform",
                rate: float = 1.0, **params) -> FlowMatrix:
    """Route a traffic kind's expected flows through ``config``'s
    topology and aggregate the per-channel / per-router loads."""
    if rate < 0:
        raise ValueError(f"injection rate must be >= 0, got {rate}")
    topo = topology_for(config)
    pattern = make_traffic(traffic, topo, 0.0, **params)
    if not hasattr(pattern, "flows"):
        raise ValueError(f"traffic {traffic!r} has no analytic flow model: "
                         f"{type(pattern).__name__} declares no flows()")
    flits = config.packet_length_flits
    num_nodes = topo.num_nodes
    # Precomputed neighbour table: per-hop topo.neighbor() calls (with
    # their validation) dominate the walk on large grids.
    neighbor = [[topo.neighbor(n, p) for p in range(4)]
                for n in range(num_nodes)]
    tie_break = config.tie_break
    channel_load: Dict[Tuple[int, int], float] = {}
    source_load = [0.0] * num_nodes
    router_flits = [0.0] * num_nodes
    router_packets = [0.0] * num_nodes
    total_packets = 0.0
    total_hops = 0.0
    for (src, dst), share in pattern.flows().items():
        packets = share * rate
        if packets <= 0.0:
            continue
        route = dimension_ordered_route(topo, src, dst,
                                        tie_break=tie_break)
        flit_rate = packets * flits
        total_packets += packets
        total_hops += packets * (len(route) - 1)
        source_load[src] += flit_rate
        node = src
        for port in route:
            router_flits[node] += flit_rate
            router_packets[node] += packets
            if port == LOCAL:
                break
            key = (node, port)
            channel_load[key] = channel_load.get(key, 0.0) + flit_rate
            node = neighbor[node][port]
    return FlowMatrix(
        config=config,
        injection_packets=total_packets,
        channel_load=channel_load,
        source_load=source_load,
        router_flits=router_flits,
        router_packets=router_packets,
        avg_hops=total_hops / total_packets if total_packets else 0.0,
    )

"""Analytic traffic flows: expected packet rates per (src, dst) pair.

The analytic estimator never instantiates a live traffic pattern.
Instead, each registered traffic kind declares its *flow distribution* —
the expected packets/cycle offered from every source to every
destination — and the routes those flows take are computed with the
simulator's own dimension-ordered routing (same topology, same
tie-break).  The resulting :class:`FlowMatrix` aggregates everything the
latency and power models need:

* per-channel flit loads (utilisation of every inter-router link),
* per-source injection-channel loads,
* per-router flit/packet throughputs,
* flow-weighted average hop count.

Channel loads are exact expectations under the declared distribution —
the same routes the simulator would take — so analytic utilisation,
event rates and queueing corrections share the simulator's geometry
rather than approximating it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.core.config import NetworkConfig
from repro.sim.routing import dimension_ordered_route
from repro.sim.topology import LOCAL, Topology, topology_for
from repro.sim.traffic import validate_traffic_params

#: ``(src, dst) -> packets/cycle`` expected flow table.
FlowTable = Dict[Tuple[int, int], float]

#: A flow builder maps (topology, rate, resolved params) to a FlowTable.
FlowBuilder = Callable[[Topology, float, Dict], FlowTable]


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


# --- flow distributions per traffic kind --------------------------------------

def _uniform_flows(topo: Topology, rate: float, params: Dict) -> FlowTable:
    n = topo.num_nodes
    per_pair = rate / (n - 1)
    return {(s, d): per_pair
            for s in range(n) for d in range(n) if d != s}


def _broadcast_flows(topo: Topology, rate: float, params: Dict) -> FlowTable:
    source = params["source"]
    topo.coords(source)  # validates
    n = topo.num_nodes
    per_dst = rate / (n - 1)
    return {(source, d): per_dst for d in range(n) if d != source}


def _transpose_flows(topo: Topology, rate: float, params: Dict) -> FlowTable:
    if topo.width != topo.height:
        raise ValueError("transpose traffic needs a square topology")
    flows = {}
    for node in range(topo.num_nodes):
        x, y = topo.coords(node)
        if x != y:
            flows[(node, topo.node_at(y, x))] = rate
    return flows


def _bitcomp_flows(topo: Topology, rate: float, params: Dict) -> FlowTable:
    flows = {}
    for node in range(topo.num_nodes):
        x, y = topo.coords(node)
        dst = topo.node_at(topo.width - 1 - x, topo.height - 1 - y)
        if dst != node:
            flows[(node, dst)] = rate
    return flows


def _hotspot_flows(topo: Topology, rate: float, params: Dict) -> FlowTable:
    hot = params["hotspot"]
    frac = params["hot_fraction"]
    topo.coords(hot)  # validates
    n = topo.num_nodes
    flows: FlowTable = {}
    for src in range(n):
        if src == hot:
            for dst in range(n):
                if dst != src:
                    flows[(src, dst)] = rate / (n - 1)
            continue
        # With probability ``frac`` the packet targets the hot node;
        # otherwise the destination is uniform over the n-1 others
        # (which can also pick the hot node, as in the live pattern).
        base = rate * (1.0 - frac) / (n - 1)
        for dst in range(n):
            if dst == src:
                continue
            flows[(src, dst)] = base + (rate * frac if dst == hot else 0.0)
    return flows


def _neighbor_flows(topo: Topology, rate: float, params: Dict) -> FlowTable:
    flows: FlowTable = {}
    for src in range(topo.num_nodes):
        neighbors = [topo.neighbor(src, p) for p in range(4)]
        neighbors = [d for d in neighbors if d is not None]
        for dst in neighbors:
            flows[(src, dst)] = rate / len(neighbors)
    return flows


def _tornado_flows(topo: Topology, rate: float, params: Dict) -> FlowTable:
    dx = max(1, (topo.width + 1) // 2 - 1) if topo.width > 2 else 1
    dy = max(1, (topo.height + 1) // 2 - 1) if topo.height > 2 else 1
    flows = {}
    for node in range(topo.num_nodes):
        x, y = topo.coords(node)
        dst = topo.node_at((x + dx) % topo.width, (y + dy) % topo.height)
        if dst != node:
            flows[(node, dst)] = rate
    return flows


def _shuffle_flows(topo: Topology, rate: float, params: Dict) -> FlowTable:
    n = topo.num_nodes
    if n & (n - 1):
        raise ValueError(
            f"shuffle traffic needs a power-of-two node count, got {n}"
        )
    bits = n.bit_length() - 1
    flows = {}
    for node in range(n):
        dst = ((node << 1) | (node >> (bits - 1))) & (n - 1)
        if dst != node:
            flows[(node, dst)] = rate
    return flows


#: Flow distribution per registered traffic kind.  Bursty traffic has
#: the same *average* flow table as uniform (the modulation changes
#: arrival burstiness, not expectations).
FLOW_BUILDERS: Dict[str, FlowBuilder] = {
    "uniform": _uniform_flows,
    "bursty": _uniform_flows,
    "broadcast": _broadcast_flows,
    "transpose": _transpose_flows,
    "bitcomp": _bitcomp_flows,
    "hotspot": _hotspot_flows,
    "neighbor": _neighbor_flows,
    "tornado": _tornado_flows,
    "shuffle": _shuffle_flows,
}


def register_flow_builder(name: str, builder: FlowBuilder) -> None:
    """Declare the analytic flow distribution of a traffic kind.

    A builder's flows must be linear in the rate: the estimator routes
    them once at unit rate and scales that matrix to every queried rate
    and to the saturation search."""
    FLOW_BUILDERS[name] = builder


def traffic_flows(name: str, topo: Topology, rate: float,
                  **params) -> FlowTable:
    """The expected ``(src, dst) -> packets/cycle`` table of a traffic
    kind at the given rate.  Parameters are validated against the
    traffic registry, exactly as for a live pattern."""
    if rate < 0:
        raise ValueError(f"injection rate must be >= 0, got {rate}")
    resolved = validate_traffic_params(name, params)
    try:
        builder = FLOW_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"traffic {name!r} has no analytic flow model; register one "
            f"with repro.analytic.register_flow_builder"
        ) from None
    return builder(topo, rate, resolved)


def flow_matrix(config: NetworkConfig, traffic: str = "uniform",
                rate: float = 1.0, **params) -> FlowMatrix:
    """Route a traffic kind's expected flows through ``config``'s
    topology and aggregate the per-channel / per-router loads."""
    topo = topology_for(config)
    flows = traffic_flows(traffic, topo, rate, **params)
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
    for (src, dst), packets in flows.items():
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

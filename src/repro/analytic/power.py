"""Closed-form power: predicted event rates times per-event energies.

Orion's premise is that average power is per-event energy times event
frequency (section 2.1); the simulator *counts* the events, this module
*predicts* their steady-state rates from the routing-derived flow
matrix and multiplies by the exact same per-event energies the
simulator uses (via :meth:`RouterPowerModels.event_energies`), so the two
paths can only disagree about *rates*, never about joules-per-event.

Per-router-kind event rates (``F`` = flits/cycle entering a router,
``P`` = packets/cycle), mirroring where each router implementation
emits binding calls:

==============  ==========================================================
wormhole        write ``F``, read ``F``, xbar ``F``, switch arb ``P``
vc              write/read/xbar ``F``, local arb ``F``, switch arb ``F``,
                VC arb ``P``
speculative_vc  as vc, but heads skip the local (V:1) stage — local arb
                ``F - P``
central         port-FIFO write+read ``F``, CB write+read ``F``,
                CB-fabric arb ``2F`` (one write grant + one read grant
                per flit); no crossbar events
==============  ==========================================================

Link traversals are the per-channel flit loads, charged to the sending
node.  Arbitration energies are taken at one active request — exact at
low load, a slight undercount as contention grows (contended and
retried arbitration rounds are second-order in total power).
Traffic-insensitive power (idle chip-to-chip links, optional leakage
and clock) comes from :meth:`RouterPowerModels.constant_power_w`, the
closed-form twin of ``finalize``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple

from repro.core import events as ev
from repro.core.power_models import RouterPowerModels
from repro.sim.topology import topology_for
from repro.analytic.flows import FlowMatrix

#: Which breakdown component each analytic event kind is charged to
#: (same categories as the simulator's accountant).
_EVENT_COMPONENT = {
    "buffer_write": ev.INPUT_BUFFER,
    "buffer_read": ev.INPUT_BUFFER,
    "xbar_traversal": ev.CROSSBAR,
    "link_traversal": ev.LINK,
    "switch_arb": ev.ARBITER,
    "vc_arb": ev.ARBITER,
    "local_arb": ev.ARBITER,
    "cb_arb": ev.ARBITER,
    "cb_write": ev.CENTRAL_BUFFER,
    "cb_read": ev.CENTRAL_BUFFER,
}


def router_event_rates(kind: str, flits: float,
                       packets: float) -> Dict[str, float]:
    """Events/cycle of one router passing ``flits`` flits and
    ``packets`` packets per cycle (table in the module docstring)."""
    if kind == "wormhole":
        return {
            "buffer_write": flits,
            "buffer_read": flits,
            "xbar_traversal": flits,
            "switch_arb": packets,
        }
    if kind in ("vc", "speculative_vc"):
        local = flits if kind == "vc" else max(0.0, flits - packets)
        return {
            "buffer_write": flits,
            "buffer_read": flits,
            "xbar_traversal": flits,
            "local_arb": local,
            "switch_arb": flits,
            "vc_arb": packets,
        }
    if kind == "central":
        return {
            "buffer_write": flits,
            "buffer_read": flits,
            "cb_write": flits,
            "cb_read": flits,
            "cb_arb": 2.0 * flits,
        }
    raise ValueError(f"no analytic event-rate model for router kind {kind!r}")


@dataclass(frozen=True)
class PowerEstimate:
    """Analytic average power of one (config, traffic, rate) point."""

    #: Network-wide average power, watts.
    total_power_w: float
    #: Network-wide watts per component category (accountant keys).
    breakdown_w: Dict[str, float] = field(default_factory=dict)
    #: Average watts per node, indexed by node id.
    node_power_w: List[float] = field(default_factory=list)
    #: Predicted network-wide events/cycle per event kind.
    event_rates: Dict[str, float] = field(default_factory=dict)


class ConstantPower(NamedTuple):
    """Traffic-insensitive watts of one config, network-wide per
    component and spread over nodes."""

    breakdown_w: Dict[str, float]
    node_w: List[float]


def constant_power(models: RouterPowerModels) -> ConstantPower:
    """Idle-link, leakage and clock power, spread over nodes the way
    ``finalize()`` charges it: idle links by out-degree, the rest
    evenly."""
    topo = topology_for(models.config)
    num_nodes = topo.num_nodes
    out_degree = [sum(topo.neighbor(n, p) is not None for p in range(4))
                  for n in range(num_nodes)]
    breakdown = models.constant_power_w(out_degree)
    total_degree = sum(out_degree)
    node_w = [0.0] * num_nodes
    for component, watts in breakdown.items():
        if component == ev.LINK and total_degree:
            for node in range(num_nodes):
                node_w[node] += watts * out_degree[node] / total_degree
        else:
            for node in range(num_nodes):
                node_w[node] += watts / num_nodes
    return ConstantPower(breakdown, node_w)


def estimate_power(flows: FlowMatrix,
                   models: RouterPowerModels = None,
                   constant: ConstantPower = None) -> PowerEstimate:
    """Expected average power of one operating point.

    ``models`` and ``constant`` depend on the config only; pass them to
    price many rates of one config without rebuilding them.  Valid below
    saturation: the flow matrix assumes offered load equals delivered
    load, which holds while every channel's utilisation stays under one
    flit/cycle.
    """
    config = flows.config
    if models is None:
        models = RouterPowerModels(config)
    if constant is None:
        constant = constant_power(models)
    energies = models.event_energies()
    freq = models.tech.frequency_hz
    kind = config.router.kind
    num_nodes = len(flows.router_flits)

    # Per-node dynamic events: router-internal rates plus link sends.
    node_link_flits = [0.0] * num_nodes
    for (node, _port), load in flows.channel_load.items():
        node_link_flits[node] += load
    node_w = list(constant.node_w)
    breakdown: Dict[str, float] = dict.fromkeys(ev.COMPONENTS, 0.0)
    total_rates: Dict[str, float] = {}
    for node in range(num_nodes):
        rates = router_event_rates(kind, flows.router_flits[node],
                                   flows.router_packets[node])
        rates["link_traversal"] = node_link_flits[node]
        for event, rate in rates.items():
            if rate <= 0.0:
                continue
            watts = rate * energies[event] * freq
            node_w[node] += watts
            breakdown[_EVENT_COMPONENT[event]] += watts
            total_rates[event] = total_rates.get(event, 0.0) + rate
    for component, watts in constant.breakdown_w.items():
        breakdown[component] = breakdown.get(component, 0.0) + watts

    breakdown = {c: w for c, w in breakdown.items() if w > 0.0}
    return PowerEstimate(
        total_power_w=sum(breakdown.values()),
        breakdown_w=breakdown,
        node_power_w=node_w,
        event_rates=total_rates,
    )

"""Closed-form latency: exact zero-load pipeline model plus an
M/M/1-style queueing correction per channel.

Zero-load component
-------------------
At vanishing load a packet never waits, so its latency is pure
pipeline arithmetic: ``depth`` cycles in each router it enters, one
cycle on each inter-router link, one cycle on the injection channel
(modelled as the final router's worth of ``+ depth``), and ``L - 1``
trailing cycles for the tail flit to stream out behind the head.  The
per-kind depths below are the *observed* cycles a head flit spends in
each router of this simulator — they intentionally pin simulator
behaviour, and the cross-validation tests assert the match is exact.

Queueing component
------------------
Each output channel is treated as an M/M/1 queue serving whole packets:
service time is the packet length ``L`` (a channel moves one flit per
cycle), utilisation ``rho`` is the routing-derived flit load, and the
expected wait per packet is ``L * rho / (1 - rho)``.  A packet's route
crosses several channels; rather than storing per-flow routes, the mean
wait per delivered packet falls out of an aggregation identity::

    E[wait] = sum_c W_c * (packets through c) / (packets delivered)

with ``packets through c = load_c / L``.  Source injection channels are
included the same way — at saturation it is usually the source queue
that diverges first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import NetworkConfig
from repro.sim.stats import zero_load_latency_estimate
from repro.analytic.flows import FlowMatrix

#: Cycles a head flit spends inside one router at zero load, per router
#: kind.  Wormhole pipelines switch allocation + traversal; VC routers
#: add a VC-allocation stage; the speculative VC router overlaps VC and
#: switch allocation back down to two cycles; the central-buffer router
#: takes three (write, arbitrate/read, traverse).
ZERO_LOAD_PIPELINE_DEPTH: Dict[str, int] = {
    "wormhole": 2,
    "vc": 3,
    "speculative_vc": 2,
    "central": 3,
}


def pipeline_depth(config: NetworkConfig) -> int:
    """Zero-load per-router cycle count for ``config``'s router kind."""
    try:
        return ZERO_LOAD_PIPELINE_DEPTH[config.router.kind]
    except KeyError:
        raise ValueError(
            f"no zero-load pipeline depth for router kind "
            f"{config.router.kind!r}"
        ) from None


def zero_load_latency(config: NetworkConfig, hops: float) -> float:
    """Latency in cycles of a packet crossing ``hops`` inter-router
    links with no contention anywhere."""
    return zero_load_latency_estimate(
        hops,
        pipeline_depth(config),
        config.packet_length_flits,
    )


@dataclass(frozen=True)
class LatencyEstimate:
    """Analytic latency decomposition at one operating point."""

    #: Mean no-contention latency, cycles.
    zero_load: float
    #: Mean queueing delay added by channel contention, cycles
    #: (``inf`` when some channel is offered more than one flit/cycle).
    queueing: float
    #: Flit load of the most-utilised channel, including injection
    #: channels.
    max_channel_load: float

    @property
    def total(self) -> float:
        return self.zero_load + self.queueing


def _mm1_wait(load: float, service: float) -> float:
    """Expected M/M/1 wait for a channel offered ``load`` flits/cycle
    with a ``service``-cycle (packet-length) service time."""
    if load >= 1.0:
        return math.inf
    return service * load / (1.0 - load)


def queueing_delay(flows: FlowMatrix) -> float:
    """Mean per-packet queueing delay (cycles) over all channels a
    packet crosses, by the aggregation identity in the module docstring."""
    if flows.injection_packets <= 0.0:
        return 0.0
    service = float(flows.config.packet_length_flits)
    total_wait = 0.0
    for load in flows.channel_load.values():
        wait = _mm1_wait(load, service)
        if math.isinf(wait):
            return math.inf
        total_wait += wait * (load / service)
    for load in flows.source_load:
        if load <= 0.0:
            continue
        wait = _mm1_wait(load, service)
        if math.isinf(wait):
            return math.inf
        total_wait += wait * (load / service)
    return total_wait / flows.injection_packets


def estimate_latency(flows: FlowMatrix) -> LatencyEstimate:
    """Expected packet latency of one (config, traffic, rate) point."""
    return LatencyEstimate(
        zero_load=zero_load_latency(flows.config, flows.avg_hops),
        queueing=queueing_delay(flows),
        max_channel_load=flows.max_channel_load,
    )

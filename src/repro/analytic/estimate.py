"""One-call analytic estimate of a full operating point.

:func:`estimate` is the subsystem's front door (the ``Orion`` facade's
``estimate_*`` methods and the ``repro estimate`` CLI command both land
here): build the flow matrix once, derive latency, power and the
saturation point from it, and return everything in one
:class:`AnalyticEstimate` that deliberately mirrors the fields of a
simulated :class:`~repro.sim.engine.SimulationResult` — same units,
same breakdown keys — so results from the fast path and the simulated
path drop into the same tables and plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.config import NetworkConfig
from repro.analytic.flows import FlowMatrix, flow_matrix
from repro.analytic.latency import LatencyEstimate, estimate_latency
from repro.analytic.power import PowerEstimate, estimate_power
from repro.analytic.saturation import SaturationEstimate, estimate_saturation


@dataclass(frozen=True)
class AnalyticEstimate:
    """Closed-form prediction for one (config, traffic, rate) point."""

    config: NetworkConfig
    traffic: str
    rate: float
    #: Mean packet latency, cycles (``inf`` past the throughput bound).
    avg_latency: float
    #: Latency decomposition (zero-load + queueing terms).
    latency: LatencyEstimate
    #: Network-wide average power, watts.
    total_power_w: float
    #: Watts per component category (same keys as simulated breakdowns).
    power_breakdown_w: Dict[str, float] = field(default_factory=dict)
    #: Average watts per node.
    node_power_w: List[float] = field(default_factory=list)
    #: Predicted saturation point of this (config, traffic) pair.
    saturation: SaturationEstimate = None
    #: Flow-weighted mean hop count.
    avg_hops: float = 0.0
    #: Delivered flits/cycle network-wide (equals offered below
    #: saturation).
    throughput_flits_per_cycle: float = 0.0

    @property
    def zero_load_latency(self) -> float:
        return self.latency.zero_load

    @property
    def is_saturated(self) -> bool:
        """Whether this rate is at or past the predicted saturation."""
        return (self.saturation is not None
                and math.isfinite(self.saturation.rate)
                and self.rate >= self.saturation.rate)

    def summary_dict(self) -> Dict[str, object]:
        """A flat, JSON-safe summary — the ``estimate`` result of a
        ``repro.serve`` job."""
        out = {name: getattr(self, name) for name in (
            "traffic", "rate", "avg_latency", "zero_load_latency",
            "avg_hops", "total_power_w", "throughput_flits_per_cycle",
            "is_saturated")}
        out["power_breakdown_w"] = dict(self.power_breakdown_w)
        out["saturation_rate"] = self.saturation.rate \
            if self.saturation else None
        return out

    def describe(self) -> str:
        sat = self.saturation
        lines = [
            f"traffic {self.traffic} at rate {self.rate:g}:",
            f"  avg hops:       {self.avg_hops:.3f}",
            f"  zero-load:      {self.latency.zero_load:.2f} cycles",
            f"  queueing:       {self.latency.queueing:.2f} cycles",
            f"  avg latency:    {self.avg_latency:.2f} cycles",
            f"  max channel:    {self.latency.max_channel_load:.3f} "
            f"flits/cycle",
            f"  total power:    {self.total_power_w:.4g} W",
        ]
        if sat is not None:
            lines.append(f"  saturation:     {sat.rate:.4f} pkt/cycle "
                         f"(throughput bound {sat.throughput_bound:.4f})")
        return "\n".join(lines)


def estimate(config: NetworkConfig, traffic: str = "uniform",
             rate: float = 0.05, with_saturation: bool = True,
             **params) -> AnalyticEstimate:
    """Closed-form latency/power/saturation estimate of one point.

    Runs in milliseconds: the cost is one shortest-path routing pass
    over the traffic kind's flows plus arithmetic — no simulation.
    """
    flows = flow_matrix(config, traffic, rate, **params)
    latency = estimate_latency(flows)
    power = estimate_power(flows)
    saturation = None
    if with_saturation:
        # Loads are linear in rate: rescale this point's matrix to unit
        # rate instead of paying a second routing pass.
        base = (flows.scaled(1.0 / rate) if rate > 0
                else flow_matrix(config, traffic, 1.0, **params))
        saturation = estimate_saturation(config, traffic, base=base,
                                         **params)
    return AnalyticEstimate(
        config=config,
        traffic=traffic,
        rate=rate,
        avg_latency=latency.total,
        latency=latency,
        total_power_w=power.total_power_w,
        power_breakdown_w=power.breakdown_w,
        node_power_w=power.node_power_w,
        saturation=saturation,
        avg_hops=flows.avg_hops,
        throughput_flits_per_cycle=flows.injection_flits,
    )

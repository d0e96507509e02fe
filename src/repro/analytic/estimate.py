"""One-call analytic estimate of a full operating point.

:func:`estimate` is the subsystem's front door (the ``Orion`` facade's
``estimate_*`` methods and the ``repro estimate`` CLI command both land
here): look up the rate-independent record of the (config, traffic)
structure, scale its unit-rate flow matrix to the queried rate, derive
latency and power from it, and return everything with the record's
saturation point in one :class:`AnalyticEstimate` that deliberately
mirrors the fields of a simulated
:class:`~repro.sim.engine.SimulationResult` — same units, same
breakdown keys — so results from the fast path and the simulated path
drop into the same tables and plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List

from repro.core.config import NetworkConfig
from repro.core.power_models import RouterPowerModels
from repro.sim.traffic import TRAFFIC_REGISTRY, validate_traffic_params
from repro.analytic.flows import flow_matrix
from repro.analytic.latency import LatencyEstimate, estimate_latency
from repro.analytic.power import constant_power, estimate_power
from repro.analytic.saturation import SaturationEstimate, solve_saturation


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


#: Bound on the structure memo (cleared when full).  A record holds a
#: unit-rate flow matrix, power models and per-node lists: about 15 KB on
#: a 4x4 torus.
STRUCTURE_MEMO_SIZE = 64
_structures: Dict[tuple, "_Structure"] = {}


class _Structure:
    """Everything an estimate of one (config, traffic, params) needs
    that does not depend on the rate: the unit-rate flow matrix (one
    routing pass), the power models, the traffic-insensitive power and,
    on first request, the saturation point."""

    def __init__(self, config: NetworkConfig, traffic: str,
                 params: Dict) -> None:
        self.base = flow_matrix(config, traffic, 1.0, **params)
        self.models = RouterPowerModels(config)
        self.constant = constant_power(self.models)

    @cached_property
    def saturation(self) -> SaturationEstimate:
        return solve_saturation(self.base)


def _structure(config: NetworkConfig, traffic: str,
               params: Dict) -> _Structure:
    """The memoised record of a (config, traffic, resolved params) key.

    The config is keyed on its ``repr``, not on ``==``: ``vdd=1`` and
    ``vdd=1.0`` compare equal but are distinct inputs, and a record
    built from one spelling must not answer for the other.  The
    pattern factory is part of the key, so re-registering a traffic
    kind cannot serve a stale record.  A record is a pure function
    of its key, so a warm process and a cold one give equal answers;
    concurrent callers need no lock (a race only rebuilds a record)."""
    resolved = validate_traffic_params(traffic, params)
    key = (repr(config), traffic, repr(sorted(resolved.items())),
           TRAFFIC_REGISTRY[traffic].factory)
    record = _structures.get(key)
    if record is None:
        record = _Structure(config, traffic, resolved)
        if len(_structures) >= STRUCTURE_MEMO_SIZE:
            _structures.clear()
        _structures[key] = record
    return record


def estimate(config: NetworkConfig, traffic: str = "uniform",
             rate: float = 0.05, with_saturation: bool = True,
             **params) -> AnalyticEstimate:
    """Closed-form latency/power/saturation estimate of one point.

    The first estimate of a (config, traffic, params) structure pays
    for one routing pass over the traffic kind's flows, the power
    models and the saturation search: milliseconds on the paper's 4x4
    presets, about half a second on a 16x16 mesh.  Every later rate of
    the same structure scales that record and does arithmetic only:
    under 0.1 ms on a 4x4 preset.  No simulation either way.
    """
    if rate < 0:
        raise ValueError(f"injection rate must be >= 0, got {rate}")
    record = _structure(config, traffic, params)
    flows = record.base.scaled(rate)
    latency = estimate_latency(flows)
    power = estimate_power(flows, record.models, record.constant)
    return AnalyticEstimate(
        config=config,
        traffic=traffic,
        rate=rate,
        avg_latency=latency.total,
        latency=latency,
        total_power_w=power.total_power_w,
        power_breakdown_w=power.breakdown_w,
        node_power_w=power.node_power_w,
        saturation=record.saturation if with_saturation else None,
        avg_hops=flows.avg_hops,
        throughput_flits_per_cycle=flows.injection_flits,
    )


def estimate_saturation(config: NetworkConfig, traffic: str = "uniform",
                        **params) -> SaturationEstimate:
    """Predict the saturation injection rate of a traffic kind: the
    root of ``T(r) = 2 * T(0)`` below the throughput bound (see
    :mod:`repro.analytic.saturation`).  One number per (config,
    traffic, params): every :func:`estimate` of the pair carries it."""
    return _structure(config, traffic, params).saturation

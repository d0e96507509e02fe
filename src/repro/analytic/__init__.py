"""Closed-form power/latency estimation (no simulation).

The analytic twin of the cycle-accurate simulator: the same topologies,
routes, traffic distributions and per-event energies, but evaluated as
expectations instead of being simulated — milliseconds instead of
minutes per operating point.  Used standalone (``Orion.estimate_*``,
``repro estimate``) and by the experiment orchestrator to place sweep
rate grids around the predicted saturation point.

The subsystem is also a standing cross-check on the simulator: tests
assert the analytic zero-load latency matches simulation *exactly* and
that power and saturation predictions track simulated values within
stated tolerances.
"""

from repro.analytic.estimate import (
    AnalyticEstimate,
    estimate,
    estimate_saturation,
)
from repro.analytic.flows import (
    FlowMatrix,
    flow_matrix,
)
from repro.analytic.latency import (
    ZERO_LOAD_PIPELINE_DEPTH,
    LatencyEstimate,
    estimate_latency,
    pipeline_depth,
    queueing_delay,
    zero_load_latency,
)
from repro.analytic.power import (
    PowerEstimate,
    estimate_power,
    router_event_rates,
)
from repro.analytic.saturation import SaturationEstimate

__all__ = [
    "AnalyticEstimate",
    "FlowMatrix",
    "LatencyEstimate",
    "PowerEstimate",
    "SaturationEstimate",
    "ZERO_LOAD_PIPELINE_DEPTH",
    "estimate",
    "estimate_latency",
    "estimate_power",
    "estimate_saturation",
    "flow_matrix",
    "pipeline_depth",
    "queueing_delay",
    "router_event_rates",
    "zero_load_latency",
]

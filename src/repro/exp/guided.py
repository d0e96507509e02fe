"""Analytic-guided sweep grids: let the closed-form saturation
prediction decide where to spend simulation time.

A uniform rate grid wastes most of its points: latency curves are flat
until just below saturation, then blow up, so evenly spaced samples
over-resolve the flat region and spray points deep past saturation
where runs are slowest and least informative.  This module asks
:mod:`repro.analytic` for the predicted saturation rate first, then
places the grid around it:

* a few *sparse* points across the flat region (they anchor the
  zero-load proxy and the power-vs-rate trend),
* the bulk of the budget *dense* in a band straddling the predicted
  saturation (where the twice-zero-load crossing actually happens),
* nothing deep past saturation — rates beyond ``past_fraction`` times
  the prediction are skipped entirely, since the analytic model already
  knows they diverge.

``run_guided_sweep`` feeds the resulting grid through the ordinary
orchestrator (same caching, parallelism and failure isolation) and
returns the measured sweep next to the prediction that placed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import NetworkConfig, RunProtocol
from repro.core.report import SweepResult

#: Default share of the point budget spent below the dense band.
SPARSE_FRACTION = 0.35
#: Dense band, as fractions of the predicted saturation rate.  The
#: analytic prediction carries a ~20% tolerance, so the band extends
#: well past 1.0x to guarantee the measured crossing falls inside it.
DENSE_BAND = (0.7, 1.3)


def guided_rate_grid(config: NetworkConfig, traffic: str = "uniform", *,
                     points: int = 8,
                     past_fraction: float = 1.3,
                     **traffic_params) -> "GuidedGrid":
    """Place ``points`` injection rates around the predicted saturation.

    ``past_fraction`` caps the grid at that multiple of the predicted
    saturation rate — everything beyond is a skipped point.
    """
    from repro.analytic import estimate_saturation

    if points < 4:
        raise ValueError(f"a guided grid needs >= 4 points, got {points}")
    prediction = estimate_saturation(config, traffic, **traffic_params)
    sat = prediction.rate
    if not math.isfinite(sat) or sat <= 0.0:
        raise ValueError(
            f"traffic {traffic!r} has no finite predicted saturation; "
            f"use an explicit rate grid"
        )
    top = min(past_fraction * sat, 0.98 * prediction.throughput_bound)
    dense_lo = min(DENSE_BAND[0] * sat, top)
    num_coarse = max(1, round(points * SPARSE_FRACTION))
    num_dense = points - num_coarse
    sparse_lo = sat * 0.1
    sparse = [sparse_lo + i * (dense_lo - sparse_lo) / num_coarse
              for i in range(num_coarse)]
    dense = [dense_lo + i * (top - dense_lo) / max(1, num_dense - 1)
             for i in range(num_dense)]
    rates = sorted(set(round(r, 10) for r in sparse + dense))
    return GuidedGrid(rates=rates, prediction=prediction,
                      skipped_above=top)


@dataclass(frozen=True)
class GuidedGrid:
    """An analytically placed rate grid plus the prediction behind it."""

    rates: List[float]
    prediction: "object"  # SaturationEstimate
    #: Rates above this were skipped as deep-past-saturation.
    skipped_above: float

    @property
    def dense_step(self) -> float:
        """Spacing of the dense band (the grid's saturation resolution)."""
        diffs = [b - a for a, b in zip(self.rates, self.rates[1:])]
        return min(diffs) if diffs else 0.0


@dataclass
class GuidedSweep:
    """A measured sweep run on an analytically placed grid."""

    sweep: SweepResult
    grid: GuidedGrid
    prediction: "object" = None  # SaturationEstimate

    def saturation_rate(self, interpolate: bool = False) -> Optional[float]:
        """Measured saturation on the guided grid (paper criterion)."""
        return self.sweep.saturation_rate(interpolate=interpolate)


def run_guided_sweep(config: NetworkConfig, traffic: str = "uniform",
                     protocol: Optional[RunProtocol] = None, *,
                     points: int = 8,
                     past_fraction: float = 1.1,
                     label: Optional[str] = None,
                     processes: int = 1,
                     cache=None,
                     progress=None,
                     **traffic_params) -> GuidedSweep:
    """Sweep a traffic kind on an analytic-guided rate grid.

    Mirrors ``Orion.sweep_traffic`` but chooses the rates itself: dense
    around the predicted saturation, sparse below, none deep past it.
    Failures at individual points are recorded, not raised — a point
    that saturates into a timeout still leaves the rest of the curve.
    """
    from repro.exp.cache import ResultCache
    from repro.exp.orchestrator import outcomes_to_sweep, run_points
    from repro.exp.spec import RunPoint, TrafficSpec

    grid = guided_rate_grid(config, traffic, points=points,
                            past_fraction=past_fraction, **traffic_params)
    protocol = protocol or RunProtocol()
    label = label or f"{config.router.kind} {traffic} (guided)"
    spec = TrafficSpec.of(traffic, **traffic_params)
    run_list = [RunPoint(config=config, traffic=spec, rate=rate,
                         protocol=protocol, label=label)
                for rate in grid.rates]
    if isinstance(cache, str):
        cache = ResultCache(cache)
    outcomes = run_points(run_list, processes=processes, cache=cache,
                          progress=progress, on_error="record")
    return GuidedSweep(sweep=outcomes_to_sweep(outcomes, label=label),
                       grid=grid, prediction=grid.prediction)

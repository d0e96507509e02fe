"""Closed-form saturation prediction: the paper's "twice zero-load
latency" criterion, solved analytically.

The simulator finds saturation by sweeping injection rates and marking
the first point whose measured latency exceeds twice the zero-load
latency (section 4.1).  Analytically the same criterion is a root
search: channel loads are *linear* in the injection rate, so one flow
matrix built at unit rate gives the loads at every rate by scaling, the
M/M/1 latency ``T(r)`` is monotonically increasing in ``r``, and the
saturation rate is the unique solution of ``T(r) = 2 * T(0)`` on
``(0, r_cap)`` — where ``r_cap`` is the throughput bound at which the
most-loaded channel reaches one flit per cycle and ``T`` diverges.
Bisection to ``TOLERANCE`` of the bound takes ~20 iterations of pure
arithmetic, no simulation anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analytic.flows import FlowMatrix
from repro.analytic.latency import queueing_delay, zero_load_latency

#: Bisection stops when the bracket is this fraction of the throughput
#: bound.
TOLERANCE = 1e-6


@dataclass(frozen=True)
class SaturationEstimate:
    """Analytic saturation point of one (config, traffic) pair."""

    #: Injection rate at which latency reaches twice zero-load
    #: (packets/cycle, same per-node/whole-network units as the traffic
    #: kind's rate parameter).
    rate: float
    #: Latency at vanishing load, cycles.
    zero_load_latency: float
    #: Rate at which the most-loaded channel reaches capacity — the
    #: hard throughput ceiling; always >= ``rate``.
    throughput_bound: float


def solve_saturation(base: FlowMatrix) -> SaturationEstimate:
    """Bisect ``T(r) = 2 * T(0)`` between zero and the throughput bound
    of a *unit-rate* flow matrix.  Callers go through the memoised
    :func:`~repro.analytic.estimate.estimate_saturation`."""
    t0 = zero_load_latency(base.config, base.avg_hops)
    peak = base.max_channel_load
    if peak <= 0.0:
        return SaturationEstimate(rate=math.inf, zero_load_latency=t0,
                                  throughput_bound=math.inf)
    r_cap = 1.0 / peak
    target = 2.0 * t0
    lo, hi = 0.0, r_cap
    while hi - lo > TOLERANCE * r_cap:
        mid = 0.5 * (lo + hi)
        if t0 + queueing_delay(base.scaled(mid)) < target:
            lo = mid
        else:
            hi = mid
    return SaturationEstimate(
        rate=0.5 * (lo + hi),
        zero_load_latency=t0,
        throughput_bound=r_cap,
    )

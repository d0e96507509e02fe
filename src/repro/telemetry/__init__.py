"""Windowed telemetry: low-overhead energy/event time series.

The paper's headline artifacts — the per-component power breakdown
(Figure 5c) and the spatial energy map (Figure 6) — are observability
products: they need per-router, per-component event and energy
accounting over *time*, not just end-of-run totals.  This package adds
that layer without reintroducing per-cycle scans of every router:

* :class:`TelemetryRecorder` is the run's one observer.  It rides the
  existing counter-based accounting — every ``window`` cycles it
  snapshots the power binding's cumulative per-node energy/event view
  (the :class:`~repro.core.power_binding.PowerBinding` prices its
  integer event counters on read, in either activity mode), per-router
  injection/ejection counts and per-channel send counts, and stores the
  per-window *deltas*; buffer occupancy is summed and peaked every
  measured cycle over the active routers;
* :class:`TelemetryRecord` is the picklable result: per-router ×
  per-component energy/event time series, per-channel utilisation and
  per-router occupancy, plus wall-clock profiling spans for the
  engine's phases.  Summed windows telescope back to the run-end totals
  exactly (up to float re-summation);
* :mod:`repro.telemetry.io` round-trips records through JSONL (one
  window per line) and flat CSV;
* :mod:`repro.telemetry.report` renders the Figure 5c-style component
  breakdown, the Figure 6-style spatial map and the
  utilisation/occupancy block from a record — the ``repro report`` CLI
  command's engine.

Enable with ``RunProtocol(telemetry_window=N)`` (off by default)::

    from repro import Orion, RunProtocol, preset

    result = Orion(preset("VC16")).run_uniform(
        0.05, RunProtocol(telemetry_window=100))
    record = result.telemetry
    print(record.num_windows, record.total_energy_j(),
          record.max_channel_utilization())
"""

from repro.telemetry.recorder import (
    DEFAULT_WINDOW,
    TelemetryRecord,
    TelemetryRecorder,
    TelemetryWindow,
)
from repro.telemetry.io import (
    telemetry_from_jsonl,
    telemetry_to_csv,
    telemetry_to_jsonl,
)
from repro.telemetry.report import (
    telemetry_report,
    telemetry_summary,
    utilization_report,
)

__all__ = [
    "DEFAULT_WINDOW",
    "TelemetryRecord",
    "TelemetryRecorder",
    "TelemetryWindow",
    "telemetry_from_jsonl",
    "telemetry_report",
    "telemetry_summary",
    "telemetry_to_csv",
    "telemetry_to_jsonl",
    "utilization_report",
]

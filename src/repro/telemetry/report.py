"""Render a telemetry record: Figure 5c breakdown, Figure 6 map, series.

These are the ``repro report`` CLI command's building blocks — the
same tables :mod:`repro.core.report` renders from a live
:class:`~repro.sim.engine.SimulationResult`, reproduced purely from a
recorded :class:`~repro.telemetry.recorder.TelemetryRecord` (summed
windows equal the run-end accounting).
"""

from __future__ import annotations

from repro.core.report import format_power
from repro.telemetry.recorder import TelemetryRecord


def breakdown_table(record: TelemetryRecord) -> str:
    """Per-component power with shares (Figure 5c), from summed
    windows."""
    breakdown = record.power_breakdown_w()
    total = sum(breakdown.values())
    lines = [f"{'component':<16} {'power':>12} {'share':>8}"]
    for component, power in sorted(breakdown.items(),
                                   key=lambda kv: -kv[1]):
        if power == 0.0:
            continue
        share = power / total if total > 0 else 0.0
        lines.append(
            f"{component:<16} {format_power(power):>12} {share:>7.1%}"
        )
    lines.append(f"{'total':<16} {format_power(total):>12} {'100.0%':>8}")
    return "\n".join(lines)


def spatial_table(record: TelemetryRecord) -> str:
    """Per-node power on the (x, y) grid, y descending (Figure 6)."""
    powers = record.node_power_w()
    lines = []
    for y in reversed(range(record.height)):
        row = []
        for x in range(record.width):
            node = y * record.width + x
            row.append(f"{powers[node] * 1e3:9.2f}")
        lines.append(f"y={y}  " + " ".join(row) + "  (mW)")
    lines.append("      " + " ".join(f"{'x=' + str(x):>9}"
                                     for x in range(record.width)))
    return "\n".join(lines)


def series_table(record: TelemetryRecord, max_rows: int = 20) -> str:
    """Per-window total power/activity time series (downsampled to at
    most ``max_rows`` rows for the terminal)."""
    windows = record.windows
    if not windows:
        return "(no windows recorded)"
    stride = max(1, (len(windows) + max_rows - 1) // max_rows)
    lines = [f"{'window':>7} {'cycles':>15} {'power':>12} "
             f"{'inj':>7} {'ej':>7} {'occ':>5}"]
    powers = record.window_power_w()
    for i in range(0, len(windows), stride):
        window = windows[i]
        lines.append(
            f"{window.index:>7} "
            f"{window.cycle_start:>7}-{window.cycle_end:<7} "
            f"{format_power(powers[i]):>12} "
            f"{sum(window.injected):>7} {sum(window.ejected):>7} "
            f"{sum(window.occupancy):>5}"
        )
    if stride > 1:
        lines.append(f"(every {stride}. of {len(windows)} windows)")
    return "\n".join(lines)


def utilization_report(record: TelemetryRecord) -> str:
    """The channel-utilisation and buffer-occupancy block (printed by
    ``repro run`` and ``repro report``)."""
    lines = ["occupancy/utilization:"]
    if record.channels is None:
        return lines[0] + "\n(not recorded: written before JSONL schema 4)"
    if record.measured_cycles == 0:
        return lines[0] + "\nno measured cycles"
    lines += [
        f"measured cycles: {record.measured_cycles}",
        f"channel utilization: mean "
        f"{record.mean_channel_utilization():.3f}, max "
        f"{record.max_channel_utilization():.3f}",
        "hottest channels:",
    ]
    for label, util in record.hottest_channels():
        lines.append(f"  {label:<16} {util:.3f}")
    means = record.occupancy_means()
    ejected = record.ejected_totals()
    lines.append(
        f"buffer occupancy: avg {sum(means) / len(means):.2f} "
        f"flits/router, peak {max(record.occupancy_peaks())} flits")
    lines.append(f"flits ejected: {sum(ejected)} "
                 f"(max {max(ejected)} at one node)")
    return "\n".join(lines)


def spans_table(record: TelemetryRecord) -> str:
    """Wall-clock profiling spans of the engine phases."""
    if not record.spans_s:
        return "(no spans recorded)"
    total = sum(record.spans_s.values())
    lines = [f"{'phase':<12} {'seconds':>10} {'share':>8}"]
    for name, seconds in sorted(record.spans_s.items(),
                                key=lambda kv: -kv[1]):
        share = seconds / total if total > 0 else 0.0
        lines.append(f"{name:<12} {seconds:>10.4f} {share:>7.1%}")
    return "\n".join(lines)


def telemetry_summary(record: TelemetryRecord) -> dict:
    """A compact JSON-safe digest of one record — window counts,
    energy/power totals and phase spans, without the per-window
    series.  Small enough to embed in a job-service result or progress
    stream where the full record would be megabytes."""
    return {
        "windows": record.num_windows,
        "window_cycles": record.window,
        "measured_cycles": record.measured_cycles,
        "total_energy_j": record.total_energy_j(),
        "power_breakdown_w": record.power_breakdown_w(),
        "spans_s": dict(record.spans_s),
    }


def telemetry_report(record: TelemetryRecord, series: bool = True) -> str:
    """The full ``repro report`` rendering of one record."""
    grid = f"{record.width}x{record.height}"
    lines = [
        f"telemetry: {record.router_kind} {grid}, "
        f"{record.num_windows} windows of {record.window} cycles "
        f"({record.measured_cycles} measured cycles, "
        f"{record.activity_mode} activity)",
        "",
        "power breakdown (summed windows):",
        breakdown_table(record),
        "",
        "per-node power (mW):",
        spatial_table(record),
    ]
    lines += ["", utilization_report(record)]
    if series:
        lines += ["", "time series:", series_table(record)]
    lines += ["", "engine phase spans:", spans_table(record)]
    return "\n".join(lines)

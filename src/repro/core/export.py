"""Result export: CSV and JSON serialisation of runs and sweeps.

Keeps downstream analysis (spreadsheets, plotting scripts) decoupled
from the library — every number a figure needs can be dumped to a flat
file.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List

from repro.core.report import SweepResult
from repro.sim.engine import SimulationResult


def result_to_dict(result: SimulationResult) -> Dict:
    """JSON-safe summary of one simulation run."""
    out = {
        "router_kind": result.config.router.kind,
        "topology": result.config.topology,
        "width": result.config.width,
        "height": result.config.height,
        "avg_latency_cycles": result.avg_latency,
        "min_latency_cycles": result.latency.minimum,
        "max_latency_cycles": result.latency.maximum,
        "p99_latency_cycles": result.latency.percentile(99),
        "sample_packets": result.sample_packets,
        "warmup_cycles": result.warmup_cycles,
        "measured_cycles": result.measured_cycles,
        "total_cycles": result.total_cycles,
        "throughput_flits_per_cycle": result.throughput_flits_per_cycle,
        "flits_injected": result.flits_injected,
        "flits_ejected": result.flits_ejected,
        "status": result.status,
    }
    if result.accountant is not None:
        out["total_power_w"] = result.total_power_w
        out["power_breakdown_w"] = result.power_breakdown_w()
        out["node_power_w"] = result.node_power_w()
    return out


def result_to_json(result: SimulationResult, path: str) -> None:
    """Write one run's summary as JSON."""
    with open(path, "w") as f:
        json.dump(result_to_dict(result), f, indent=2, sort_keys=True)


def sweep_rows(sweep: SweepResult) -> List[Dict]:
    """One flat dict per sweep point (CSV-ready)."""
    rows = []
    for point in sorted(sweep.points, key=lambda p: p.rate):
        row = {
            "label": sweep.label,
            "rate": point.rate,
            "avg_latency_cycles": point.avg_latency,
            "total_power_w": point.total_power_w,
            "throughput_flits_per_cycle":
                point.throughput_flits_per_cycle,
        }
        for component, watts in sorted(point.breakdown_w.items()):
            row[f"power_{component}_w"] = watts
        rows.append(row)
    return rows


def sweep_to_csv(sweep: SweepResult, path: str) -> None:
    """Write a sweep as CSV, one row per injection rate."""
    rows = sweep_rows(sweep)
    if not rows:
        raise ValueError(f"sweep {sweep.label!r} has no points")
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def experiment_rows(outcomes) -> List[Dict]:
    """One flat dict per experiment point outcome (CSV-ready)."""
    rows = []
    for outcome in outcomes:
        point = outcome.point
        row = {
            "label": point.label,
            "traffic": point.traffic.describe(),
            "rate": point.rate,
            "seed": point.protocol.seed,
            "ok": outcome.ok,
            "status": outcome.status,
            "error": outcome.error or "",
            "attempts": outcome.attempts,
            "avg_latency_cycles": outcome.avg_latency,
            "total_power_w": outcome.total_power_w,
            "throughput_flits_per_cycle":
                outcome.throughput_flits_per_cycle,
            "total_cycles": outcome.total_cycles,
            "wall_seconds": outcome.wall_seconds,
            "from_cache": outcome.from_cache,
        }
        for component, watts in sorted(outcome.breakdown_w.items()):
            row[f"power_{component}_w"] = watts
        rows.append(row)
    return rows


def experiment_to_csv(outcomes, path: str) -> None:
    """Write experiment outcomes as CSV, one row per run point."""
    rows = experiment_rows(outcomes)
    if not rows:
        raise ValueError("experiment produced no outcomes")
    fieldnames: List[str] = []
    for row in rows:
        for name in row:
            if name not in fieldnames:
                fieldnames.append(name)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)


def spatial_to_csv(result: SimulationResult, path: str) -> None:
    """Write the per-node power map as CSV (node, x, y, power_w)."""
    powers = result.node_power_w()
    width = result.config.width
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["node", "x", "y", "power_w"])
        for node, power in enumerate(powers):
            writer.writerow([node, node % width, node // width, power])

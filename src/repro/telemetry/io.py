"""Structured export of telemetry records: JSONL and CSV.

The JSONL layout is stream-friendly — one JSON object per line:

* a ``header`` line with run metadata (grid shape, frequency, window
  size, router kind, activity mode, the channel list, schema version);
* one ``window`` line per window, column-major (component/event kind to
  a per-node array);
* a ``footer`` line with the engine phase spans.

Python's JSON float serialisation round-trips exactly, so a record read
back from JSONL reproduces the run-end energy accounting bit-for-bit.
The CSV form is long-format (one row per window × node × component)
for spreadsheets and plotting libraries.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List

from repro.telemetry.recorder import TelemetryRecord, TelemetryWindow

#: Bump when the JSONL layout changes; readers reject other versions.
#: 2: window lines carry two per-node fault-count columns (schema-1
#: files still read back, the columns defaulting to zero).
#: 3: the header drops ``kernel`` (there is one kernel; the key is
#: ignored when reading schema-1/2 files).
#: 4: the header names the ``channels``; window lines carry per-channel
#: ``sent`` counts and per-cycle ``occupancy_sum``/``occupancy_peak``
#: (schema-1-3 files read back without them, so their utilisation and
#: occupancy queries raise).
#: 5: window lines drop schema 2's fault-count columns (the simulator
#: models a healthy fabric; schema-2-4 files read back with those
#: columns ignored).
JSONL_SCHEMA = 5

#: Schema versions :func:`telemetry_from_jsonl` accepts.
_READABLE_SCHEMAS = (1, 2, 3, 4, 5)

#: Per-window integer columns written as-is (schema-5 names).
_WINDOW_COLUMNS = ("injected", "ejected", "occupancy", "sent",
                   "occupancy_sum", "occupancy_peak")

_HEADER_FIELDS = ("window", "num_nodes", "width", "height",
                  "frequency_hz", "warmup_cycles", "router_kind",
                  "activity_mode")


def telemetry_to_jsonl(record: TelemetryRecord, path: str) -> None:
    """Write a record as JSONL (header, one line per window, footer)."""
    with open(path, "w") as f:
        header = {"type": "header", "schema": JSONL_SCHEMA}
        header.update({name: getattr(record, name)
                       for name in _HEADER_FIELDS})
        header["channels"] = record.channels
        f.write(json.dumps(header) + "\n")
        for window in record.windows:
            line = {
                "type": "window",
                "index": window.index,
                "cycle_start": window.cycle_start,
                "cycle_end": window.cycle_end,
                "energy_j": window.energy_j,
                "events": window.events,
            }
            line.update({name: getattr(window, name)
                         for name in _WINDOW_COLUMNS})
            f.write(json.dumps(line) + "\n")
        f.write(json.dumps({"type": "footer",
                            "spans_s": record.spans_s}) + "\n")


def telemetry_from_jsonl(path: str) -> TelemetryRecord:
    """Read a record back from JSONL (see :func:`telemetry_to_jsonl`)."""
    record = None
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            kind = entry.get("type")
            if kind == "header":
                schema = entry.get("schema")
                if schema not in _READABLE_SCHEMAS:
                    raise ValueError(
                        f"{path}: unsupported telemetry schema {schema!r} "
                        f"(expected one of {_READABLE_SCHEMAS})"
                    )
                channels = entry.get("channels")
                record = TelemetryRecord(
                    **{name: entry[name] for name in _HEADER_FIELDS},
                    channels=None if channels is None
                    else [tuple(channel) for channel in channels])
            elif kind == "window":
                if record is None:
                    raise ValueError(
                        f"{path}:{line_no}: window before header")
                columns = {name: entry.get(name) or []
                           for name in _WINDOW_COLUMNS}
                record.windows.append(TelemetryWindow(
                    index=entry["index"],
                    cycle_start=entry["cycle_start"],
                    cycle_end=entry["cycle_end"],
                    energy_j=entry["energy_j"],
                    events=entry["events"],
                    **columns,
                ))
            elif kind == "footer":
                if record is None:
                    raise ValueError(
                        f"{path}:{line_no}: footer before header")
                record.spans_s = dict(entry.get("spans_s", {}))
            else:
                raise ValueError(
                    f"{path}:{line_no}: unknown entry type {kind!r}")
    if record is None:
        raise ValueError(f"{path}: no telemetry header found")
    return record


def telemetry_rows(record: TelemetryRecord) -> List[Dict]:
    """Long-format rows: one per window × node × active component.

    The ``events`` column counts the event occurrences charged to that
    component at that node within the window (via ``EVENT_COMPONENT``).
    """
    from repro.core.events import EVENT_COMPONENT

    rows = []
    for window in record.windows:
        events: Dict[tuple, int] = {}
        for event, col in window.events.items():
            component = EVENT_COMPONENT[event]
            for node, count in enumerate(col):
                if count:
                    key = (node, component)
                    events[key] = events.get(key, 0) + count
        for component, col in window.energy_j.items():
            for node, energy in enumerate(col):
                if not energy:
                    continue
                rows.append({
                    "window": window.index,
                    "cycle_start": window.cycle_start,
                    "cycle_end": window.cycle_end,
                    "node": node,
                    "x": node % record.width,
                    "y": node // record.width,
                    "component": component,
                    "energy_j": energy,
                    "events": events.get((node, component), 0),
                    "injected": window.injected[node],
                    "ejected": window.ejected[node],
                    "occupancy": window.occupancy[node],
                })
    return rows


def telemetry_to_csv(record: TelemetryRecord, path: str) -> None:
    """Write the long-format window table as CSV."""
    rows = telemetry_rows(record)
    fieldnames = ["window", "cycle_start", "cycle_end", "node", "x", "y",
                  "component", "energy_j", "events", "injected",
                  "ejected", "occupancy"]
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)

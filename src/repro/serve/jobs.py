"""Job descriptions for the simulation service: parsing, keys, journal.

A *job* is one unit of server-side work, submitted as JSON.  Three
kinds map onto the library's entry points:

* ``run`` — one simulation point (``repro run``): a config, a traffic
  spec, a rate, an optional protocol;
* ``experiment`` — a full :class:`~repro.exp.spec.ExperimentSpec` grid
  (``repro experiment``), executed with the orchestrator's resilient
  ``run_points`` path;
* ``estimate`` — a closed-form analytic estimate (``repro estimate``),
  computed without simulating: milliseconds on small grids, seconds
  on large ones.

The ``spec`` of a payload is decoded by :func:`repro.exp.spec.decode_job`
— the same decoder the CLI runs its own jobs through — so this module
only checks the envelope (kind, priority, execution options) around it.

Every simulation job also has a deterministic **key**: the hash of its
run points' cache keys.  Two payloads that would simulate exactly the
same points — regardless of field ordering or preset-vs-explicit config
spelling — collide on the key, which is what the server's single-flight
dedup coalesces on.

:class:`JobJournal` is the crash-safety layer: accepted payloads are
journaled under ``results/.serve/`` until their job completes, so a
killed server recovers queued and in-flight work on restart.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.exp.spec import (
    JOB_KINDS,
    JobError,
    RunPoint,
    config_to_dict,
    decode_job,
)

JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")

#: Default journal location, relative to the working directory.
DEFAULT_JOURNAL_DIR = os.path.join("results", ".serve")


@dataclass
class Job:
    """One accepted unit of work and its whole lifecycle.

    A job is plain data owned by the server's event loop.  While it
    runs, its work is one :class:`~repro.exp.pool.Batch` on the
    server's worker pool (the cache misses of its run points, or its
    estimate as a single task); cancelling the job cancels that batch.
    """

    id: str
    kind: str
    key: str
    #: The submitted payload, the expanded run points (run/experiment
    #: kinds) and the parsed estimate arguments (estimate kind); all
    #: three are dropped once the job is terminal.
    payload: Optional[Dict[str, Any]]
    priority: int = 0
    points: List[RunPoint] = field(default_factory=list)
    estimate: Optional[Dict[str, Any]] = None
    #: Execution options: processes / point_timeout / retries.
    options: Dict[str, Any] = field(default_factory=dict)
    status: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Submissions coalesced onto this job by single-flight dedup.
    coalesced: int = 0
    #: Progress/status events published so far (NDJSON stream backing).
    #: The list is bounded server-side: old entries are trimmed from the
    #: front and ``events_base`` advances, so ``events[i]`` is the event
    #: with absolute sequence number ``events_base + i``.
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Absolute sequence number of ``events[0]`` (> 0 once the size
    #: bound has trimmed the front of the log).
    events_base: int = 0
    num_points: int = field(init=False)

    def __post_init__(self) -> None:
        self.num_points = len(self.points)

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed", "cancelled")

    def trim_events(self, max_events: int) -> int:
        """Bound the event log to its newest ``max_events`` entries;
        returns how many were dropped.  Stream cursors are absolute
        sequence numbers, so trimming never replays or reorders events
        for a live follower — it can only create a gap for a follower
        that fell further behind than the bound."""
        drop = len(self.events) - max_events
        if drop <= 0:
            return 0
        del self.events[:drop]
        self.events_base += drop
        return drop

    @property
    def wall_seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def public_dict(self, with_result: bool = True) -> Dict[str, Any]:
        """The JSON shape of ``GET /v2/jobs/<id>``."""
        out = {
            "id": self.id,
            "kind": self.kind,
            "key": self.key,
            "priority": self.priority,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_seconds": self.wall_seconds,
            "num_points": self.num_points,
            "coalesced": self.coalesced,
            "error": self.error,
            "num_events": self.events_base + len(self.events),
            "events_trimmed": self.events_base,
        }
        if with_result:
            out["result"] = self.result
        return out


def _parse_options(data: Any) -> Dict[str, Any]:
    """Validated execution options with server-side defaults filled in
    later (``None`` means "use the server default")."""
    if data is None:
        data = {}
    if not isinstance(data, Mapping):
        raise JobError("options must be an object")
    unknown = set(data) - {"processes", "point_timeout", "retries"}
    if unknown:
        raise JobError(f"unknown options {sorted(unknown)}; "
                       f"supported: processes, point_timeout, retries")
    options: Dict[str, Any] = {"processes": None, "point_timeout": None,
                               "retries": None}
    if data.get("processes") is not None:
        processes = int(data["processes"])
        if processes < 1:
            raise JobError(f"options.processes must be >= 1, "
                           f"got {processes}")
        options["processes"] = processes
    if data.get("point_timeout") is not None:
        point_timeout = float(data["point_timeout"])
        if point_timeout <= 0:
            raise JobError(f"options.point_timeout must be > 0, "
                           f"got {point_timeout}")
        options["point_timeout"] = point_timeout
    if data.get("retries") is not None:
        retries = int(data["retries"])
        if retries < 0:
            raise JobError(f"options.retries must be >= 0, got {retries}")
        options["retries"] = retries
    return options


def _job_key(kind: str, points: List[RunPoint],
             estimate: Optional[Dict[str, Any]]) -> str:
    """Deterministic dedup key: identical server-side work hashes
    identically, whatever the payload's spelling."""
    if kind == "estimate":
        digest = {
            "kind": "estimate",
            "config": config_to_dict(estimate["config"]),
            "traffic": estimate["traffic"],
            "params": sorted(estimate["params"].items()),
            "rate": estimate["rate"],
        }
    else:
        # Run and experiment jobs that expand to the same point set are
        # the same work (a one-point experiment deduplicates against the
        # equivalent run job).
        digest = {"kind": "points",
                  "points": sorted(p.cache_key() for p in points)}
    blob = json.dumps(digest, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def parse_job(payload: Any, job_id: str) -> Job:
    """Validate one submitted payload into a :class:`Job`: the spec via
    :func:`~repro.exp.spec.decode_job`, then the envelope around it.

    Raises :class:`JobError` (→ HTTP 400) with a message naming the
    offending field on any malformed input.
    """
    if not isinstance(payload, Mapping):
        raise JobError(f"job payload must be a JSON object, "
                       f"got {type(payload).__name__}")
    points, estimate = decode_job(payload)
    unknown = set(payload) - {"kind", "spec", "priority", "options"}
    if unknown:
        raise JobError(f"unknown job fields {sorted(unknown)}")
    try:
        priority = int(payload.get("priority", 0))
    except (TypeError, ValueError):
        raise JobError(f"priority must be an integer, "
                       f"got {payload.get('priority')!r}") from None
    options = _parse_options(payload.get("options"))
    kind = payload["kind"]
    return Job(id=job_id, kind=kind,
               key=_job_key(kind, points, estimate),
               payload=dict(payload), priority=priority,
               points=points, estimate=estimate, options=options,
               submitted_at=time.time())


class JobJournal:
    """Crash-safe record of accepted-but-unfinished jobs.

    One JSON file per job under ``root``, written atomically (tmp +
    ``os.replace``) on acceptance and unlinked on completion.  Whatever
    is present at startup is work a previous server accepted but never
    finished — :meth:`recover` returns it oldest-first so a restarted
    server re-enqueues in the original arrival order.
    """

    def __init__(self, root=DEFAULT_JOURNAL_DIR) -> None:
        self.root = Path(root)

    def _path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def record(self, job: Job) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(job.id)
        entry = {"id": job.id, "payload": job.payload,
                 "submitted_at": job.submitted_at}
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f"{path.name}.tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(entry, f)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def discard(self, job_id: str) -> None:
        try:
            self._path(job_id).unlink()
        except OSError:
            pass

    def recover(self) -> List[Dict[str, Any]]:
        """Journal entries oldest-first; unreadable files are dropped
        (and removed) rather than wedging startup forever."""
        entries = []
        if not self.root.exists():
            return entries
        for path in sorted(self.root.glob("*.json"),
                           key=lambda p: p.stat().st_mtime):
            try:
                with open(path) as f:
                    entry = json.load(f)
                if not isinstance(entry, dict) or "id" not in entry \
                        or "payload" not in entry:
                    raise ValueError("not a journal entry")
            except (OSError, ValueError):
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            entries.append(entry)
        return entries

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json")) \
            if self.root.exists() else 0

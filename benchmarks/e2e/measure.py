"""Measurement primitives shared by the harness: nearest-rank
percentiles, process-tree CPU and memory from ``/proc``, the hardware
fingerprint, and the in-memory span recorder.

Everything here is *host* time; nothing in this file knows about the
simulator.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# --- percentiles -------------------------------------------------------------

def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the
    nearest-rank ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness figure the regression bounds are judged
    against.  Fewer than two values have no spread."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else math.inf


# --- process tree ------------------------------------------------------------

def stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` split after the parenthesised command name
    (which may itself contain spaces); index 0 is the state field."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rfind(")") + 2:].split()


def process_tree(roots: Iterable[int]) -> List[int]:
    """``roots`` plus every live descendant, found by one pass over
    ``/proc`` (zombies are included: their CPU is still theirs until
    the parent reaps them)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    seen: List[int] = []
    frontier = [pid for pid in roots if stat_fields(pid) is not None]
    while frontier:
        pid = frontier.pop()
        if pid not in seen:
            seen.append(pid)
            frontier.extend(children.get(pid, ()))
    return seen


def cpu_seconds(pids: Iterable[int]) -> float:
    """User+system CPU of the given processes *and of the children
    they have already reaped*, so work done by a worker that exited is
    not lost between two readings.  ``/proc`` counts in clock ticks
    (10 ms); this process's own share comes from its nanosecond CPU
    clock instead."""
    ticks = 0
    own = 0.0
    for pid in pids:
        fields = stat_fields(pid)
        if fields is None:
            continue
        # utime, stime, cutime, cstime: stat fields 14-17.
        if pid == os.getpid():
            own = time.process_time()
            ticks += int(fields[13]) + int(fields[14])
        else:
            ticks += sum(int(value) for value in fields[11:15])
    return own + ticks / _CLK_TCK


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed peak resident set (``VmHWM``) of the given processes."""
    total_kb = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
        except OSError:
            continue
    return total_kb / 1024.0


def alive(pid: int) -> bool:
    """Whether ``pid`` is a running (non-zombie) process."""
    fields = stat_fields(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def wait_gone(pids: Iterable[int], timeout: float = 5.0) -> List[int]:
    """Wait for every pid to end; returns the ones still running."""
    deadline = time.monotonic() + timeout
    left = [pid for pid in pids if alive(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.02)
        left = [pid for pid in left if alive(pid)]
    return left


# --- fingerprint -------------------------------------------------------------

def fingerprint(repo_root: Path) -> Dict[str, object]:
    """Where and on what these numbers were taken."""
    commit = None
    # Only ask git about this checkout, never about a repository that
    # happens to enclose it (the driver's checkout has no .git).
    if (repo_root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(repo_root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "git_commit": commit,
        "load_average": list(os.getloadavg()),
    }


# --- spans -------------------------------------------------------------------

class Tracer:
    """In-memory span recorder.

    A span is ``{"id", "name", "start", "end", "parent", "op"}`` with
    times in seconds on the ``time.perf_counter`` clock; spans of one
    operation share its ``op`` identifier.  A layer's *self time* is its
    span's duration minus the part its child spans cover
    (:func:`self_times`).  A disabled tracer records nothing and its
    context manager costs one attribute test, so the untraced run and
    the traced run execute the same harness code.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._lock = threading.Lock()  # client threads record concurrently

    def _append(self, record: Dict[str, object]) -> int:
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        return record["id"]

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op: Optional[str] = None,
            **extra) -> Optional[int]:
        if not self.enabled:
            return None
        return self._append({"name": name, "start": start, "end": end,
                             "parent": parent, "op": op, **extra})

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             op: Optional[str] = None) -> Iterator[Optional[int]]:
        if not self.enabled:
            yield None
            return
        record = {"name": name, "start": time.perf_counter(),
                  "end": None, "parent": parent, "op": op}
        try:
            yield self._append(record)
        finally:
            record["end"] = time.perf_counter()


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Total self time per span name: each span's duration minus the
    summed duration of its direct children (children recorded from
    aggregate counters do not overlap each other, so the sum is the
    covered part)."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None and span["end"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) \
                + (span["end"] - span["start"])
    out: Dict[str, float] = {}
    for span in spans:
        if span["end"] is None:
            continue
        own = (span["end"] - span["start"]) - covered.get(span["id"], 0.0)
        out[span["name"]] = out.get(span["name"], 0.0) + max(0.0, own)
    return out

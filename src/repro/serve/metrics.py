"""Service counters and wall-clock percentiles for ``GET /metrics``.

Plain integers plus a bounded ring of recent job durations — cheap
enough to update on every request from the event loop, rich enough to
answer the operational questions: is the queue backing up, is dedup
actually firing, how slow is the p99 job?
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Optional

#: Recent completed-job durations kept for percentile estimates.
DURATION_WINDOW = 512

COUNTERS = (
    "submitted",            # every POST /v2/jobs received
    "accepted",             # enqueued as a new job
    "deduped",              # coalesced onto an identical active job
    "rejected_queue_full",  # bounced with 429
    "rejected_draining",    # bounced with 503 during drain
    "invalid",              # bounced with 400
    "recovered",            # re-enqueued from the journal at startup
    "completed",            # finished with status "done"
    "failed",               # finished with status "failed"
    "cancelled_jobs",       # cancelled via DELETE /v2/jobs/<id>
    "evicted_jobs",         # terminal jobs dropped after their TTL
    "trimmed_events",       # event-log entries trimmed by the size bound
    "cache_pruned",         # result-cache entries removed by idle pruning
)


class ServerMetrics:
    """Monotonic counters plus a sliding window of job durations."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.durations: Deque[float] = deque(maxlen=DURATION_WINDOW)
        self.started_at = time.time()

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def observe_duration(self, seconds: float) -> None:
        self.durations.append(seconds)

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile of the recent-duration window."""
        if not self.durations:
            return None
        ordered = sorted(self.durations)
        rank = min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)
                                                 - 0.5)))
        return ordered[int(rank)]

    def snapshot(self, *, queue_depth: int, in_flight: int,
                 draining: bool, cache=None, pool=None) -> Dict[str, object]:
        """The ``GET /metrics`` body."""
        out: Dict[str, object] = {
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": queue_depth,
            "in_flight": in_flight,
            "draining": draining,
            **self.counters,
            "wall_seconds_p50": self.percentile(50),
            "wall_seconds_p90": self.percentile(90),
            "wall_seconds_p99": self.percentile(99),
        }
        if cache is not None:
            out["cache_hits"] = cache.hits
            out["cache_misses"] = cache.misses
            out["cache_hit_rate"] = cache.hit_rate
        if pool is not None:
            out.update({f"pool_{name}": value
                        for name, value in pool.stats().items()})
        return out

"""The asyncio HTTP simulation service (``repro serve``).

One process, three layers:

* the **HTTP front** — the shared :class:`~repro.serve.http.HttpService`
  core (request reader, route table, drain lifecycle); this module is
  its *local* job backend;
* an **event-loop core** owning all mutable state: the bounded
  priority :class:`~repro.serve.queue.JobQueue`, the single-flight
  dedup index, per-job event logs and the
  :class:`~repro.serve.metrics.ServerMetrics` counters;
* one warm :class:`~repro.exp.pool.WorkerPool` of spawn-once worker
  processes that the loop itself drives (readers on the worker pipes,
  see :meth:`~repro.exp.pool.WorkerPool.attach`).  Up to ``--workers``
  jobs run at once, each as one pool batch: a run or experiment job's
  cache misses (the orchestrator's
  :class:`~repro.exp.orchestrator.PointLedger` does the cache pre-pass
  and the per-point bookkeeping), or an ``estimate`` job's single
  task.  Every job body therefore gets the same per-task wall-clock
  cap, crash isolation and kill-to-cancel, and the loop thread never
  computes.

Memory stays bounded over a long-lived server: terminal jobs are
evicted ``--job-ttl`` seconds after finishing, per-job event logs keep
only the newest ``--max-job-events`` entries, and the result cache
self-prunes to ``--cache-max-age`` / ``--cache-max-entries`` during the
periodic housekeeping pass.

The endpoints and the error envelope are documented in
:mod:`repro.serve.http`.

Lifecycle: SIGTERM/SIGINT trigger a graceful drain — new submissions
get 503, queued jobs keep dispatching until ``--drain-timeout``, then
in-flight jobs are allowed to finish (each task is already wall-clock
capped), journal entries for anything unfinished survive for the next
server, and the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from repro.exp.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.exp.orchestrator import PointLedger, RunCancelled
from repro.exp.pool import Batch, WorkerPool
from repro.serve.http import (
    LAST_CHUNK,
    HttpService,
    Reply,
    _json_safe,
    chunk,
    error_body,
    job_not_found,
    stream_head,
)
from repro.serve.jobs import (
    DEFAULT_JOURNAL_DIR,
    Job,
    JobError,
    JobJournal,
    parse_job,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.queue import JobQueue, QueueFull

#: Fallback ``Retry-After`` seconds when no duration data exists yet.
DEFAULT_RETRY_AFTER = 5

#: Server-side default wall-clock cap per simulation point or estimate;
#: payloads may override per job.  Keeps a hung task from wedging a
#: worker (and the drain) forever.
DEFAULT_POINT_TIMEOUT = 300.0


@dataclass
class ServeConfig:
    """Everything ``repro serve`` accepts on the command line."""

    host: str = "127.0.0.1"
    port: int = 8421
    workers: int = 2
    queue_limit: int = 64
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR
    journal_dir: str = DEFAULT_JOURNAL_DIR
    drain_timeout: float = 30.0
    point_timeout: Optional[float] = DEFAULT_POINT_TIMEOUT
    retries: int = 0
    processes: int = 1
    quiet: bool = False
    #: Seconds a terminal (done/failed) job stays queryable in memory
    #: before the housekeeping pass evicts it.
    job_ttl: float = 3600.0
    #: Per-job event-log bound: the newest this many events are kept;
    #: older ones are trimmed and counted in ``trimmed_events``.
    max_job_events: int = 1000
    #: Result-cache pruning policy applied by the idle housekeeping
    #: pass: entries older than ``cache_max_age`` seconds and entries
    #: beyond the newest ``cache_max_entries`` are evicted.  ``None``
    #: disables that bound.
    cache_max_age: Optional[float] = None
    cache_max_entries: Optional[int] = None
    #: Seconds between housekeeping passes (TTL eviction + cache prune).
    housekeeping_interval: float = 30.0
    #: Idle simulation workers are reaped after this many seconds
    #: (``None`` keeps the pool at full size forever; a floor of one
    #: warm worker always survives).
    pool_idle_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.drain_timeout <= 0:
            raise ValueError(
                f"drain_timeout must be > 0, got {self.drain_timeout}")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ValueError(
                f"point_timeout must be > 0, got {self.point_timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.processes < 1:
            raise ValueError(f"processes must be >= 1, got {self.processes}")
        if self.job_ttl <= 0:
            raise ValueError(f"job_ttl must be > 0, got {self.job_ttl}")
        if self.max_job_events < 2:
            # The bound must at least hold a status event and the
            # terminal "done" event.
            raise ValueError(f"max_job_events must be >= 2, "
                             f"got {self.max_job_events}")
        if self.cache_max_age is not None and self.cache_max_age < 0:
            raise ValueError(f"cache_max_age must be >= 0, "
                             f"got {self.cache_max_age}")
        if self.cache_max_entries is not None and self.cache_max_entries < 0:
            raise ValueError(f"cache_max_entries must be >= 0, "
                             f"got {self.cache_max_entries}")
        if self.housekeeping_interval <= 0:
            raise ValueError(f"housekeeping_interval must be > 0, "
                             f"got {self.housekeeping_interval}")
        if self.pool_idle_timeout is not None and self.pool_idle_timeout <= 0:
            raise ValueError(f"pool_idle_timeout must be > 0, "
                             f"got {self.pool_idle_timeout}")


class ServeApp(HttpService):
    """One running simulation service: the local-queue job backend."""

    def __init__(self, config: ServeConfig) -> None:
        super().__init__(config)
        self.cache = (ResultCache(config.cache_dir)
                      if config.cache_dir else None)
        self.journal = JobJournal(config.journal_dir)
        self.queue = JobQueue(config.queue_limit)
        self.metrics = ServerMetrics()
        self.jobs: Dict[str, Job] = {}
        self._active_keys: Dict[str, Job] = {}
        #: Running jobs' pool batches, by job id.
        self._inflight: Dict[str, Batch] = {}
        self._event_waiters: Set[asyncio.Future] = set()
        self._wake: Optional[asyncio.Event] = None
        self._dispatch_queued = True
        #: One warm simulation worker pool shared by every job: spawned
        #: once, reused across requests, so repeat fan-outs skip both
        #: process spawn and network construction.  Sized so each of
        #: the ``workers`` concurrent jobs can use its full parallelism.
        self.pool = WorkerPool(config.workers * config.processes,
                               idle_timeout_s=config.pool_idle_timeout)

    # --- lifecycle ----------------------------------------------------------

    def _startup(self) -> None:
        self._wake = asyncio.Event()
        self.pool.attach(self._loop)
        self._recover()
        self._wake.set()

    def _banner(self, url: str) -> str:
        return (f"serving on {url} ({self.config.workers} workers, "
                f"queue limit {self.config.queue_limit})")

    def _background(self):
        return self._dispatch_loop(), self._housekeeping_loop()

    def _shutdown(self) -> None:
        self.pool.close()

    async def _drain(self) -> None:
        self._log(f"drain: started ({len(self.queue)} queued, "
                  f"{len(self._inflight)} in flight, timeout "
                  f"{self.config.drain_timeout:g}s)")
        deadline = self._loop.time() + self.config.drain_timeout
        # Phase 1: let queued jobs keep dispatching until the deadline.
        while (self._inflight or self.queue) \
                and self._loop.time() < deadline:
            await asyncio.sleep(0.05)
        # Phase 2: stop starting new work; in-flight jobs finish (each
        # task is wall-clock capped, so this terminates).
        self._dispatch_queued = False
        while self._inflight:
            await asyncio.sleep(0.05)
        leftover = len(self.queue)
        if leftover:
            self._log(f"drain: {leftover} queued job(s) left journaled "
                      f"for recovery")

    def _recover(self) -> None:
        """Re-enqueue journaled jobs from a previous (killed) server."""
        for entry in self.journal.recover():
            try:
                job = parse_job(entry["payload"], entry["id"])
            except JobError as exc:
                self._log(f"recover: dropping journaled job "
                          f"{entry['id']}: {exc}")
                self.journal.discard(entry["id"])
                continue
            job.submitted_at = entry.get("submitted_at", job.submitted_at)
            self.jobs[job.id] = job
            self._active_keys.setdefault(job.key, job)
            try:
                self.queue.push(job)
            except QueueFull:
                self._log(f"recover: queue full, leaving {job.id} "
                          f"journaled")
                self.jobs.pop(job.id)
                if self._active_keys.get(job.key) is job:
                    self._active_keys.pop(job.key)
                continue
            self.metrics.inc("recovered")
        if self.metrics.counters["recovered"]:
            self._log(f"recover: re-enqueued "
                      f"{self.metrics.counters['recovered']} journaled "
                      f"job(s)")

    # --- housekeeping -------------------------------------------------------

    async def _housekeeping_loop(self) -> None:
        """Periodic idle maintenance: evict expired terminal jobs from
        memory and self-prune the on-disk result cache.

        Runs as its own task so the dispatch loop can keep blocking on
        its wake event; each pass is cheap (a dict scan) with the cache
        prune — file I/O — pushed to the default executor."""
        while True:
            await asyncio.sleep(self.config.housekeeping_interval)
            self.housekeep()
            if self.cache is not None and (
                    self.config.cache_max_age is not None
                    or self.config.cache_max_entries is not None):
                removed = await self._loop.run_in_executor(
                    None, self.cache.prune, self.config.cache_max_age,
                    self.config.cache_max_entries)
                if removed:
                    self.metrics.inc("cache_pruned", removed)
                    self._log(f"housekeeping: pruned {removed} cache "
                              f"entr{'y' if removed == 1 else 'ies'}")

    def housekeep(self, now: Optional[float] = None) -> int:
        """Evict terminal jobs older than ``job_ttl``; returns the
        count evicted.  (Split out from the loop so tests can drive it
        synchronously.)"""
        now = time.time() if now is None else now
        doomed = [job_id for job_id, job in self.jobs.items()
                  if job.terminal and job.finished_at is not None
                  and now - job.finished_at >= self.config.job_ttl]
        for job_id in doomed:
            self.jobs.pop(job_id, None)
        if doomed:
            self.metrics.inc("evicted_jobs", len(doomed))
            self._log(f"housekeeping: evicted {len(doomed)} expired "
                      f"job(s)")
        return len(doomed)

    # --- dispatch and execution ---------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._dispatch_queued \
                    and len(self._inflight) < self.config.workers:
                job = self.queue.pop()
                if job is None:
                    break
                self._start_job(job)

    def _start_job(self, job: Job) -> None:
        job.status = "running"
        job.started_at = time.time()
        self._publish(job, {"type": "status", "status": "running",
                            "queue_depth": len(self.queue)})
        options = job.options
        retries = (self.config.retries if options["retries"] is None
                   else options["retries"])
        ledger = None
        try:
            if job.kind != "estimate":
                ledger = PointLedger(job.points, cache=self.cache,
                                     progress=lambda progress: self._publish(
                                         job, {"type": "progress",
                                               **progress.to_dict()}))
            batch = self.pool.submit(
                ledger.tasks(retries) if ledger else [(0, job.estimate)],
                point_timeout=(options["point_timeout"]
                               or self.config.point_timeout),
                retries=retries,
                max_workers=options["processes"] or self.config.processes,
                finish=ledger.finish if ledger else None,
                on_done=lambda batch: self._job_done(job, batch, ledger))
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self._finish(job, "failed", error=f"{type(exc).__name__}: {exc}")
            return
        if not job.terminal:  # an all-cached job is done inside submit
            self._inflight[job.id] = batch

    def _job_done(self, job: Job, batch: Batch,
                  ledger: Optional[PointLedger]) -> None:
        """Map a drained (or aborted) batch onto the job's terminal
        status."""
        if isinstance(batch.failed, RunCancelled):
            self._finish(job, "cancelled", error="cancelled by client")
        elif batch.failed is not None:
            self._finish(job, "failed", error=f"{type(batch.failed).__name__}"
                                              f": {batch.failed}")
        elif ledger is not None:
            self._finish(job, "done", result=ledger.summary_dict())
        elif batch.results[0].ok:
            self._finish(job, "done",
                         result={"estimate": batch.results[0].result})
        else:
            self._finish(job, "failed", error=batch.results[0].error)

    def _finish(self, job: Job, status: str,
                result: Optional[Dict[str, Any]] = None,
                error: Optional[str] = None) -> None:
        """Terminal bookkeeping for every way a job ends."""
        self._inflight.pop(job.id, None)
        job.status, job.result, job.error = status, result, error
        # Only the status reply is left to serve for up to job_ttl.
        job.payload, job.points, job.estimate = None, [], None
        self.metrics.inc({"done": "completed", "failed": "failed",
                          "cancelled": "cancelled_jobs"}[status])
        job.finished_at = time.time()
        if job.started_at is not None:
            self.metrics.observe_duration(job.finished_at - job.started_at)
        self.journal.discard(job.id)
        if self._active_keys.get(job.key) is job:
            self._active_keys.pop(job.key)
        self._publish(job, {"type": "done", "status": job.status,
                            "error": job.error,
                            "wall_seconds": job.wall_seconds})
        self._wake.set()

    # --- job intake ---------------------------------------------------------

    def _note_invalid(self) -> None:
        self.metrics.inc("submitted")
        self.metrics.inc("invalid")

    async def _submit(self, payload: Any) -> Reply:
        """Accept/dedup/reject one submission; returns (HTTP status,
        body, extra headers)."""
        self.metrics.inc("submitted")
        if self.draining:
            self.metrics.inc("rejected_draining")
            return 503, error_body("draining", "server is draining",
                                   retryable=True), {}
        try:
            job = parse_job(payload, uuid.uuid4().hex[:12])
        except JobError as exc:
            self.metrics.inc("invalid")
            return 400, error_body("invalid_job", str(exc)), {}
        primary = self._active_keys.get(job.key)
        if primary is not None and not primary.terminal:
            # Single-flight: identical work is already queued or running;
            # the caller waits on the primary job and shares its result.
            primary.coalesced += 1
            self.metrics.inc("deduped")
            return 200, {"id": primary.id, "status": primary.status,
                         "key": primary.key, "deduped": True}, {}
        try:
            self.queue.push(job)
        except QueueFull:
            self.metrics.inc("rejected_queue_full")
            return (429, error_body(
                "queue_full",
                f"queue full ({self.config.queue_limit} waiting)",
                retryable=True),
                {"Retry-After": str(self._retry_after())})
        self.jobs[job.id] = job
        self._active_keys[job.key] = job
        self.journal.record(job)
        self.metrics.inc("accepted")
        self._publish(job, {"type": "status", "status": "queued",
                            "queue_depth": len(self.queue)})
        self._wake.set()
        return 202, {"id": job.id, "status": "queued", "key": job.key,
                     "deduped": False,
                     "queue_depth": len(self.queue)}, {}

    async def _cancel(self, job_id: str) -> Reply:
        """Cancel one job (``DELETE /v2/jobs/<id>``).

        Queued jobs are pulled straight out of the queue; running jobs
        cancel their pool batch, which kills and respawns the workers
        holding it (the ``point_timeout`` mechanism).  Either way the
        job is terminal on return.  Cancelling an already-cancelled job
        is an idempotent success; cancelling a done/failed job is a
        409."""
        job = self.jobs.get(job_id)
        if job is None:
            return job_not_found(job_id)
        if job.status == "cancelled":
            return 200, {"id": job.id, "status": "cancelled"}, {}
        if job.terminal:
            return 409, error_body(
                "job_already_finished",
                f"job {job_id} already {job.status}"), {}
        if job.status == "queued":
            self.queue.remove(job.id)
            self._finish(job, "cancelled", error="cancelled by client")
        else:
            self._inflight[job.id].cancel()  # _job_done finishes it
        return 200, {"id": job.id, "status": "cancelled"}, {}

    def _retry_after(self) -> int:
        """A Retry-After estimate: how long until a queue slot frees —
        roughly one median job per worker."""
        p50 = self.metrics.percentile(50)
        if p50 is None:
            return DEFAULT_RETRY_AFTER
        estimate = p50 * (len(self.queue) + 1) / self.config.workers
        return max(1, min(60, int(estimate + 0.5)))

    # --- events -------------------------------------------------------------

    def _publish(self, job: Job, event: Dict[str, Any]) -> None:
        event = {"job": job.id, "ts": round(time.time(), 3), **event}
        job.events.append(event)
        trimmed = job.trim_events(self.config.max_job_events)
        if trimmed:
            self.metrics.inc("trimmed_events", trimmed)
        for waiter in self._event_waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def _wait_event(self, timeout: float = 1.0) -> None:
        waiter = self._loop.create_future()
        self._event_waiters.add(waiter)
        try:
            await asyncio.wait_for(waiter, timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            self._event_waiters.discard(waiter)

    # --- read endpoints -----------------------------------------------------

    async def _healthz(self) -> Reply:
        return 200, {"status": "draining" if self.draining else "ok",
                     "queue_depth": len(self.queue),
                     "in_flight": len(self._inflight)}, {}

    async def _metrics(self) -> Reply:
        return 200, self.metrics.snapshot(
            queue_depth=len(self.queue), in_flight=len(self._inflight),
            draining=self.draining, cache=self.cache, pool=self.pool), {}

    async def _list(self) -> Reply:
        return 200, {"jobs": [job.public_dict(with_result=False)
                              for job in self.jobs.values()]}, {}

    async def _status(self, job_id: str) -> Reply:
        job = self.jobs.get(job_id)
        if job is None:
            return job_not_found(job_id)
        return 200, job.public_dict(), {}

    async def _stream(self, job_id: str,
                      writer: asyncio.StreamWriter) -> Optional[Reply]:
        """NDJSON: replay the job's event log, then follow it live
        until the job reaches a terminal status.

        The cursor is an absolute sequence number, so the size bound
        trimming old events under a live follower skips the trimmed
        span instead of replaying or reordering anything."""
        job = self.jobs.get(job_id)
        if job is None:
            return job_not_found(job_id)
        stream_head(writer)
        sent = 0
        while True:
            sent = max(sent, job.events_base)
            lines = []
            while sent - job.events_base < len(job.events):
                lines.append(json.dumps(
                    _json_safe(job.events[sent - job.events_base]),
                    sort_keys=True) + "\n")
                sent += 1
            if lines:
                writer.write(chunk("".join(lines).encode()))
            done = job.terminal  # "done" was its last event: all sent
            if done:
                writer.write(LAST_CHUNK)
            await writer.drain()
            if done:
                return None
            await self._wait_event()


def serve_forever(config: ServeConfig) -> int:
    """Blocking entry point for the CLI: run one server to drain."""
    app = ServeApp(config)
    return asyncio.run(app.serve())

"""Warm persistent worker pool for grid fan-out.

``run_points`` used to pay process-spawn + import + construction cost
per call (a throwaway ``multiprocessing.Pool``) and per point when a
``point_timeout`` was set (one dedicated subprocess per point).  This
module replaces both with a :class:`WorkerPool`: spawn-once worker
processes that stay warm across calls, speak a small pipe protocol
(task chunks down, begin/done/heartbeat up), enforce per-point timeouts
by killing and respawning the one worker whose in-flight point blew its
deadline, and survive worker crashes by respawning and retrying per the
existing backoff policy.

Inside each worker, a simulation-context cache keyed on
:func:`repro.sim.engine.structural_key` reuses the constructed
network/router/technology/power-binding graph across points that differ
only in injection rate, seed or traffic (via ``Network.reset()`` —
bit-identical to fresh construction, pinned by tests/test_pool.py), so
construction cost is paid once per configuration instead of once per
point.

The pool is shared: multiple threads may call :meth:`WorkerPool.run`
concurrently (the ``repro.serve`` worker threads do) and a single
dispatcher thread multiplexes their batches over the workers, capping
each batch at its own ``max_workers``.  Results are delivered to each
caller in submission order, so pool execution is observationally
identical to the serial path.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import multiprocessing.util  # ensures mp's atexit hook registers before ours
import os
import socket
import stat
import threading
import time
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.exp.orchestrator import (
    PointOutcome,
    RunCancelled,
    _execute_resilient,
)
from repro.sim.engine import SimulationContext, structural_key
from repro.sim.traffic import TRAFFIC_REGISTRY

#: Maximum points per task message.  Chunks bound pipe round-trips
#: without letting one worker hoard a small batch's tail.
CHUNK_POINTS = 4

#: Worker-side bound on cached simulation contexts (LRU) — one context
#: per structural (config, protocol) pair, evicted least-recently-used.
MAX_CONTEXTS = 8

_HEARTBEAT_INTERVAL = 0.5
_POLL_INTERVAL = 0.05


# --- worker side ---------------------------------------------------------------


def _ensure_traffic_kind(entry) -> None:
    """Adopt the parent's registry entry for this task's traffic kind.

    Payloads ship their :class:`~repro.sim.traffic.TrafficKind` so a
    worker forked before a kind was registered (tests register
    throwaway kinds at runtime) can still build it.  The parent's entry
    is authoritative — it overwrites any stale worker-side registration
    under the same name."""
    if entry is not None:
        TRAFFIC_REGISTRY[entry.name] = entry


def _run_payload(payload, contexts: "OrderedDict") -> PointOutcome:
    """Execute one orchestrator payload, reusing a cached context when
    the point carries no live references out of the run."""
    point, keep_result, retries, backoff, _capture = payload
    try:
        if keep_result:
            # The result will hold ``result.accountant``, which must not
            # alias a context the next point resets underneath it.
            return _execute_resilient(point, True, retries, backoff, True)
        key = structural_key(point.config, point.protocol)
        context = contexts.get(key)
        if context is None:
            context = SimulationContext(point.config, point.protocol)
            contexts[key] = context
            while len(contexts) > MAX_CONTEXTS:
                contexts.popitem(last=False)
        else:
            contexts.move_to_end(key)
        return _execute_resilient(point, False, retries, backoff, True,
                                  context=context)
    except Exception as exc:  # noqa: BLE001 - worker survival boundary
        return PointOutcome(
            point=point, ok=False, status="crashed",
            error=f"{type(exc).__name__}: {exc}",
        )


def _close_inherited_sockets(keep_fd: int) -> None:
    """Close every socket fd the fork copied from the parent, except
    this worker's own pipe.

    Workers fork from whatever process owns the pool — for ``repro
    serve`` that process holds a listening socket and live client
    connections.  A long-lived child keeping those fds open means the
    parent's ``close()`` never sends FIN, so NDJSON streams (which end
    on connection close) hang at the client.  Only sockets are swept:
    the duplex task pipe is a socketpair (kept via ``keep_fd``), while
    files, pipes and the parent's epoll/eventfds are left alone."""
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):
        return
    for fd in fds:
        if fd < 3 or fd == keep_fd:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _worker_main(conn) -> None:
    """Worker process entry: execute task chunks until shutdown.

    A daemon thread heartbeats every ``_HEARTBEAT_INTERVAL`` seconds —
    pure-Python simulation loops still yield the GIL, so a silent pipe
    means the worker is truly wedged, not merely busy.  ``begin``
    messages give the parent the per-point wall-clock anchor it enforces
    ``point_timeout`` against."""
    _close_inherited_sockets(conn.fileno())
    send_lock = threading.Lock()
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(_HEARTBEAT_INTERVAL):
            try:
                with send_lock:
                    conn.send(("hb",))
            except OSError:
                return

    threading.Thread(target=_beat, daemon=True,
                     name="repro-pool-heartbeat").start()
    contexts: "OrderedDict" = OrderedDict()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message is None:
                return
            for payload, kind_entry in message:
                with send_lock:
                    conn.send(("begin",))
                _ensure_traffic_kind(kind_entry)
                outcome = _run_payload(payload, contexts)
                with send_lock:
                    conn.send(("done", outcome))
    finally:
        stop.set()


# --- parent side ---------------------------------------------------------------


class _Task:
    """One point queued on the pool, owned by one batch."""

    __slots__ = ("batch", "pos", "payload", "kind_entry", "hard_attempts",
                 "not_before")

    def __init__(self, batch: "_Batch", pos: int, payload: tuple,
                 kind_entry) -> None:
        self.batch = batch
        self.pos = pos
        self.payload = payload
        self.kind_entry = kind_entry
        #: Worker deaths this task has survived (parent-side retries).
        self.hard_attempts = 0
        #: Earliest monotonic time this task may be reassigned (backoff).
        self.not_before = 0.0


class _Batch:
    """One :meth:`WorkerPool.run` call's tasks and completion state."""

    def __init__(self, indices: Sequence[int], payloads: Sequence[tuple],
                 point_timeout: Optional[float], retries: int,
                 backoff: float, max_workers: int,
                 cancel_event: Optional[threading.Event] = None) -> None:
        self.indices = list(indices)
        self.point_timeout = point_timeout
        self.retries = retries
        self.backoff = backoff
        self.max_workers = max(1, max_workers)
        #: External abort switch: once set, the dispatcher kills this
        #: batch's in-flight workers and aborts with RunCancelled.
        self.cancel_event = cancel_event
        self.cond = threading.Condition()
        self.results: List[Optional[PointOutcome]] = [None] * len(payloads)
        self.completed = 0
        self.cancelled = False
        self.failed: Optional[BaseException] = None
        self.ready: Deque[_Task] = deque(
            _Task(self, pos, payload,
                  TRAFFIC_REGISTRY.get(payload[0].traffic.name))
            for pos, payload in enumerate(payloads)
        )
        #: Workers currently holding a chunk of this batch.
        self.workers_active = 0

    def complete(self, task: _Task, outcome: PointOutcome) -> None:
        with self.cond:
            if self.cancelled or self.results[task.pos] is not None:
                return
            self.results[task.pos] = outcome
            self.completed += 1
            self.cond.notify_all()

    def abort(self, error: BaseException) -> None:
        with self.cond:
            self.cancelled = True
            self.failed = error
            self.cond.notify_all()

    @property
    def drained(self) -> bool:
        return self.cancelled or self.completed == len(self.results)


class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = ("process", "conn", "tasks", "begun", "deadline", "last_msg",
                 "batch", "idle_since")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: Assigned tasks in execution order (head is next/current).
        self.tasks: Deque[_Task] = deque()
        self.begun = False
        self.deadline: Optional[float] = None
        self.last_msg = time.monotonic()
        self.batch: Optional[_Batch] = None
        #: Monotonic time this worker last went idle (None while busy);
        #: what ``idle_timeout_s`` reaping measures against.
        self.idle_since: Optional[float] = time.monotonic()


class WorkerPool:
    """Long-lived pool of spawn-once simulation worker processes.

    Thread-safe: concurrent :meth:`run` calls multiplex over the same
    warm workers.  Workers are spawned lazily on first use and respawned
    on crash, kill or timeout; :meth:`close` shuts them down.
    """

    def __init__(self, processes: int = 1, *,
                 heartbeat_timeout: float = 30.0,
                 idle_timeout_s: Optional[float] = None) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if heartbeat_timeout <= 0:
            raise ValueError(f"heartbeat_timeout must be positive, "
                             f"got {heartbeat_timeout}")
        if idle_timeout_s is not None and idle_timeout_s <= 0:
            raise ValueError(f"idle_timeout_s must be positive, "
                             f"got {idle_timeout_s}")
        self._size = processes
        self.heartbeat_timeout = heartbeat_timeout
        #: Elasticity: a worker idle longer than this is reaped (its
        #: process shut down and dropped from the pool), never shrinking
        #: below a floor of one warm worker.  The pool re-grows to its
        #: target size lazily on the next ``run`` call.  ``None``
        #: disables reaping.
        self.idle_timeout_s = idle_timeout_s
        self._lock = threading.Lock()
        self._workers: List[_Worker] = []
        self._batches: List[_Batch] = []
        self._dispatcher: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: ``run`` and ``close`` write a byte here so the dispatcher,
        #: asleep in ``conn_wait``, picks up new work (or the stop flag)
        #: at once instead of at its next poll.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._closed = False
        # Lifetime counters (surfaced by stats() and /metrics).
        self.tasks_completed = 0
        self.respawns = 0
        self.timeouts = 0
        self.reaped = 0
        self.cancelled_batches = 0

    # --- lifecycle -----------------------------------------------------------

    @property
    def size(self) -> int:
        """Target number of worker processes."""
        return self._size

    @property
    def closed(self) -> bool:
        return self._closed

    def ensure_size(self, processes: int) -> None:
        """Grow the pool to at least ``processes`` workers (never
        shrinks — warm workers are the point)."""
        if processes > self._size:
            with self._lock:
                self._size = max(self._size, processes)

    def stats(self) -> Dict[str, int]:
        """Lifetime pool counters (JSON-safe).  ``workers`` is the
        number of live worker processes right now — after idle reaping
        it can sit below ``workers_target`` until demand re-grows the
        pool."""
        with self._lock:
            spawned = len(self._workers)
            alive = sum(1 for w in self._workers if w.process.is_alive())
        return {
            "workers": spawned,
            "workers_target": self._size,
            "workers_alive": alive,
            "tasks_completed": self.tasks_completed,
            "respawns": self.respawns,
            "timeouts": self.timeouts,
            "reaped": self.reaped,
            "cancelled_batches": self.cancelled_batches,
        }

    def close(self, join_timeout: float = 5.0) -> None:
        """Shut the workers down and stop the dispatcher."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            batches, self._batches = self._batches, []
        self._stop.set()
        self._wake()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=join_timeout)
        for batch in batches:
            batch.abort(RuntimeError("worker pool closed"))
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + join_timeout
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []
        if self._dispatcher is None or not self._dispatcher.is_alive():
            self._wake_r.close()
            self._wake_w.close()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # buffer full (a wake-up is already pending) or closed

    def _spawn_worker(self) -> _Worker:
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(target=_worker_main, args=(child_conn,),
                              daemon=True, name="repro-pool-worker")
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _ensure_running(self) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            while len(self._workers) < self._size:
                self._workers.append(self._spawn_worker())
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop, daemon=True,
                    name="repro-pool-dispatcher")
                self._dispatcher.start()

    # --- submission ----------------------------------------------------------

    def run(self, tasks: Sequence[Tuple[int, tuple]], *,
            point_timeout: Optional[float] = None,
            retries: int = 0,
            retry_backoff: float = 0.25,
            max_workers: Optional[int] = None,
            finish: Callable[[int, PointOutcome], None] = None,
            cancel_event: Optional[threading.Event] = None) -> None:
        """Execute ``(index, payload)`` tasks on the pool.

        Blocks until every task completes, calling ``finish(index,
        outcome)`` in submission order (exactly the serial path's
        ordering).  ``max_workers`` caps how many pool workers this
        batch may occupy at once, so concurrent callers share fairly.
        A ``finish`` that raises cancels the batch's unassigned tasks
        and propagates.  Setting ``cancel_event`` mid-run kills the
        batch's in-flight workers (respawned warm — the point_timeout
        mechanism) and raises :class:`RunCancelled` here.
        """
        if not tasks:
            return
        self._ensure_running()
        batch = _Batch([index for index, _ in tasks],
                       [payload for _, payload in tasks],
                       point_timeout, retries, retry_backoff,
                       max_workers or self._size,
                       cancel_event=cancel_event)
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            self._batches.append(batch)
        self._wake()
        delivered = 0
        total = len(batch.results)
        try:
            while delivered < total:
                with batch.cond:
                    while batch.results[delivered] is None:
                        if batch.failed is not None:
                            raise batch.failed
                        batch.cond.wait(timeout=1.0)
                    outcome = batch.results[delivered]
                index = batch.indices[delivered]
                delivered += 1
                finish(index, outcome)
        except BaseException:
            with batch.cond:
                batch.cancelled = True
            raise

    # --- dispatcher ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        from multiprocessing.connection import wait as conn_wait

        try:
            while not self._stop.is_set():
                self._service_cancellations()
                self._assign_work()
                with self._lock:
                    workers = list(self._workers)
                waitees = [w.conn for w in workers]
                waitees += [w.process.sentinel for w in workers]
                waitees.append(self._wake_r)
                try:
                    ready = conn_wait(waitees, timeout=_POLL_INTERVAL)
                except OSError:
                    ready = []
                now = time.monotonic()
                ready = set(ready)
                if self._wake_r in ready:
                    self._drain_wake()
                for worker in workers:
                    if worker.conn in ready:
                        self._drain_conn(worker, now)
                for worker in workers:
                    if not worker.process.is_alive():
                        self._handle_death(worker)
                    elif worker.begun and worker.deadline is not None \
                            and now > worker.deadline:
                        self._handle_timeout(worker)
                    elif worker.tasks and \
                            now - worker.last_msg > self.heartbeat_timeout:
                        self._kill_process(worker)
                        self._handle_death(worker)
                self._reap_idle(time.monotonic())
        except Exception as exc:  # noqa: BLE001 - fail loudly, not silently
            with self._lock:
                batches, self._batches = self._batches, []
            for batch in batches:
                batch.abort(RuntimeError(
                    f"pool dispatcher died: {type(exc).__name__}: {exc}"))
            raise

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass  # drained (BlockingIOError) or closed

    def _service_cancellations(self) -> None:
        """Abort batches whose cancel event fired: kill (and respawn
        warm) every worker holding one of their chunks — the same
        mechanism as a ``point_timeout`` expiry — and wake the waiting
        ``run`` call with :class:`RunCancelled`."""
        with self._lock:
            batches = list(self._batches)
            workers = list(self._workers)
        for batch in batches:
            if batch.cancelled or batch.cancel_event is None \
                    or not batch.cancel_event.is_set():
                continue
            batch.ready.clear()
            batch.abort(RunCancelled("run cancelled"))
            self.cancelled_batches += 1
            for worker in workers:
                if worker.batch is not batch:
                    continue
                self._kill_process(worker)
                worker.tasks = deque()
                self._release_batch(worker)
                self._respawn(worker)

    def _reap_idle(self, now: float) -> None:
        """Shrink the pool: shut down workers idle past
        ``idle_timeout_s``, never below a floor of one warm worker."""
        if self.idle_timeout_s is None:
            return
        doomed: List[_Worker] = []
        with self._lock:
            for worker in list(self._workers):
                if len(self._workers) - len(doomed) <= 1:
                    break  # floor: keep one warm worker
                if worker.tasks or worker.idle_since is None:
                    continue
                if now - worker.idle_since < self.idle_timeout_s:
                    continue
                doomed.append(worker)
            for worker in doomed:
                self._workers.remove(worker)
            self.reaped += len(doomed)
        for worker in doomed:
            try:
                worker.conn.send(None)
            except OSError:
                pass
            try:
                worker.conn.close()
            except OSError:
                pass

    def _assign_work(self) -> None:
        now = time.monotonic()
        with self._lock:
            self._batches = [b for b in self._batches
                             if not (b.drained and not b.ready)]
            batches = list(self._batches)
            workers = list(self._workers)
        for worker in workers:
            if worker.tasks or not worker.process.is_alive():
                continue
            chunk = self._next_chunk(batches, now)
            if chunk is None:
                return
            batch = chunk[0].batch
            batch.workers_active += 1
            worker.batch = batch
            worker.tasks.extend(chunk)
            worker.last_msg = now
            worker.idle_since = None
            try:
                worker.conn.send([(t.payload, t.kind_entry) for t in chunk])
            except (OSError, ValueError):
                # Death handler requeues the chunk next loop iteration.
                pass

    def _next_chunk(self, batches: List[_Batch],
                    now: float) -> Optional[List[_Task]]:
        for batch in batches:
            if batch.cancelled:
                batch.ready.clear()
                continue
            if not batch.ready or batch.workers_active >= batch.max_workers:
                continue
            slots = batch.max_workers - batch.workers_active
            take = max(1, min(CHUNK_POINTS,
                              math.ceil(len(batch.ready) / slots)))
            chunk: List[_Task] = []
            for _ in range(len(batch.ready)):
                if len(chunk) >= take:
                    break
                task = batch.ready.popleft()
                if task.not_before > now:
                    batch.ready.append(task)
                    continue
                chunk.append(task)
            if chunk:
                return chunk
        return None

    def _drain_conn(self, worker: _Worker, now: float) -> None:
        try:
            while worker.conn.poll():
                message = worker.conn.recv()
                worker.last_msg = now
                kind = message[0]
                if kind == "begin":
                    worker.begun = True
                    timeout = (worker.tasks[0].batch.point_timeout
                               if worker.tasks else None)
                    worker.deadline = (now + timeout
                                       if timeout is not None else None)
                elif kind == "done":
                    if not worker.tasks:
                        continue
                    task = worker.tasks.popleft()
                    worker.begun = False
                    worker.deadline = None
                    outcome = message[1]
                    outcome.attempts += task.hard_attempts
                    task.batch.complete(task, outcome)
                    self.tasks_completed += 1
                    if not worker.tasks:
                        self._release_batch(worker)
                        worker.idle_since = now
                # "hb" only refreshes last_msg.
        except (EOFError, OSError):
            pass  # the liveness pass handles the death

    def _release_batch(self, worker: _Worker) -> None:
        if worker.batch is not None:
            worker.batch.workers_active -= 1
            worker.batch = None

    def _requeue(self, tasks: Deque[_Task]) -> None:
        """Put unstarted tasks back at the front of their batches."""
        for task in reversed(tasks):
            task.batch.ready.appendleft(task)

    def _kill_process(self, worker: _Worker) -> None:
        worker.process.terminate()
        worker.process.join(2.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()

    def _respawn(self, worker: _Worker) -> None:
        # Never respawn while shutting down: interpreter exit terminates
        # daemon workers, and resurrecting them would fight the
        # multiprocessing atexit join forever.
        if self._stop.is_set() or self._closed:
            return
        try:
            worker.conn.close()
        except OSError:
            pass
        fresh = self._spawn_worker()
        worker.process = fresh.process
        worker.conn = fresh.conn
        worker.tasks = deque()
        worker.begun = False
        worker.deadline = None
        worker.last_msg = time.monotonic()
        worker.batch = None
        worker.idle_since = worker.last_msg
        self.respawns += 1

    def _handle_death(self, worker: _Worker) -> None:
        """A worker died (crash, OOM kill, heartbeat wedge): retry its
        in-flight point per the batch's policy, requeue the rest of its
        chunk, respawn."""
        worker.process.join()
        exitcode = worker.process.exitcode
        tasks = worker.tasks
        worker.tasks = deque()
        self._release_batch(worker)
        if tasks:
            if worker.begun:
                task = tasks.popleft()
                batch = task.batch
                task.hard_attempts += 1
                if task.hard_attempts <= batch.retries \
                        and not batch.cancelled:
                    task.not_before = time.monotonic() + \
                        batch.backoff * 2 ** (task.hard_attempts - 1)
                    batch.ready.appendleft(task)
                else:
                    batch.complete(task, PointOutcome(
                        point=task.payload[0], ok=False, status="crashed",
                        error=f"RuntimeError: worker exited with code "
                              f"{exitcode}",
                        attempts=task.hard_attempts,
                    ))
            self._requeue(tasks)
        self._respawn(worker)

    def _handle_timeout(self, worker: _Worker) -> None:
        """The in-flight point blew its wall-clock cap: kill the worker,
        record the timeout (deterministic — never retried, matching the
        old per-point-subprocess semantics), requeue the chunk's
        remainder, respawn."""
        self._kill_process(worker)
        task = worker.tasks.popleft()
        timeout = task.batch.point_timeout
        rest = worker.tasks
        worker.tasks = deque()
        self._release_batch(worker)
        task.batch.complete(task, PointOutcome(
            point=task.payload[0], ok=False, status="timeout",
            error=f"TimeoutError: point exceeded {timeout:g}s wall-clock",
            wall_seconds=timeout,
            attempts=task.hard_attempts + 1,
        ))
        self.timeouts += 1
        self._requeue(rest)
        self._respawn(worker)


# --- module-level shared pool ---------------------------------------------------

_default_pool: Optional[WorkerPool] = None
_default_lock = threading.Lock()


def get_default_pool(processes: int = 1) -> WorkerPool:
    """The process-wide shared pool (created on first use), grown to at
    least ``processes`` workers."""
    global _default_pool
    with _default_lock:
        if _default_pool is None or _default_pool.closed:
            _default_pool = WorkerPool(processes)
        else:
            _default_pool.ensure_size(processes)
        return _default_pool


def shutdown_default_pool() -> None:
    """Close the shared pool (tests and interpreter shutdown)."""
    global _default_pool
    with _default_lock:
        pool, _default_pool = _default_pool, None
    if pool is not None and not pool.closed:
        pool.close()


atexit.register(shutdown_default_pool)

"""Warm persistent worker pool for grid fan-out and service jobs.

A :class:`WorkerPool` keeps spawn-once worker processes warm across
calls.  They speak a small pipe protocol (task chunks down,
begin/done/heartbeat up); a task is one simulation point or one
analytic estimate.  The pool enforces per-task timeouts by killing and
respawning the one worker whose in-flight task blew its deadline, and
survives worker crashes by respawning and retrying per the backoff
policy.

Inside each worker, a simulation-context cache keyed on
:func:`repro.sim.engine.structural_key` reuses the constructed
network/router/technology/power-binding graph across points that differ
only in injection rate, seed or traffic (via ``Network.reset()`` —
bit-identical to fresh construction, pinned by tests/test_pool.py).

The parent side is a single-owner state machine with no threads or locks:
:meth:`WorkerPool.step` is one non-blocking turn.  Its owner drives
it — :meth:`WorkerPool.run` in the calling thread until its batch
drains (the CLI, the library), or the asyncio loop given to
:meth:`WorkerPool.attach` (``repro serve``).  Each :class:`Batch`
delivers its outcomes in submission order, so pool execution is
observationally identical to the serial path.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import multiprocessing.util  # ensures mp's atexit hook registers before ours
import os
import signal
import stat
import threading
import time
from collections import OrderedDict, deque
from multiprocessing.connection import wait as conn_wait
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.exp.orchestrator import (
    PointOutcome,
    RunCancelled,
    _estimate_task,
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
    """Execute one task: an estimate's decoded spec (a dict), or an
    orchestrator point payload, reusing a cached context when the point
    carries no live references out of the run."""
    point = None
    try:
        if isinstance(payload, dict):
            return _estimate_task(payload)
        point, keep_result, retries, backoff, _capture = payload
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
    the duplex task pipe is a socket pair (kept via ``keep_fd``), while
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
    messages give the parent the per-task wall-clock anchor it enforces
    ``point_timeout`` against."""
    # The fork copies the parent's handlers, and ``repro serve``'s loop
    # traps SIGTERM; the kill path's ``terminate()`` must still kill.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
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
    """One task queued on the pool, owned by one batch."""

    __slots__ = ("batch", "pos", "payload", "point", "kind_entry",
                 "hard_attempts", "not_before")

    def __init__(self, batch: "Batch", pos: int, payload) -> None:
        self.batch = batch
        self.pos = pos
        self.payload = payload
        #: The run point (None for an estimate), for parent-made outcomes.
        self.point = None if isinstance(payload, dict) else payload[0]
        self.kind_entry = (TRAFFIC_REGISTRY.get(self.point.traffic.name)
                           if self.point is not None else None)
        #: Worker deaths this task has survived (parent-side retries).
        self.hard_attempts = 0
        #: Earliest monotonic time this task may be reassigned (backoff).
        self.not_before = 0.0


class Batch:
    """One submission's ``(index, payload)`` tasks and completion state.

    Outcomes go to ``finish(index, outcome)`` in submission order as
    they arrive; ``on_done(batch)`` runs once, when the last outcome is
    delivered or the batch is aborted.  A ``finish`` that raises aborts
    the batch with that error (its unassigned tasks never run).
    ``max_workers`` (default: the pool size) caps how many workers the
    batch occupies at once, so concurrent batches share fairly."""

    def __init__(self, pool: "WorkerPool",
                 tasks: Sequence[Tuple[int, object]], *,
                 point_timeout: Optional[float] = None, retries: int = 0,
                 retry_backoff: float = 0.25,
                 max_workers: Optional[int] = None,
                 finish: Optional[Callable[[int, PointOutcome], None]] = None,
                 on_done: Optional[Callable[["Batch"], None]] = None) -> None:
        self.pool = pool
        self.indices = [index for index, _ in tasks]
        self.point_timeout = point_timeout
        self.retries = retries
        self.backoff = retry_backoff
        self.max_workers = max(1, max_workers or pool.size)
        self.finish = finish
        self.on_done = on_done
        self.results: List[Optional[PointOutcome]] = [None] * len(tasks)
        #: Outcomes handed to ``finish`` so far (a prefix of results).
        self.delivered = 0
        self.cancelled = False
        self.failed: Optional[BaseException] = None
        self.ready: Deque[_Task] = deque(
            _Task(self, pos, payload)
            for pos, (_, payload) in enumerate(tasks))
        #: Workers currently holding a chunk of this batch.
        self.workers_active = 0

    @property
    def drained(self) -> bool:
        return self.cancelled or self.delivered == len(self.results)

    def complete(self, task: _Task, outcome: PointOutcome) -> None:
        if self.cancelled or self.results[task.pos] is not None:
            return
        self.results[task.pos] = outcome
        while self.delivered < len(self.results) \
                and self.results[self.delivered] is not None:
            if self.finish is not None:
                try:
                    self.finish(self.indices[self.delivered],
                                self.results[self.delivered])
                except Exception as exc:  # noqa: BLE001 - re-raised by run
                    self.abort(exc)
                    return
            self.delivered += 1
        if self.drained and self.on_done is not None:
            self.on_done(self)

    def abort(self, error: BaseException) -> None:
        if self.drained:
            return
        self.cancelled = True
        self.failed = error
        self.ready.clear()
        if self.on_done is not None:
            self.on_done(self)

    def cancel(self) -> None:
        """Abort with :class:`RunCancelled`: unstarted tasks never run,
        and every worker holding one of this batch's chunks is killed
        and respawned warm — the ``point_timeout`` mechanism.  Call it
        from the pool's owner."""
        if self.drained:
            return
        self.pool._evict(self)
        self.abort(RunCancelled("run cancelled"))


class _Worker:
    """Parent-side handle on one worker process (fields set by
    ``_start``): ``tasks`` is its chunk in execution order, head first;
    ``idle_since`` (None while busy) is what reaping measures."""

    __slots__ = ("process", "conn", "tasks", "begun", "deadline", "last_msg",
                 "batch", "idle_since")


class WorkerPool:
    """Long-lived pool of spawn-once simulation worker processes.

    Single-owner: one caller drives it at a time — a thread inside
    :meth:`run`, or the asyncio loop given to :meth:`attach`.  A second
    thread calling :meth:`run` meanwhile gets a :class:`RuntimeError`.
    Workers are spawned lazily on first use and respawned on crash,
    kill or timeout; :meth:`close` shuts them down.
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
        #: target size lazily on the next submission.  ``None`` disables
        #: reaping.
        self.idle_timeout_s = idle_timeout_s
        self._workers: List[_Worker] = []
        self._batches: List[Batch] = []
        #: Ownership token: whoever pops it drives the pool.  ``pop`` is
        #: atomic, so two threads can never both hold it.
        self._token = [True]
        #: The asyncio loop driving the pool after :meth:`attach`, and
        #: its one pending ``call_later`` tick.
        self._loop = None
        self._tick = None
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
        self._size = max(self._size, processes)

    def stats(self) -> Dict[str, int]:
        """Lifetime pool counters (JSON-safe).  ``workers`` is the
        number of live worker processes right now — after idle reaping
        it can sit below ``workers_target`` until demand re-grows the
        pool."""
        return {
            "workers": len(self._workers),
            "workers_target": self._size,
            "workers_alive": sum(1 for w in self._workers
                                 if w.process.is_alive()),
            "tasks_completed": self.tasks_completed,
            "respawns": self.respawns,
            "timeouts": self.timeouts,
            "reaped": self.reaped,
            "cancelled_batches": self.cancelled_batches,
        }

    def attach(self, loop) -> None:
        """Hand the pool to an asyncio ``loop`` until :meth:`close`:
        readers on every worker pipe and sentinel, plus one
        ``call_later`` tick while work is in flight or a reap is due,
        run :meth:`step`.  Call it on the loop."""
        self._claim()
        self._loop = loop
        for worker in self._workers:
            self._watch(worker, True)
        self._rearm()

    def close(self, join_timeout: float = 5.0) -> None:
        """Shut the workers down and abort unfinished batches."""
        if self._closed:
            return
        self._closed = True
        batches, self._batches = self._batches, []
        for batch in batches:
            batch.abort(RuntimeError("worker pool closed"))
        self._retire(self._workers, join_timeout)
        self._workers = []
        if self._loop is not None:
            if self._tick is not None:
                self._tick.cancel()
            self._loop = None
            self._token.append(True)

    def _claim(self) -> None:
        try:
            self._token.pop()
        except IndexError:
            raise RuntimeError("worker pool is already driven by another "
                               "caller (WorkerPool is single-owner)") \
                from None

    def _retire(self, workers: List[_Worker], timeout: float) -> None:
        """Ask workers to exit, join them (terminating stragglers) and
        close their pipes."""
        for worker in workers:
            self._watch(worker, False)
            try:
                worker.conn.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    def _start(self, worker: _Worker) -> _Worker:
        """Fork a fresh process into ``worker`` with a clean slate."""
        ctx = multiprocessing.get_context()
        worker.conn, child_conn = ctx.Pipe(duplex=True)
        worker.process = ctx.Process(target=_worker_main, args=(child_conn,),
                                     daemon=True, name="repro-pool-worker")
        worker.process.start()
        child_conn.close()
        worker.tasks = deque()
        worker.begun = False
        worker.deadline = None
        worker.batch = None
        worker.last_msg = worker.idle_since = time.monotonic()
        self._watch(worker, True)
        return worker

    def _ensure_running(self) -> None:
        if self._closed:
            raise RuntimeError("worker pool is closed")
        while len(self._workers) < self._size:
            self._workers.append(self._start(_Worker()))

    def _watch(self, worker: _Worker, on: bool) -> None:
        """Add (or remove) the attached loop's readers on the worker's
        pipe and sentinel.  Removal must precede closing either fd."""
        if self._loop is None:
            return
        for fd in (worker.conn.fileno(), worker.process.sentinel):
            if on:
                self._loop.add_reader(fd, self._loop_step)
            else:
                self._loop.remove_reader(fd)

    # --- submission ----------------------------------------------------------

    def submit(self, tasks: Sequence[Tuple[int, object]],
               **options) -> Batch:
        """Queue ``tasks`` as one :class:`Batch` (``options`` are its
        keywords), hand idle workers their first chunks, and return at
        once; the owner's later :meth:`step` calls complete it.  An
        empty batch is done on return."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        batch = Batch(self, tasks, **options)
        if batch.drained:
            if batch.on_done is not None:
                batch.on_done(batch)
            return batch
        self._ensure_running()
        self._batches.append(batch)
        self._assign_work(time.monotonic())
        self._rearm()
        return batch

    def run(self, tasks: Sequence[Tuple[int, object]], **options) -> None:
        """:meth:`submit` ``tasks``, then drive the pool in the calling
        thread until they drain.  ``finish(index, outcome)`` sees them
        in submission order (exactly the serial path's ordering); the
        error of a ``finish`` that raises propagates from here."""
        if not tasks:
            return
        self._claim()
        try:
            batch = self.submit(tasks, **options)
            try:
                while not batch.drained:
                    conn_wait([w.conn for w in self._workers]
                              + [w.process.sentinel for w in self._workers],
                              timeout=_POLL_INTERVAL)
                    self.step()
            except BaseException as exc:
                batch.abort(exc)
                raise
        finally:
            self._token.append(True)
        if batch.failed is not None:
            raise batch.failed

    # --- the state machine ---------------------------------------------------

    def step(self) -> None:
        """One non-blocking turn: read every worker pipe, handle deaths,
        expired deadlines and silent workers, reap idle workers, then
        hand out work."""
        now = time.monotonic()
        for worker in list(self._workers):
            self._drain_conn(worker, now)
            if not worker.process.is_alive():
                self._handle_death(worker)
            elif worker.begun and worker.deadline is not None \
                    and now > worker.deadline:
                self._handle_timeout(worker)
            elif worker.tasks and \
                    now - worker.last_msg > self.heartbeat_timeout:
                self._kill_process(worker)
                self._handle_death(worker)
        self._reap_idle(now)
        self._assign_work(time.monotonic())
        self._rearm()

    def _on_tick(self) -> None:
        self._tick = None
        self._loop_step()

    def _loop_step(self) -> None:
        """:meth:`step` for the loop; if it raises, no batch hangs."""
        try:
            self.step()
        except Exception as exc:  # noqa: BLE001 - fail loudly, not silently
            batches, self._batches = self._batches, []
            for batch in batches:
                batch.abort(RuntimeError(
                    f"pool step failed: {type(exc).__name__}: {exc}"))
            raise

    def _rearm(self) -> None:
        """Keep one tick pending on the attached loop while a deadline,
        heartbeat or backoff could expire, or a worker could be
        reaped."""
        if self._loop is None or self._tick is not None:
            return
        if self._batches or any(w.tasks for w in self._workers):
            delay = _POLL_INTERVAL
        elif self.idle_timeout_s is not None and len(self._workers) > 1:
            delay = self.idle_timeout_s
        else:
            return
        self._tick = self._loop.call_later(delay, self._on_tick)

    def _evict(self, batch: Batch) -> None:
        """Kill and respawn every worker holding a chunk of ``batch``."""
        self.cancelled_batches += 1
        for worker in self._workers:
            if worker.batch is batch:
                self._kill_process(worker)
                self._respawn(worker)

    def _reap_idle(self, now: float) -> None:
        """Shrink the pool: shut down workers idle past
        ``idle_timeout_s``, never below a floor of one warm worker."""
        if self.idle_timeout_s is None:
            return
        for worker in list(self._workers):
            if len(self._workers) <= 1:
                break  # floor: keep one warm worker
            if worker.idle_since is None \
                    or now - worker.idle_since < self.idle_timeout_s:
                continue
            self._workers.remove(worker)
            self._retire([worker], 2.0)
            self.reaped += 1

    def _assign_work(self, now: float) -> None:
        self._batches = [b for b in self._batches if not b.drained]
        for worker in self._workers:
            if worker.tasks or not worker.process.is_alive():
                continue
            chunk = self._next_chunk(now)
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
                # The death handler requeues the chunk at the next step.
                pass

    def _next_chunk(self, now: float) -> Optional[List[_Task]]:
        for batch in self._batches:
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
                    if not worker.tasks:
                        self._release_batch(worker)
                        worker.idle_since = now
                    self.tasks_completed += 1
                    task.batch.complete(task, outcome)
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
            if not task.batch.cancelled:
                task.batch.ready.appendleft(task)

    def _kill_process(self, worker: _Worker) -> None:
        worker.process.terminate()
        worker.process.join(2.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()

    def _respawn(self, worker: _Worker) -> None:
        """Drop the worker's chunk; fork a fresh process in its place."""
        worker.tasks = deque()
        self._release_batch(worker)
        # Never respawn while shutting down: interpreter exit terminates
        # daemon workers, and resurrecting them would fight the
        # multiprocessing atexit join forever.
        if self._closed:
            return
        self._watch(worker, False)
        try:
            worker.conn.close()
        except OSError:
            pass
        self._start(worker)
        self.respawns += 1

    def _handle_death(self, worker: _Worker) -> None:
        """A worker died (crash, OOM kill, heartbeat wedge): retry its
        in-flight task per the batch's policy, requeue the rest of its
        chunk, respawn."""
        worker.process.join()
        exitcode = worker.process.exitcode
        tasks = worker.tasks
        if tasks and worker.begun:
            task = tasks.popleft()
            batch = task.batch
            task.hard_attempts += 1
            if task.hard_attempts <= batch.retries and not batch.cancelled:
                task.not_before = time.monotonic() + \
                    batch.backoff * 2 ** (task.hard_attempts - 1)
                batch.ready.appendleft(task)
            else:
                batch.complete(task, PointOutcome(
                    point=task.point, ok=False, status="crashed",
                    error=f"RuntimeError: worker exited with code "
                          f"{exitcode}",
                    attempts=task.hard_attempts,
                ))
        self._requeue(tasks)
        self._respawn(worker)

    def _handle_timeout(self, worker: _Worker) -> None:
        """The in-flight task blew its wall-clock cap: kill the worker,
        record the timeout (deterministic — never retried), requeue the
        chunk's remainder, respawn."""
        self._kill_process(worker)
        task = worker.tasks.popleft()
        timeout = task.batch.point_timeout
        rest = worker.tasks
        task.batch.complete(task, PointOutcome(
            point=task.point, ok=False, status="timeout",
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
    least ``processes`` workers.  Like any pool it has one owner at a
    time: a ``run`` on it while another thread drives it raises."""
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

"""Horizontal scale-out for the simulation service: the shard gateway.

One :class:`GatewayApp` fronts a fleet of ordinary ``repro serve``
backends ("shards").  Every job is routed by **consistent-hashing its
single-flight dedup key** onto the ring of live shards, so each key has
exactly one home shard and fleet-wide deduplication falls out of the
existing per-server dedup for free: two clients submitting identical
work through the gateway always land on the same shard, where the
second coalesces onto the first.

The store stays **shared-nothing**: each shard owns a private
content-addressed result cache (``<cache-dir>/shard-<i>``), and because
routing is stable by key, a key's cached result always lives on its
home shard — no cross-shard locking, no shared filesystem contention.

Failure handling:

* a dead shard (connection refused, timeout, or a failed health probe)
  is marked down and its key range rehashes onto the next live shard on
  the ring;
* submits are idempotent — the payload is just re-posted to the new
  home shard, where dedup absorbs any duplicate — so the gateway
  retries them transparently;
* jobs already routed to the dead shard are resubmitted to their new
  home shard and the old job id is **aliased** to the new one, so
  clients polling the old id keep working and zero accepted jobs are
  lost;
* the probe loop keeps probing dead shards and re-admits them when
  they come back (their key ranges rehash home again).

Topology entry points:

* ``repro serve --shards N`` → :func:`serve_sharded` spawns N shard
  subprocesses on ephemeral ports (via :class:`ShardSupervisor`) and
  runs the gateway in front of them; SIGTERM drains shard-by-shard.
* ``repro gateway --backend host:port ...`` → :func:`gateway_forever`
  fronts externally-managed shards.

Everything is standard library only, same as the rest of the service.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.serve.app import ServeConfig
from repro.serve.http import (
    BACKEND_ERRORS,
    LAST_CHUNK,
    HttpService,
    Reply,
    error_body,
    job_not_found,
    read_json,
    request,
    stream_head,
)
from repro.serve.jobs import JobError, parse_job

#: Statuses after which a routed job never needs failover resubmission.
TERMINAL_STATUSES = ("done", "failed", "cancelled")

#: Gateway-level counters reported at the top of ``GET /metrics``.
GATEWAY_COUNTERS = (
    "gw_submitted",        # submissions received by the gateway
    "gw_invalid",          # bounced 400 at the gateway (bad payload)
    "gw_routed",           # submissions forwarded to a shard
    "gw_retried_submits",  # submits replayed after a dead-shard error
    "gw_failover_jobs",    # routed jobs resubmitted off a dead shard
    "gw_rejected_no_shard",   # bounced 503: no live shard at all
    "gw_rejected_draining",   # bounced 503 during gateway drain
    "gw_shards_down",      # times a shard was marked unhealthy
    "gw_shards_recovered",  # times a dead shard was re-admitted
)


class ShardRing:
    """Consistent-hash ring over shard addresses.

    Each backend owns ``replicas`` pseudo-random points on a 64-bit
    ring; a key routes to the first backend point clockwise from the
    key's own hash.  Adding or removing one backend therefore only
    remaps the key ranges adjacent to its points (~1/N of the keyspace)
    instead of reshuffling everything, which is what keeps dedup and
    cache locality intact across shard failures and recoveries.
    """

    def __init__(self, backends, replicas: int = 64) -> None:
        self.backends: Tuple[str, ...] = tuple(dict.fromkeys(backends))
        if not self.backends:
            raise ValueError("ring needs at least one backend")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: List[Tuple[int, str]] = sorted(
            (self._hash(f"{backend}#{replica}"), backend)
            for backend in self.backends
            for replica in range(replicas))

    @staticmethod
    def _hash(text: str) -> int:
        digest = hashlib.sha256(text.encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def route(self, key: str,
              live: Optional[List[str]] = None) -> Optional[str]:
        """The home backend for ``key`` among ``live`` (default: all);
        ``None`` when no allowed backend exists."""
        allowed = set(self.backends if live is None else live) \
            & set(self.backends)
        if not allowed:
            return None
        start = bisect.bisect_right(self._points, (self._hash(key), ""))
        count = len(self._points)
        for step in range(count):
            _, backend = self._points[(start + step) % count]
            if backend in allowed:
                return backend
        return None

    def preference(self, key: str) -> List[str]:
        """Every backend in failover order for ``key`` (the home shard
        first, then each next-clockwise distinct backend)."""
        start = bisect.bisect_right(self._points, (self._hash(key), ""))
        count = len(self._points)
        ordered: List[str] = []
        for step in range(count):
            _, backend = self._points[(start + step) % count]
            if backend not in ordered:
                ordered.append(backend)
        return ordered


@dataclass
class GatewayConfig:
    """Everything ``repro gateway`` accepts on the command line."""

    host: str = "127.0.0.1"
    port: int = 8421
    backends: Tuple[str, ...] = ()
    #: Virtual points per backend on the hash ring.
    replicas: int = 64
    #: Seconds between health probes of every backend (the probe is
    #: also what re-admits a recovered shard).
    probe_interval: float = 2.0
    #: Per-request timeout talking to a backend.
    backend_timeout: float = 30.0
    #: Seconds each spawned shard gets to drain on shutdown.
    drain_timeout: float = 30.0
    quiet: bool = False

    def __post_init__(self) -> None:
        if not self.backends:
            raise ValueError("gateway needs at least one backend")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.probe_interval <= 0:
            raise ValueError(f"probe_interval must be > 0, "
                             f"got {self.probe_interval}")
        if self.backend_timeout <= 0:
            raise ValueError(f"backend_timeout must be > 0, "
                             f"got {self.backend_timeout}")
        if self.drain_timeout <= 0:
            raise ValueError(f"drain_timeout must be > 0, "
                             f"got {self.drain_timeout}")


class GatewayApp(HttpService):
    """One running shard gateway: the proxy-to-home-shard job backend."""

    drain_label = "gateway: drain "

    def __init__(self, config: GatewayConfig,
                 supervisor: Optional["ShardSupervisor"] = None) -> None:
        super().__init__(config)
        self.supervisor = supervisor
        self.ring = ShardRing(config.backends, config.replicas)
        self.alive: Dict[str, bool] = {b: True for b in config.backends}
        #: Last successful health snapshot per backend.
        self.shard_health: Dict[str, Dict[str, Any]] = {}
        #: job id → routing record: backend, key, payload, terminal.
        self.routes: Dict[str, Dict[str, Any]] = {}
        #: old job id → replacement id after a failover resubmission.
        self.aliases: Dict[str, str] = {}
        self.counters: Dict[str, int] = dict.fromkeys(GATEWAY_COUNTERS, 0)
        self.started_at = time.time()
        self._failing: Set[str] = set()

    # --- lifecycle ----------------------------------------------------------

    def _banner(self, url: str) -> str:
        return (f"gateway on {url} ({len(self.config.backends)} shard(s): "
                f"{', '.join(self.config.backends)})")

    def _background(self):
        return (self._probe_loop(),)

    async def _drain(self) -> None:
        """Shard-by-shard drain: each spawned shard gets a SIGTERM and
        its full drain budget *sequentially*, so at most one shard's
        worth of capacity is gone at a time while the fleet empties."""
        self._log("gateway: drain started")
        if self.supervisor is not None:
            for shard in self.supervisor.shards:
                self._log(f"gateway: draining shard-{shard.index} "
                          f"({shard.backend})")
                await self._loop.run_in_executor(
                    None, shard.stop, self.config.drain_timeout)

    # --- backend I/O --------------------------------------------------------

    async def _fetch(self, backend: str, method: str, path: str,
                     payload: Optional[Any] = None
                     ) -> Tuple[int, Dict[str, str], Any]:
        """One JSON round-trip with a backend: (status, headers, body).
        Raises :data:`BACKEND_ERRORS` when it is unreachable."""
        timeout = self.config.backend_timeout
        async with request(backend, method, path, payload,
                           timeout=timeout) as (status, headers, reader):
            return status, headers, await read_json(reader, headers,
                                                    timeout)

    async def _call(self, backend: str, method: str, path: str,
                    payload: Optional[Any] = None
                    ) -> Optional[Tuple[int, Dict[str, str], Any]]:
        """:meth:`_fetch`, or ``None`` after marking an unreachable
        backend down (failing its jobs over) — callers just move on to
        the next shard."""
        try:
            return await self._fetch(backend, method, path, payload)
        except BACKEND_ERRORS:
            await self._mark_down(backend)
            return None

    def _live(self) -> List[str]:
        return [b for b in self.config.backends if self.alive.get(b)]

    async def _mark_down(self, backend: str) -> None:
        """Flag one backend unhealthy and fail its routed jobs over to
        their next live home shard.  Idempotent and re-entrancy-safe —
        a failover already in progress is not restarted."""
        if self.alive.get(backend):
            self.alive[backend] = False
            self.counters["gw_shards_down"] += 1
            self._log(f"gateway: shard {backend} is down; rehashing its "
                      f"key range")
        if backend in self._failing:
            return
        self._failing.add(backend)
        try:
            await self._failover(backend)
        finally:
            self._failing.discard(backend)

    async def _failover(self, backend: str) -> None:
        """Resubmit every non-terminal job routed to ``backend`` to its
        new home shard, aliasing old ids to the replacements."""
        doomed = [(job_id, route)
                  for job_id, route in list(self.routes.items())
                  if route["backend"] == backend
                  and not route["terminal"]]
        moved = 0
        for job_id, route in doomed:
            if route["backend"] != backend or route["terminal"]:
                continue  # another pass already moved it
            status, out, extra = await self._submit_via(
                route["payload"], route["key"], record=False)
            if status not in (200, 202) or not isinstance(out, dict) \
                    or not out.get("id"):
                continue  # no live shard; the probe loop will retry
            new_id = out["id"]
            new_backend = extra["X-Repro-Shard"]
            route["backend"] = new_backend
            self.counters["gw_failover_jobs"] += 1
            moved += 1
            if new_id != job_id:
                self.aliases[job_id] = new_id
                self.routes[new_id] = {"backend": new_backend,
                                       "key": route["key"],
                                       "payload": route["payload"],
                                       "terminal": False}
        if doomed:
            self._log(f"gateway: resubmitted {moved}/{len(doomed)} "
                      f"job(s) off {backend}")

    async def _probe_loop(self) -> None:
        """Detect silent shard death and re-admit recovered shards."""
        while True:
            await asyncio.sleep(self.config.probe_interval)
            for backend in self.config.backends:
                try:
                    status, _, health = await self._fetch(
                        backend, "GET", "/healthz")
                except BACKEND_ERRORS:
                    status, health = 0, None
                if status == 200 and isinstance(health, dict):
                    self.shard_health[backend] = health
                    if not self.alive.get(backend):
                        self.alive[backend] = True
                        self.counters["gw_shards_recovered"] += 1
                        self._log(f"gateway: shard {backend} recovered; "
                                  f"re-admitted to the ring")
                elif self.alive.get(backend):
                    await self._mark_down(backend)

    # --- job backend --------------------------------------------------------

    async def _submit_via(self, payload: Any, key: str, *,
                          record: bool = True) -> Reply:
        """Route one parsed submission to its home shard, retrying on
        the next live shard when the home shard is dead (the submit is
        idempotent: the shard's dedup absorbs any duplicate)."""
        tried: Set[str] = set()
        while True:
            live = [b for b in self._live() if b not in tried]
            backend = self.ring.route(key, live=live)
            if backend is None:
                self.counters["gw_rejected_no_shard"] += 1
                return 503, error_body(
                    "shard_unavailable",
                    "no live shard can take this job",
                    retryable=True), {}
            reply = await self._call(backend, "POST", "/v2/jobs", payload)
            if reply is None:
                tried.add(backend)
                self.counters["gw_retried_submits"] += 1
                continue
            status, headers, out = reply
            if record and isinstance(out, dict) and out.get("id"):
                self.routes[out["id"]] = {
                    "backend": backend, "key": key,
                    "payload": payload, "terminal": False}
                self.counters["gw_routed"] += 1
            extra = {"X-Repro-Shard": backend}
            if headers.get("retry-after"):
                extra["Retry-After"] = headers["retry-after"]
            return status, out, extra

    def _note_invalid(self) -> None:
        self.counters["gw_submitted"] += 1
        self.counters["gw_invalid"] += 1

    async def _submit(self, payload: Any) -> Reply:
        self.counters["gw_submitted"] += 1
        if self.draining:
            self.counters["gw_rejected_draining"] += 1
            return 503, error_body("draining", "gateway is draining",
                                   retryable=True), {}
        try:
            key = parse_job(payload, "route").key
        except JobError as exc:
            self.counters["gw_invalid"] += 1
            return 400, error_body("invalid_job", str(exc)), {}
        return await self._submit_via(payload, key)

    def _resolve(self, job_id: str
                 ) -> Tuple[str, Optional[Dict[str, Any]]]:
        """Follow failover aliases to the live id + routing record."""
        seen: Set[str] = set()
        while job_id in self.aliases and job_id not in seen:
            seen.add(job_id)
            job_id = self.aliases[job_id]
        return job_id, self.routes.get(job_id)

    async def _locate(self, job_id: str
                      ) -> Tuple[str, Optional[Dict[str, Any]], List[str]]:
        """The live id of a job, its routing record and the shards to
        ask for it: its home shard (failing the job over first if that
        shard died; no shard at all when there is nowhere to fail over
        to), or — for a job the gateway has no route for (submitted
        directly to a shard, or the gateway restarted) — every live
        shard."""
        final_id, route = self._resolve(job_id)
        if route is None:
            return final_id, None, self._live()
        if not self.alive.get(route["backend"]):
            await self._mark_down(route["backend"])
            final_id, route = self._resolve(job_id)
            if not self.alive.get(route["backend"]):
                return final_id, route, []
        return final_id, route, [route["backend"]]

    def _lost_job(self, job_id: str, route: Optional[Dict[str, Any]]
                  ) -> Reply:
        """The reply once every shard that could hold a job was asked."""
        if route is None:
            return job_not_found(job_id)
        return 503, error_body("shard_unavailable",
                               f"no live shard holds job {job_id!r}",
                               retryable=True), {}

    async def _proxy_job(self, method: str, job_id: str) -> Reply:
        """Proxy one per-job request (status/cancel) to the shard
        holding the job; a shard that dies under the call fails the job
        over and the loop re-locates it."""
        for _ in range(len(self.config.backends) + 1):
            final_id, route, candidates = await self._locate(job_id)
            for backend in candidates:
                reply = await self._call(backend, method,
                                         f"/v2/jobs/{final_id}")
                if reply is None or (route is None and reply[0] == 404):
                    continue
                status, _, out = reply
                if route is not None and status == 200 \
                        and isinstance(out, dict) \
                        and out.get("status") in TERMINAL_STATUSES:
                    route["terminal"] = True
                return status, out, {"X-Repro-Shard": backend}
            if route is None or not candidates:
                break
        return self._lost_job(job_id, route)

    async def _status(self, job_id: str) -> Reply:
        return await self._proxy_job("GET", job_id)

    async def _cancel(self, job_id: str) -> Reply:
        return await self._proxy_job("DELETE", job_id)

    async def _stream(self, job_id: str,
                      writer: asyncio.StreamWriter) -> Optional[Reply]:
        """Proxy one NDJSON event stream from the shard holding the job,
        relaying its chunked body verbatim.

        A shard death mid-stream truncates the stream: the gateway
        closes the client connection on the unterminated body (the
        client re-requests and lands on the failover shard).  A dead
        shard at request time fails over first like any other per-job
        call."""
        timeout = self.config.backend_timeout
        for _ in range(len(self.config.backends) + 1):
            final_id, route, candidates = await self._locate(job_id)
            for backend in candidates:
                shard = {"X-Repro-Shard": backend}
                streaming = False
                try:
                    async with request(
                            backend, "GET", f"/v2/jobs/{final_id}/events",
                            timeout=timeout) as (status, headers, reader):
                        if route is None and status == 404:
                            continue  # try the next shard
                        if status != 200:
                            return status, await read_json(
                                reader, headers, timeout), shard
                        stream_head(writer, shard)
                        streaming = True
                        tail = b""
                        while True:
                            data = await reader.read(4096)
                            if not data:
                                break
                            writer.write(data)
                            await writer.drain()
                            tail = (tail + data)[-len(LAST_CHUNK):]
                        if tail != LAST_CHUNK:
                            writer.close()  # truncated; the client retries
                        return None
                except BACKEND_ERRORS:
                    if streaming:
                        writer.close()  # truncated; the client retries
                        return None
                    await self._mark_down(backend)
            if route is None or not candidates:
                break
        return self._lost_job(job_id, route)

    async def _list(self) -> Reply:
        jobs: List[Dict[str, Any]] = []
        for backend in self._live():
            status, _, out = await self._call(
                backend, "GET", "/v2/jobs") or (0, None, None)
            if status == 200 and isinstance(out, dict):
                for job in out.get("jobs", ()):
                    jobs.append({**job, "shard": backend})
        return 200, {"jobs": jobs}, {}

    async def _healthz(self) -> Reply:
        shards = {}
        for backend in self.config.backends:
            entry: Dict[str, Any] = {
                "alive": bool(self.alive.get(backend)),
                **self.shard_health.get(backend, {}),
            }
            if self.supervisor is not None:
                entry["pid"] = self.supervisor.pid_of(backend)
            shards[backend] = entry
        return 200, {
            "status": "draining" if self.draining else "ok",
            "role": "gateway",
            "shards": shards,
            "shards_alive": len(self._live()),
            "shards_total": len(self.config.backends),
        }, {}

    async def _metrics(self) -> Reply:
        """Fleet metrics: gateway counters at the top, every shard's
        snapshot under ``shards``, and an ``aggregate`` that sums the
        counters/gauges (percentiles and rates take the fleet max)."""
        snapshots: Dict[str, Dict[str, Any]] = {}
        for backend in self._live():
            status, _, out = await self._call(
                backend, "GET", "/metrics") or (0, None, None)
            if status == 200 and isinstance(out, dict):
                snapshots[backend] = out
        aggregate: Dict[str, Any] = {}
        maxed = re.compile(r"^(wall_seconds_p\d+|uptime_seconds"
                           r"|cache_hit_rate)$")
        for snap in snapshots.values():
            for name, value in snap.items():
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)):
                    continue
                if maxed.match(name):
                    current = aggregate.get(name)
                    aggregate[name] = value if current is None \
                        else max(current, value)
                else:
                    aggregate[name] = aggregate.get(name, 0) + value
        return 200, {
            "role": "gateway",
            "uptime_seconds": time.time() - self.started_at,
            **self.counters,
            "shards_alive": len(self._live()),
            "shards_total": len(self.config.backends),
            "aggregate": aggregate,
            "shards": snapshots,
        }, {}


# --- shard supervision ------------------------------------------------------

_SERVING_RE = re.compile(r"serving on http://([^\s/]+)")


class ShardProc:
    """One spawned ``repro serve`` subprocess and its log pump."""

    def __init__(self, index: int, process: subprocess.Popen,
                 quiet: bool) -> None:
        self.index = index
        self.process = process
        self.quiet = quiet
        self.backend: Optional[str] = None
        self.ready = threading.Event()
        self._thread = threading.Thread(
            target=self._pump, name=f"shard-{index}-log", daemon=True)
        self._thread.start()

    def _pump(self) -> None:
        """Forward shard log lines (prefixed) and capture the bound
        address from the startup banner."""
        try:
            for line in self.process.stdout:
                line = line.rstrip("\n")
                if self.backend is None:
                    match = _SERVING_RE.search(line)
                    if match:
                        self.backend = match.group(1)
                        self.ready.set()
                if not self.quiet:
                    print(f"[shard-{self.index}] {line}", flush=True)
        finally:
            self.ready.set()  # EOF: the shard died or drained

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self, drain_timeout: float) -> None:
        """SIGTERM the shard and wait out its graceful drain; escalate
        to SIGKILL only if the drain budget expires."""
        if self.process.poll() is not None:
            return
        self.process.terminate()
        try:
            self.process.wait(drain_timeout + 5.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(5.0)


class ShardSupervisor:
    """Spawn and manage N shard subprocesses on ephemeral ports."""

    def __init__(self, config: ServeConfig, count: int) -> None:
        if count < 1:
            raise ValueError(f"shards must be >= 1, got {count}")
        self.config = config
        self.count = count
        self.shards: List[ShardProc] = []

    def _shard_argv(self, index: int) -> List[str]:
        config = self.config
        argv = [sys.executable, "-m", "repro", "serve",
                "--host", config.host, "--port", "0",
                "--workers", str(config.workers),
                "--queue-limit", str(config.queue_limit),
                "--journal-dir",
                os.path.join(config.journal_dir, f"shard-{index}"),
                "--drain-timeout", str(config.drain_timeout),
                "--retries", str(config.retries),
                "--job-processes", str(config.processes),
                "--job-ttl", str(config.job_ttl),
                "--max-job-events", str(config.max_job_events)]
        if config.cache_dir:
            argv += ["--cache-dir",
                     os.path.join(config.cache_dir, f"shard-{index}")]
        else:
            argv += ["--no-cache"]
        if config.point_timeout is not None:
            argv += ["--point-timeout", str(config.point_timeout)]
        if config.cache_max_age is not None:
            argv += ["--cache-max-age", str(config.cache_max_age)]
        if config.cache_max_entries is not None:
            argv += ["--cache-max-entries",
                     str(config.cache_max_entries)]
        if config.pool_idle_timeout is not None:
            argv += ["--pool-idle-timeout",
                     str(config.pool_idle_timeout)]
        return argv

    def start(self, timeout: float = 30.0) -> List[str]:
        """Spawn every shard and return their ``host:port`` addresses
        (parsed from each shard's startup banner)."""
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        for index in range(self.count):
            process = subprocess.Popen(
                self._shard_argv(index), env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True)
            self.shards.append(ShardProc(index, process,
                                         self.config.quiet))
        deadline = time.monotonic() + timeout
        for shard in self.shards:
            remaining = max(0.1, deadline - time.monotonic())
            if not shard.ready.wait(remaining) or shard.backend is None:
                self.shutdown()
                raise RuntimeError(
                    f"shard-{shard.index} failed to start within "
                    f"{timeout:g}s")
        return [shard.backend for shard in self.shards]

    def pid_of(self, backend: str) -> Optional[int]:
        for shard in self.shards:
            if shard.backend == backend:
                return shard.pid
        return None

    def shutdown(self) -> None:
        """Hard stop every shard that is still alive (safety net for
        abnormal gateway exits; the graceful path is the gateway's
        shard-by-shard drain)."""
        for shard in self.shards:
            if shard.process.poll() is None:
                shard.process.kill()
        for shard in self.shards:
            try:
                shard.process.wait(5.0)
            except subprocess.TimeoutExpired:
                pass


# --- entry points -----------------------------------------------------------

def gateway_forever(config: GatewayConfig,
                    supervisor: Optional[ShardSupervisor] = None) -> int:
    """Blocking entry for ``repro gateway``: front existing shards."""
    app = GatewayApp(config, supervisor=supervisor)
    return asyncio.run(app.serve())


def serve_sharded(config: ServeConfig, shards: int, *,
                  probe_interval: float = 2.0,
                  replicas: int = 64) -> int:
    """Blocking entry for ``repro serve --shards N``: spawn N shard
    servers on ephemeral ports, then run the gateway in front of them
    on ``config.host:config.port``."""
    supervisor = ShardSupervisor(config, shards)
    try:
        backends = supervisor.start()
        gateway = GatewayConfig(
            host=config.host, port=config.port,
            backends=tuple(backends),
            replicas=replicas,
            probe_interval=probe_interval,
            drain_timeout=config.drain_timeout,
            quiet=config.quiet)
        return gateway_forever(gateway, supervisor=supervisor)
    finally:
        supervisor.shutdown()

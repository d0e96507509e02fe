"""Blocking stdlib client for the simulation service.

:class:`ServeClient` is what scripts (and the ``repro submit`` CLI)
use to target a warm server instead of paying a cold CLI process per
query: submit a job payload, poll or stream it, cancel it, get the
result dict back.  Speaks the native ``/v2/`` API — uniform error
envelopes become the typed exceptions :class:`JobRejected`,
:class:`JobNotFound` and :class:`ShardUnavailable` (all subclasses of
:class:`ServeError`, so existing broad handlers keep working).

Connections persist (HTTP/1.1 keep-alive): each thread keeps one
``http.client`` connection for all its requests, event streams
included, and :meth:`ServeClient.close` closes every one of them,
also those of threads that have since ended.  A reused connection that
fails before any response byte (the server closed it while idle) is
replaced once; a fresh one is never retried.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

DEFAULT_BASE_URL = "http://127.0.0.1:8421"


class ServeError(RuntimeError):
    """A non-2xx server response (or no response at all).

    Carries the HTTP ``status`` (0 when the server was unreachable),
    the machine-readable v2 error ``code``, whether the server marked
    the failure ``retryable``, and, for 429 rejections, the suggested
    ``retry_after`` seconds.  The typed subclasses below are what the
    client actually raises for the common cases; catching plain
    :class:`ServeError` still catches everything.
    """

    def __init__(self, message: str, status: int = 0,
                 retry_after: Optional[float] = None,
                 code: str = "", retryable: bool = False) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
        self.code = code
        self.retryable = retryable


class JobRejected(ServeError):
    """The server refused a submission (400 invalid, 429 queue full,
    503 draining)."""


class JobNotFound(ServeError):
    """No job with that id (404) — evicted after its TTL, cancelled
    away, or never accepted."""


class ShardUnavailable(ServeError):
    """A gateway could not reach any live shard for this key (502/503
    with code ``shard_unavailable``); always retryable."""


def _classify(message: str, status: int,
              retry_after: Optional[float],
              code: str, retryable: bool) -> ServeError:
    """The right typed exception for one error response."""
    if code == "shard_unavailable":
        cls = ShardUnavailable
    elif status == 404:
        cls = JobNotFound
    elif status in (400, 409, 429, 503):
        cls = JobRejected
    else:
        cls = ServeError
    return cls(message, status=status, retry_after=retry_after,
               code=code, retryable=retryable)


def _parse_error(out: Dict[str, Any], status: int) -> tuple:
    """(message, code, retryable) from an error envelope (or from the
    plain-text body of something that is not a ``repro`` server)."""
    err = out.get("error")
    if isinstance(err, dict):
        return (err.get("message") or f"HTTP {status}",
                err.get("code") or "", bool(err.get("retryable")))
    return (err or f"HTTP {status}", "", False)


class ServeClient:
    """Talk to one ``repro serve`` instance."""

    def __init__(self, base_url: str = DEFAULT_BASE_URL, *,
                 timeout: float = 30.0) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"only http:// servers are supported, "
                             f"got {base_url!r}")
        netloc = parsed.netloc or parsed.path
        if not netloc:
            raise ValueError(f"bad server URL {base_url!r}")
        self.host, _, port = netloc.partition(":")
        self.port = int(port) if port else 8421
        self.timeout = timeout
        self._local = threading.local()
        #: Every open connection, whichever thread's slot holds it.
        self._conns: Set[http.client.HTTPConnection] = set()
        self._conns_lock = threading.Lock()

    def close(self) -> None:
        """Close every connection this client opened, in any thread
        (the next request opens a new one)."""
        with self._conns_lock:
            conns, self._conns = self._conns, set()
        for conn in conns:
            conn.close()

    def _drop(self, conn: http.client.HTTPConnection) -> None:
        conn.close()
        with self._conns_lock:
            self._conns.discard(conn)

    def _unreachable(self, exc: Exception) -> ServeError:
        return ServeError(f"server {self.host}:{self.port} unreachable: "
                          f"{exc}")

    def _open(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None
              ) -> Tuple[http.client.HTTPConnection,
                         http.client.HTTPResponse]:
        """Send one request on this thread's connection (out of its
        slot until :meth:`_release`); returns it and the response."""
        conn, self._local.conn = getattr(self._local, "conn", None), None
        if conn is not None and conn.sock is None:
            self._drop(conn)  # closed by the server or by close()
            conn = None
        reused = conn is not None
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        while True:
            if conn is None:
                conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout)
                with self._conns_lock:
                    self._conns.add(conn)
            try:
                conn.request(method, path, body=payload, headers=headers)
                return conn, conn.getresponse()
            except (http.client.RemoteDisconnected, BrokenPipeError,
                    ConnectionResetError) as exc:
                self._drop(conn)
                if not reused:
                    raise self._unreachable(exc) from None
                conn, reused = None, False  # closed while idle: once more
            except (OSError, http.client.HTTPException) as exc:
                self._drop(conn)
                raise self._unreachable(exc) from None

    def _release(self, conn: http.client.HTTPConnection) -> None:
        """Put a connection whose response was read in full back in
        this thread's slot."""
        held, self._local.conn = getattr(self._local, "conn", None), conn
        if held is not None:
            self._drop(held)

    def _reply(self, conn: http.client.HTTPConnection,
               response: http.client.HTTPResponse) -> Dict[str, Any]:
        """Read a whole JSON (or plain-text) response, give the
        connection back, and raise the typed exception for a non-2xx
        one."""
        try:
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._drop(conn)
            raise self._unreachable(exc) from None
        self._release(conn)
        try:
            out = json.loads(data) if data else {}
        except ValueError:
            out = {"error": data.decode(errors="replace")}
        if response.status >= 400:
            retry_after = response.headers.get("Retry-After")
            message, code, retryable = _parse_error(out, response.status)
            raise _classify(message, response.status,
                            float(retry_after) if retry_after else None,
                            code, retryable)
        return out

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        return self._reply(*self._open(method, path, body))

    # --- core calls ---------------------------------------------------------

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one job payload; returns the acceptance dict
        (``{"id", "status", "key", "deduped"}``).  Raises
        :class:`JobRejected` on rejection (400/429/503)."""
        return self._request("POST", "/v2/jobs", payload)

    def submit_many(self, payloads: List[Dict[str, Any]]
                    ) -> List[Dict[str, Any]]:
        """Submit many payloads in one pipelined request
        (``POST /v2/jobs:batch``) instead of one round-trip each.

        Returns one acceptance dict per payload, in order, each with an
        ``http_status`` field (202 accepted, 200 deduped, 400/429/503
        bounced) — a bounced entry never raises, so callers can retry
        just the rejects."""
        out = self._request("POST", "/v2/jobs:batch",
                            {"jobs": list(payloads)})
        return out.get("jobs", [])

    def status(self, job_id: str) -> Dict[str, Any]:
        """Current status + result of one job."""
        return self._request("GET", f"/v2/jobs/{job_id}")

    def jobs(self) -> Dict[str, Any]:
        """Summaries of every job the server knows about."""
        return self._request("GET", "/v2/jobs")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel one job (``DELETE /v2/jobs/<id>``).

        A queued job leaves the queue; a running one has the pool
        workers holding it killed and respawned.  Either way the job is
        terminal on reply (``{"status": "cancelled"}``).  Raises
        :class:`JobNotFound` for unknown ids and :class:`JobRejected`
        (409) for already-finished jobs."""
        return self._request("DELETE", f"/v2/jobs/{job_id}")

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    # --- conveniences -------------------------------------------------------

    def wait(self, job_id: str, *, timeout: Optional[float] = None,
             poll_interval: float = 0.2) -> Dict[str, Any]:
        """Poll until the job reaches a terminal status; returns its
        final status dict (with result).  Raises :class:`ServeError`
        after ``timeout`` seconds."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            state = self.status(job_id)
            if state.get("status") in ("done", "failed", "cancelled"):
                return state
            if deadline is not None and time.monotonic() > deadline:
                raise ServeError(
                    f"job {job_id} still {state.get('status')!r} after "
                    f"{timeout:g}s")
            time.sleep(poll_interval)

    def submit_and_wait(self, payload: Dict[str, Any], *,
                        timeout: Optional[float] = None,
                        poll_interval: float = 0.2) -> Dict[str, Any]:
        """Submit, then wait; deduplicated submissions transparently
        wait on the coalesced primary job."""
        accepted = self.submit(payload)
        return self.wait(accepted["id"], timeout=timeout,
                         poll_interval=poll_interval)

    def stream(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Yield the job's NDJSON progress events live, ending after
        the terminal ``{"type": "done"}`` event.  Raises
        :class:`ServeError` if the stream breaks off before that (a
        gateway whose shard died mid-stream); the next request then
        goes down a new connection."""
        conn, response = self._open("GET", f"/v2/jobs/{job_id}/events")
        if response.status >= 400:
            self._reply(conn, response)  # raises the typed error
        done = False
        try:
            for line in response:
                if line.strip():
                    event = json.loads(line)
                    done = event.get("type") == "done"
                    yield event
        except (OSError, http.client.HTTPException) as exc:
            raise ServeError(f"event stream of job {job_id} broke off: "
                             f"{exc}") from None
        finally:
            if done and response.isclosed():
                self._release(conn)
            else:
                self._drop(conn)  # cut short: never reuse a half-read socket
        if not done:
            raise ServeError(f"event stream of job {job_id} ended before "
                             f"its done event")

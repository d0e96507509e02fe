"""The one HTTP/1.1 core under ``repro serve`` and the shard gateway.

A deliberately small implementation (request line, headers,
Content-Length body, chunked event streams) so the whole service stays
stdlib-only.  :class:`HttpService` owns everything the single server
and the gateway have in common — the request reader, the fixed route
table, JSON/NDJSON response heads, the batch tally and the
serve/drain lifecycle — and the two apps are *job backends* behind it
(local queue vs. proxy-to-home-shard) that implement only ``_submit
_cancel _status _list _stream _healthz _metrics``.  Endpoints::

    POST   /v2/jobs             submit (202; 200+deduped; 400/429/503)
    POST   /v2/jobs:batch       submit many in one request (200 + per-
                                entry http_status)
    GET    /v2/jobs             all jobs, summaries
    GET    /v2/jobs/<id>        status + result
    GET    /v2/jobs/<id>/events NDJSON progress stream (live until done)
    DELETE /v2/jobs/<id>        cancel (queued: immediate; running:
                                kill-and-respawn the workers holding it)
    GET    /healthz             liveness + drain state
    GET    /metrics             queue/dedup/cache/percentile counters

Every non-2xx response body is the uniform error envelope
``{"error": {"code", "message", "retryable"}}`` so clients branch on a
machine-readable code instead of parsing prose.  Hostile input never
escapes as an exception: a malformed request line, a malformed or
negative ``Content-Length`` or an over-long header line is a 400, a
body above :data:`MAX_BODY_BYTES` is a 413 sent without reading it, an
HTTP/1.0 event-stream request (it could not decode the chunks) is a
505, and anything a handler fails to catch is a logged 500.

Connections persist (HTTP/1.1 keep-alive; an event stream ends with
the zero-length chunk).  The server closes one after an HTTP/1.0 or
``Connection: close`` request, a non-2xx reply or a stream its backend
cut short, on drain (idle ones at once) and after :data:`IO_TIMEOUT`
idle; only a JSON reply that closes says ``Connection: close``.

:func:`request` is the client half (one ``Connection: close`` round
trip to a backend), used by the gateway for both JSON calls and stream
proxying.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import math
import signal
import threading
from typing import Any, Dict, Optional, Set, Tuple

logger = logging.getLogger("repro.serve.http")

#: Seconds a peer gets to deliver each line of a request head (and an
#: idle keep-alive connection to start its next request).
IO_TIMEOUT = 30.0

#: Largest request body accepted; job payloads are a few KiB.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Entries of one batch submitted concurrently.
BATCH_CONCURRENCY = 16

#: What an unreachable or misbehaving backend raises out of
#: :func:`request` / :func:`read_json`.
BACKEND_ERRORS = (OSError, asyncio.TimeoutError)

REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
           404: "Not Found", 405: "Method Not Allowed",
           409: "Conflict", 413: "Payload Too Large",
           429: "Too Many Requests", 500: "Internal Server Error",
           502: "Bad Gateway", 503: "Service Unavailable",
           505: "HTTP Version Not Supported"}

#: What a handler returns: (HTTP status, JSON body, extra headers).
Reply = Tuple[int, Dict[str, Any], Dict[str, str]]


def error_body(code: str, message: str,
               retryable: bool = False) -> Dict[str, Any]:
    """The uniform error envelope every non-2xx response carries."""
    return {"error": {"code": code, "message": message,
                      "retryable": retryable}}


def job_not_found(job_id: str) -> Reply:
    return 404, error_body("job_not_found", f"no such job {job_id!r}"), {}


class HttpError(Exception):
    """A request the core answers itself with an error envelope."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


def _json_safe(obj):
    """Recursively replace NaN/inf with ``None`` so ``json.dumps`` emits
    strict JSON (curl/jq choke on bare ``NaN`` tokens).  Every response
    body and stream event goes through here."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return obj


def _head(first: str, headers: Dict[str, str], close: bool = False) -> bytes:
    lines = [first, *(f"{name}: {value}" for name, value in headers.items())]
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


#: The zero-length chunk that ends a chunked body.
LAST_CHUNK = b"0\r\n\r\n"


def chunk(data: bytes) -> bytes:
    """``data`` framed as one chunk of a chunked body."""
    return b"%x\r\n%s\r\n" % (len(data), data)


async def read_head(reader: asyncio.StreamReader,
                    timeout: float) -> Tuple[str, Dict[str, str]]:
    """First line + lower-cased headers of one request or response
    (an empty first line means the peer closed without sending)."""
    headers: Dict[str, str] = {}
    try:
        first = await asyncio.wait_for(reader.readline(), timeout)
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
    except ValueError:  # a line over the StreamReader's 64 KiB limit
        raise HttpError(400, "bad_request", "header line too long") from None
    return first.decode("latin-1"), headers


def body_length(headers: Dict[str, str]) -> int:
    """The declared ``Content-Length`` (0 when absent)."""
    text = headers.get("content-length") or "0"
    if not (text.isascii() and text.isdigit()):
        raise HttpError(400, "bad_request",
                        f"malformed Content-Length {text[:40]!r}")
    return int(text)


def stream_head(writer: asyncio.StreamWriter,
                extra_headers: Optional[Dict[str, str]] = None) -> None:
    """Start a 200 NDJSON stream response: the body follows as
    :func:`chunk` frames and ends with :data:`LAST_CHUNK`."""
    writer.write(_head("HTTP/1.1 200 OK", {
        "Content-Type": "application/x-ndjson",
        "Cache-Control": "no-store", "Transfer-Encoding": "chunked",
        **(extra_headers or {})}))


async def _close(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, RuntimeError):
        pass


# --- client half ------------------------------------------------------------

@contextlib.asynccontextmanager
async def request(backend: str, method: str, path: str,
                  payload: Optional[Any] = None, *, timeout: float):
    """Send one request to ``backend`` (``host:port``) and yield
    ``(status, headers, reader)`` positioned at the response body; the
    connection closes on exit.  Raises :data:`BACKEND_ERRORS`."""
    host, _, port = backend.rpartition(":")
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, int(port)), timeout)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        headers = {"Host": backend}
        if body:
            headers.update({"Content-Type": "application/json",
                            "Content-Length": str(len(body))})
        writer.write(_head(f"{method} {path} HTTP/1.1", headers, close=True)
                     + body)
        await writer.drain()
        try:
            line, headers = await read_head(reader, timeout)
            status = int(line.split()[1])
        except (HttpError, IndexError, ValueError):
            raise ConnectionError(
                f"bad response head from {backend}") from None
        yield status, headers, reader
    finally:
        await _close(writer)


async def read_json(reader: asyncio.StreamReader, headers: Dict[str, str],
                    timeout: float) -> Any:
    """The JSON body of a response whose head :func:`request` read."""
    try:
        length = body_length(headers)
        data = await asyncio.wait_for(
            reader.readexactly(length) if length else reader.read(),
            timeout)
    except (HttpError, asyncio.IncompleteReadError):
        raise ConnectionError("truncated backend response") from None
    try:
        return json.loads(data) if data else {}
    except ValueError:
        return error_body("bad_gateway", data.decode(errors="replace"))


# --- server half ------------------------------------------------------------

class HttpService:
    """Listener, route table and drain lifecycle shared by
    :class:`~repro.serve.app.ServeApp` and
    :class:`~repro.serve.shard.GatewayApp`.

    ``config`` needs ``host``, ``port`` and ``quiet``.  Subclasses
    implement the job-backend coroutines named in the module docstring
    plus the lifecycle hooks :meth:`_banner`, :meth:`_background`,
    :meth:`_drain`, :meth:`_note_invalid` and (optionally)
    :meth:`_startup` / :meth:`_shutdown`.
    """

    #: Prefix of the drain log lines (``drain: `` / ``gateway: drain ``).
    drain_label = "drain: "

    def __init__(self, config) -> None:
        self.config = config
        self.draining = False
        #: Bound port, available once :attr:`ready` is set (``--port 0``
        #: binds an ephemeral port).
        self.port: Optional[int] = None
        self.ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_requested: Optional[asyncio.Event] = None
        #: Keep-alive connections waiting for their next request.
        self._idle: Set[asyncio.StreamWriter] = set()

    # --- lifecycle ----------------------------------------------------------

    def _log(self, message: str) -> None:
        if not self.config.quiet:
            print(message, flush=True)

    def _startup(self) -> None:
        """Backend state that needs the running loop, before listening."""

    def _shutdown(self) -> None:
        """Release backend resources after the listener closed."""

    async def serve(self) -> int:
        """Run until drained; returns the process exit code (0)."""
        self._loop = asyncio.get_running_loop()
        self._drain_requested = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._begin_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or platform without signal support
        self._startup()
        server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port)
        self.port = server.sockets[0].getsockname()[1]
        self._log(self._banner(f"http://{self.config.host}:{self.port}"))
        self.ready.set()
        tasks = [self._loop.create_task(coro) for coro in self._background()]
        try:
            await self._drain_requested.wait()
            await self._drain()
        finally:
            for task in tasks:
                task.cancel()
            server.close()
            await server.wait_closed()
            self._shutdown()
        self._log(f"{self.drain_label}complete, exiting 0")
        return 0

    def request_drain(self) -> None:
        """Thread-safe external drain trigger (what SIGTERM calls)."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._begin_drain)
            except RuntimeError:
                pass  # loop already closed

    def _begin_drain(self) -> None:
        self.draining = True
        self._drain_requested.set()
        for writer in self._idle:
            writer.close()  # its handler sees EOF and returns

    # --- request handling ---------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """Serve one connection's requests in turn (see the module
        docstring for when it closes)."""
        try:
            idle = False
            while await self._serve_one(reader, writer, idle):
                idle = True
        except ConnectionError:
            pass  # the peer went away before reading the answer
        finally:
            await _close(writer)

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter, idle: bool) -> bool:
        """Read and answer one request; ``True`` keeps the connection
        open.  A drain closes an ``idle`` one (past its first request)
        while it waits."""
        keep = False
        try:
            if idle:
                self._idle.add(writer)
            try:
                request_line, headers = await read_head(reader, IO_TIMEOUT)
            finally:
                self._idle.discard(writer)
            if not request_line or writer.is_closing():
                return False  # the peer hung up, or a drain closed it
            try:
                method, target, version = request_line.split(None, 2)
            except ValueError:
                raise HttpError(400, "bad_request",
                                "malformed request line") from None
            http11 = version.strip() == "HTTP/1.1"
            keep = http11 and \
                "close" not in headers.get("connection", "").lower()
            length = body_length(headers)
            if length > MAX_BODY_BYTES:
                raise HttpError(
                    413, "payload_too_large",
                    f"body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit")
            body = await reader.readexactly(length) if length else b""
            reply = await self._route(method, target.split("?", 1)[0],
                                      body, writer, http11)
        except HttpError as exc:
            reply = exc.status, error_body(exc.code, str(exc)), {}
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError):
            return False  # the peer stalled or went away mid-request
        except Exception as exc:  # noqa: BLE001 - must keep serving
            logger.exception("unhandled error serving a request")
            reply = 500, error_body(
                "internal_error", f"{type(exc).__name__}: {exc}"), {}
        keep = keep and not self.draining and not writer.is_closing()
        if reply is None:
            return keep  # a stream; a backend that cut it short closed it
        keep = keep and 200 <= reply[0] < 300
        await self._send_json(writer, *reply, close=not keep)
        return keep

    def _json(self, body: bytes) -> Any:
        try:
            return json.loads(body or b"null")
        except ValueError:
            self._note_invalid()
            raise HttpError(400, "invalid_json",
                            "body is not valid JSON") from None

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter,
                     http11: bool) -> Optional[Reply]:
        """Dispatch one request to the backend; ``None`` means the
        handler already wrote the response (a stream)."""
        parts = path.split("/")
        job = parts[3] if parts[:3] == ["", "v2", "jobs"] \
            and len(parts) > 3 else None
        if path == "/healthz":
            routes = {"GET": self._healthz}
        elif path == "/metrics":
            routes = {"GET": self._metrics}
        elif path == "/v2/jobs":
            routes = {"GET": self._list,
                      "POST": lambda: self._submit(self._json(body))}
        elif path == "/v2/jobs:batch":
            routes = {"POST": lambda: self._submit_batch(self._json(body))}
        elif job is not None and len(parts) == 4:
            routes = {"GET": lambda: self._status(job),
                      "DELETE": lambda: self._cancel(job)}
        elif job is not None and parts[4:] == ["events"]:
            if not http11:
                raise HttpError(505, "http_version_not_supported",
                                "event streams need HTTP/1.1 (chunked)")
            routes = {"GET": lambda: self._stream(job, writer)}
        else:
            raise HttpError(404, "not_found", f"no such endpoint {path!r}")
        if method not in routes:
            raise HttpError(405, "method_not_allowed",
                            f"{method} is not supported on {path!r}")
        return await routes[method]()

    async def _submit_batch(self, payload: Any) -> Reply:
        """Accept many submissions in one request (``POST
        /v2/jobs:batch``).

        Each entry goes through the exact single-submission path —
        validation, dedup, queue bounds, routing, metrics — and gets
        its own per-entry ``http_status`` in the response, so one bad
        or bounced entry never poisons its neighbours.  The response is
        200 as long as the batch itself was well-formed."""
        if not isinstance(payload, dict) or \
                not isinstance(payload.get("jobs"), list):
            self._note_invalid()
            return 400, error_body("invalid_batch",
                                   "batch payload needs a 'jobs' list"), {}
        gate = asyncio.Semaphore(BATCH_CONCURRENCY)

        async def one(entry: Any) -> Reply:
            async with gate:
                return await self._submit(entry)

        replies = await asyncio.gather(
            *(one(entry) for entry in payload["jobs"]))
        statuses = [status for status, _, _ in replies]
        accepted, deduped = statuses.count(202), statuses.count(200)
        headers = {"Retry-After": extra["Retry-After"]
                   for _, _, extra in replies if "Retry-After" in extra}
        return (200, {"jobs": [{**out, "http_status": status}
                               for status, out, _ in replies],
                      "accepted": accepted, "deduped": deduped,
                      "rejected": len(replies) - accepted - deduped},
                headers)

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         body: Dict[str, Any],
                         extra_headers: Optional[Dict[str, str]] = None,
                         close: bool = True) -> None:
        payload = json.dumps(_json_safe(body), sort_keys=True).encode()
        writer.write(_head(
            f"HTTP/1.1 {status} {REASONS.get(status, 'Error')}",
            {"Content-Type": "application/json",
             "Content-Length": str(len(payload)),
             **(extra_headers or {})}, close) + payload)
        await writer.drain()

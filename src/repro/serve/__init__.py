"""``repro.serve`` — the long-lived simulation service.

Orion's value is *cheap* architectural exploration: many small
parameterized queries over the same models.  The CLI answers each one
in a fresh process; this package answers them from a warm server
instead — shared in-flight work, a shared on-disk result cache, and
sub-millisecond analytic estimates over HTTP:

* :class:`~repro.serve.app.ServeApp` / :func:`~repro.serve.app.serve_forever`
  — the asyncio HTTP service (``repro serve``): bounded priority job
  queue with 429 backpressure, single-flight dedup on result-cache
  keys, NDJSON progress streaming, crash-safe job journal and
  SIGTERM-triggered graceful drain;
* :class:`~repro.serve.shard.GatewayApp` /
  :func:`~repro.serve.shard.serve_sharded` — the consistent-hash shard
  gateway (``repro serve --shards N`` / ``repro gateway``): routes
  every job to its home shard by dedup key, retries idempotent submits
  around dead shards, aggregates fleet health and metrics;
* :class:`~repro.serve.http.HttpService` — the one HTTP/1.1 core
  (request reader, route table, drain lifecycle) both of the above are
  job backends of;
* :class:`~repro.serve.client.ServeClient` — the blocking stdlib
  client (``repro submit``): submit / wait / stream / cancel, speaking
  the ``/v2/`` API with typed errors;
* :mod:`~repro.serve.jobs` — the job JSON schema, riding the
  :mod:`repro.exp.spec` serialization round-trips.

Everything is standard library only — no new runtime dependencies.
"""

from repro.serve.app import (
    DEFAULT_POINT_TIMEOUT,
    ServeApp,
    ServeConfig,
    serve_forever,
)
from repro.serve.client import (
    DEFAULT_BASE_URL,
    JobNotFound,
    JobRejected,
    ServeClient,
    ServeError,
    ShardUnavailable,
)
from repro.serve.jobs import (
    DEFAULT_JOURNAL_DIR,
    JOB_KINDS,
    Job,
    JobError,
    JobJournal,
    parse_job,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.queue import JobQueue, QueueFull
from repro.serve.shard import (
    GatewayApp,
    GatewayConfig,
    ShardRing,
    ShardSupervisor,
    gateway_forever,
    serve_sharded,
)

__all__ = [
    "DEFAULT_BASE_URL",
    "DEFAULT_JOURNAL_DIR",
    "DEFAULT_POINT_TIMEOUT",
    "GatewayApp",
    "GatewayConfig",
    "JOB_KINDS",
    "Job",
    "JobError",
    "JobJournal",
    "JobNotFound",
    "JobQueue",
    "JobRejected",
    "QueueFull",
    "ServeApp",
    "ShardUnavailable",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerMetrics",
    "ShardRing",
    "ShardSupervisor",
    "gateway_forever",
    "parse_job",
    "serve_forever",
    "serve_sharded",
]

"""Parallel experiment execution with caching and progress reporting.

The orchestrator takes a list of :class:`RunPoint` (usually expanded
from an :class:`ExperimentSpec`), serves whatever it can from a
:class:`ResultCache`, fans the remaining points out over a warm
:class:`repro.exp.pool.WorkerPool` of spawn-once worker processes, and
reports per-point progress (points done/total, cycles simulated,
wall-clock per point, cache hit rate) through a caller-supplied hook.

Each point is failure-isolated: a :class:`DeadlockError` or
:class:`SimulationTimeout` at one (config, traffic, rate) point is
recorded in its :class:`PointOutcome` and does not kill the rest of the
sweep (``on_error="record"``; the Orion facade uses ``"raise"`` to keep
its historical behaviour).

Workers receive only picklable data — the traffic pattern is rebuilt in
the worker from its :class:`TrafficSpec` — so *any* registered traffic
kind parallelises, not just uniform/broadcast.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.report import SweepPoint, SweepResult
from repro.sim.engine import (
    DeadlockError,
    Simulation,
    SimulationResult,
    SimulationTimeout,
)
from repro.sim.topology import topology_for
from repro.exp.cache import ResultCache
from repro.exp.spec import ExperimentSpec, RunPoint

_ERROR_TYPES = {
    "DeadlockError": DeadlockError,
    "SimulationTimeout": SimulationTimeout,
}


class RunCancelled(RuntimeError):
    """A worker-pool batch was cancelled before it drained.

    :meth:`repro.exp.pool.Batch.cancel` records it as the batch's
    failure: in-flight pool workers are killed and respawned warm (the
    same mechanism as a ``point_timeout`` expiry) and unstarted tasks
    are abandoned.  The ``repro.serve`` job service maps this onto the
    terminal ``"cancelled"`` job status.
    """


@dataclass
class PointOutcome:
    """What one run point produced: a summary, or a recorded failure."""

    #: The run point (``None`` inside a stored cache entry and for an
    #: analytic estimate run as a pool task).
    point: RunPoint
    ok: bool
    #: Terminal status of the point: "ok"; "stalled"/"max_cycles" (the
    #: simulation's watchdogs fired — recorded whether the run raised or
    #: finished under ``on_stall="finish"``); "crashed" (the worker
    #: raised an unexpected exception, retries exhausted); "timeout"
    #: (the point exceeded ``point_timeout`` wall-clock seconds and its
    #: worker process was terminated).
    status: str = "ok"
    error: Optional[str] = None
    avg_latency: float = 0.0
    total_power_w: float = 0.0
    throughput_flits_per_cycle: float = 0.0
    breakdown_w: Dict[str, float] = field(default_factory=dict)
    total_cycles: int = 0
    wall_seconds: float = 0.0
    from_cache: bool = False
    #: Full simulation result; carried only when the orchestrator ran
    #: with ``keep_results=True``.  An estimate task carries its JSON
    #: summary here instead.
    result: Optional[SimulationResult] = None
    #: Windowed telemetry record; carried (and cached) whenever the
    #: protocol's ``telemetry_window`` is non-zero.
    telemetry: Optional[object] = None
    #: Execution attempts this outcome took (> 1 after crash retries).
    attempts: int = 1

    def raise_error(self) -> None:
        """Re-raise a recorded failure as its original exception type."""
        if self.ok:
            return
        name, _, message = (self.error or "").partition(": ")
        raise _ERROR_TYPES.get(name, RuntimeError)(message or self.error)

    def summary_dict(self) -> Dict[str, object]:
        """A flat, JSON-safe summary of this outcome (no pickled
        simulation payloads) — the shape the ``repro.serve`` job
        service returns and streams.  Telemetry, when recorded, is
        compacted through :func:`repro.telemetry.telemetry_summary`."""
        summary = {
            "describe": self.point.describe(),
            "label": self.point.label,
            "traffic": self.point.traffic.describe(),
            "rate": self.point.rate,
            "seed": self.point.protocol.seed,
            "ok": self.ok,
            "status": self.status,
            "error": self.error,
            "avg_latency": self.avg_latency,
            "total_power_w": self.total_power_w,
            "throughput_flits_per_cycle": self.throughput_flits_per_cycle,
            "breakdown_w": dict(self.breakdown_w),
            "total_cycles": self.total_cycles,
            "wall_seconds": self.wall_seconds,
            "from_cache": self.from_cache,
            "attempts": self.attempts,
        }
        if self.telemetry is not None:
            from repro.telemetry import telemetry_summary
            summary["telemetry"] = telemetry_summary(self.telemetry)
        return summary

    def to_sweep_point(self) -> SweepPoint:
        return SweepPoint(
            rate=self.point.rate,
            avg_latency=self.avg_latency if self.ok else math.nan,
            total_power_w=self.total_power_w,
            throughput_flits_per_cycle=self.throughput_flits_per_cycle,
            breakdown_w=dict(self.breakdown_w),
            result=self.result,
            error=self.error,
            status=self.status,
        )


@dataclass
class Progress:
    """Snapshot handed to the progress hook after every finished point."""

    done: int
    total: int
    outcome: PointOutcome
    cache_hits: int
    failures: int
    #: Cycles simulated so far (fresh runs only — cache hits cost none).
    cycles_simulated: int
    elapsed_seconds: float
    #: Points not served from the cache so far (``done - cache_hits``),
    #: mirroring :class:`ResultCache`'s miss counter for this run.
    cache_misses: int = 0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.done if self.done else 0.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe snapshot of this progress event; the
        ``repro.serve`` NDJSON progress stream emits these verbatim."""
        return {
            "done": self.done,
            "total": self.total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "failures": self.failures,
            "cycles_simulated": self.cycles_simulated,
            "elapsed_seconds": self.elapsed_seconds,
            "point": self.outcome.summary_dict(),
        }


ProgressHook = Callable[[Progress], None]


def fanout_progress(*hooks: Optional[ProgressHook]) -> ProgressHook:
    """Combine several progress hooks into one (``None`` entries are
    skipped) — e.g. a console printer plus a streaming publisher."""
    live = [hook for hook in hooks if hook is not None]

    def fan(progress: Progress) -> None:
        for hook in live:
            hook(progress)
    return fan


def _execute_point(point: RunPoint, keep_result: bool,
                   context=None) -> PointOutcome:
    """Run one point to completion, capturing failures as outcomes.

    ``context`` is an optional :class:`~repro.sim.engine.SimulationContext`
    whose constructed network graph is reset and reused instead of
    rebuilt — bit-identical to fresh construction, and only offered for
    points that do not carry live references out of the run
    (``keep_result=False``).
    """
    start = time.perf_counter()
    topo = topology_for(point.config)
    traffic = point.traffic.build(topo, point.rate, point.protocol.seed)
    sim = Simulation(point.config, traffic, point.protocol, context=context)
    try:
        result = sim.run()
    except (DeadlockError, SimulationTimeout) as exc:
        status = ("stalled" if isinstance(exc, DeadlockError)
                  else "max_cycles")
        return PointOutcome(
            point=point, ok=False, status=status,
            error=f"{type(exc).__name__}: {exc}",
            total_cycles=sim.network.cycle,
            wall_seconds=time.perf_counter() - start,
        )
    collect = point.protocol.collect_power
    ok = result.status == "ok"
    return PointOutcome(
        point=point, ok=ok, status=result.status,
        error=None if ok else f"terminated: {result.status}",
        avg_latency=result.avg_latency,
        total_power_w=result.total_power_w if collect else 0.0,
        throughput_flits_per_cycle=result.throughput_flits_per_cycle,
        breakdown_w=result.power_breakdown_w() if collect else {},
        total_cycles=result.total_cycles,
        wall_seconds=time.perf_counter() - start,
        result=result if keep_result else None,
        telemetry=result.telemetry,
    )


def _execute_resilient(point: RunPoint, keep_result: bool,
                       retries: int, backoff: float,
                       capture: bool, context=None) -> PointOutcome:
    """Run one point, retrying unexpected worker crashes.

    Simulation-level failures (deadlock, timeout, watchdog statuses)
    are deterministic and never retried — only *unexpected* exceptions
    (a buggy traffic generator, a transient OS error) get another
    attempt, with exponential backoff.  When attempts are exhausted the
    crash is either captured as a ``status="crashed"`` outcome
    (``on_error="record"``) or re-raised.
    """
    attempt = 0
    while True:
        attempt += 1
        start = time.perf_counter()
        try:
            outcome = _execute_point(point, keep_result, context=context)
            outcome.attempts = attempt
            return outcome
        except Exception as exc:  # noqa: BLE001 - crash isolation boundary
            if attempt <= retries:
                if backoff > 0:
                    time.sleep(backoff * 2 ** (attempt - 1))
                continue
            if not capture:
                raise
            return PointOutcome(
                point=point, ok=False, status="crashed",
                error=f"{type(exc).__name__}: {exc}",
                wall_seconds=time.perf_counter() - start,
                attempts=attempt,
            )


def _estimate_task(spec) -> PointOutcome:
    """Pool-worker entry for one analytic estimate (a ``repro serve``
    job); its JSON-safe summary rides in ``result``."""
    from repro.analytic import estimate

    start = time.perf_counter()
    est = estimate(spec["config"], spec["traffic"], spec["rate"],
                   **spec["params"])
    return PointOutcome(point=None, ok=True, result=est.summary_dict(),
                        wall_seconds=time.perf_counter() - start)


class PointLedger:
    """One ``run_points`` call's bookkeeping, shared by the blocking
    :func:`run_points` and the ``repro serve`` job loop: construction
    runs the cache pre-pass (misses land in :attr:`pending`), and
    :meth:`finish` records each outcome — cache store, counters,
    progress hook, ``on_error`` policy."""

    def __init__(self, points: Sequence[RunPoint], *,
                 cache: Optional[ResultCache] = None,
                 keep_results: bool = False,
                 progress: Optional[ProgressHook] = None,
                 on_error: str = "record") -> None:
        self.points = list(points)
        self.cache = cache
        self.keep_results = keep_results
        self.progress = progress
        self.on_error = on_error
        self.outcomes: List[Optional[PointOutcome]] = [None] * len(points)
        self.done = self.cache_hits = self.failures = self.cycles = 0
        self._start = time.perf_counter()
        self._keys = [point.cache_key() for point in self.points] \
            if cache is not None else None
        #: Indices of the points the cache could not serve.
        self.pending: List[int] = []
        for index, point in enumerate(self.points):
            hit = cache.load(self._keys[index]) if cache is not None \
                else None
            if hit is not None and point.protocol.telemetry_window \
                    and hit.telemetry is None:
                hit = None  # entry predates telemetry for this key
            if hit is not None and (not keep_results
                                    or hit.result is not None):
                hit.point = point
                hit.from_cache = True
                if not keep_results:
                    hit.result = None
                self.finish(index, hit)
            else:
                self.pending.append(index)

    def tasks(self, retries: int = 0, retry_backoff: float = 0.25):
        """The pending points as worker-pool ``(index, payload)`` tasks;
        workers capture crashes, :meth:`finish` applies ``on_error``."""
        return [(index, (self.points[index], self.keep_results, retries,
                         retry_backoff, True))
                for index in self.pending]

    def finish(self, index: int, outcome: PointOutcome) -> None:
        self.outcomes[index] = outcome
        self.done += 1
        if outcome.from_cache:
            self.cache_hits += 1
        else:
            self.cycles += outcome.total_cycles
            if self.cache is not None:
                # Entries are point-free: a hit takes the caller's point.
                self.cache.store(self._keys[index],
                                 replace(outcome, point=None))
        if not outcome.ok:
            self.failures += 1
        if self.progress is not None:
            self.progress(Progress(
                done=self.done, total=len(self.points), outcome=outcome,
                cache_hits=self.cache_hits, failures=self.failures,
                cycles_simulated=self.cycles,
                elapsed_seconds=time.perf_counter() - self._start,
                cache_misses=self.done - self.cache_hits))
        if not outcome.ok and self.on_error == "raise":
            outcome.raise_error()

    def summary_dict(self) -> Dict[str, object]:
        """The JSON-safe result of a run or experiment job."""
        return {"num_points": len(self.outcomes), "failures": self.failures,
                "cache_hits": self.cache_hits,
                "cycles_simulated": self.cycles,
                "points": [o.summary_dict() for o in self.outcomes]}


def run_points(points: Sequence[RunPoint], *,
               processes: int = 1,
               cache: Optional[ResultCache] = None,
               keep_results: bool = False,
               progress: Optional[ProgressHook] = None,
               on_error: str = "record",
               point_timeout: Optional[float] = None,
               retries: int = 0,
               retry_backoff: float = 0.25,
               pool: Optional[object] = None) -> List[PointOutcome]:
    """Execute run points, in order, with caching and parallelism.

    ``on_error="record"`` isolates per-point failures; ``"raise"``
    re-raises the first one (after caching it, so a resumed sweep does
    not recompute the doomed point).

    Parallel work (``processes > 1``), wall-clock capped work
    (``point_timeout``), or an explicitly supplied ``pool`` all dispatch
    onto a warm :class:`repro.exp.pool.WorkerPool` of spawn-once worker
    processes (the shared default pool unless ``pool`` is given) that
    reuse simulation contexts across points sharing a structural
    (config, protocol) pair.  A point that exceeds ``point_timeout``
    wall-clock seconds has its worker killed and is recorded as
    ``status="timeout"``; the worker is respawned warm for the rest of
    the batch.  ``retries`` re-runs a point whose worker crashed with an
    unexpected exception (or died outright), sleeping
    ``retry_backoff * 2**(attempt-1)`` seconds between attempts.
    """
    if on_error not in ("record", "raise"):
        raise ValueError(f"on_error must be 'record' or 'raise', "
                         f"got {on_error!r}")
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if point_timeout is not None and point_timeout <= 0:
        raise ValueError(f"point_timeout must be positive, "
                         f"got {point_timeout}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if retry_backoff < 0:
        raise ValueError(f"retry_backoff must be >= 0, "
                         f"got {retry_backoff}")
    points = list(points)
    if not points:
        raise ValueError("experiment needs at least one run point")

    ledger = PointLedger(points, cache=cache, keep_results=keep_results,
                         progress=progress, on_error=on_error)
    pending = ledger.pending
    use_pool = bool(pending) and (
        pool is not None
        or point_timeout is not None
        or (processes > 1 and len(pending) > 1)
    )
    if use_pool:
        from repro.exp.pool import get_default_pool

        workers = max(1, min(processes, len(pending)))
        active = pool if pool is not None else get_default_pool(workers)
        active.run(ledger.tasks(retries, retry_backoff),
                   point_timeout=point_timeout,
                   retries=retries, retry_backoff=retry_backoff,
                   max_workers=workers, finish=ledger.finish)
    else:
        capture = on_error == "record"
        for index in pending:
            ledger.finish(index, _execute_resilient(
                points[index], keep_results, retries, retry_backoff,
                capture))
    return ledger.outcomes


@dataclass
class ExperimentResult:
    """All outcomes of one orchestrated experiment, in grid order."""

    outcomes: List[PointOutcome]
    wall_seconds: float = 0.0

    @property
    def num_points(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> List[PointOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.from_cache)

    @property
    def simulated(self) -> int:
        return self.num_points - self.cache_hits

    @property
    def cycles_simulated(self) -> int:
        return sum(o.total_cycles for o in self.outcomes if not o.from_cache)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.num_points if self.num_points else 0.0

    @property
    def cache_misses(self) -> int:
        """Points that had to be simulated because the cache missed."""
        return self.simulated

    def select(self, label: Optional[str] = None,
               traffic: Optional[str] = None,
               seed: Optional[int] = None) -> List[PointOutcome]:
        """Outcomes filtered by group label, traffic name and/or seed."""
        return [o for o in self.outcomes
                if (label is None or o.point.label == label)
                and (traffic is None or o.point.traffic.name == traffic)
                and (seed is None or o.point.protocol.seed == seed)]

    def sweep(self, label: Optional[str] = None,
              traffic: Optional[str] = None,
              seed: Optional[int] = None,
              sweep_label: Optional[str] = None) -> SweepResult:
        """One latency/power curve assembled from matching outcomes."""
        selected = self.select(label, traffic, seed)
        if not selected:
            raise ValueError(
                f"no outcomes match label={label!r} traffic={traffic!r} "
                f"seed={seed!r}"
            )
        return outcomes_to_sweep(selected, label=sweep_label)

    def sweeps(self) -> Dict[tuple, SweepResult]:
        """Every (label, traffic, seed) group as its own sweep, in grid
        order."""
        groups: Dict[tuple, List[PointOutcome]] = {}
        for outcome in self.outcomes:
            key = (outcome.point.label, outcome.point.traffic.describe(),
                   outcome.point.protocol.seed)
            groups.setdefault(key, []).append(outcome)
        many_seeds = len({seed for _, _, seed in groups}) > 1
        out = {}
        for key, group in groups.items():
            label, traffic, seed = key
            parts = [label or group[0].point.config.router.kind, traffic]
            if many_seeds:
                parts.append(f"seed={seed}")
            out[key] = outcomes_to_sweep(group, label=" ".join(parts))
        return out

    def summary(self) -> str:
        """One-line accounting of the run, for logs and the CLI."""
        return (f"{self.num_points} points: {self.simulated} simulated, "
                f"{self.cache_hits} cached "
                f"({self.cache_hit_rate:.0%} hit rate), "
                f"{len(self.failures)} failed; "
                f"{self.cycles_simulated} cycles in "
                f"{self.wall_seconds:.1f}s")


def outcomes_to_sweep(outcomes: Iterable[PointOutcome],
                      label: Optional[str] = None) -> SweepResult:
    """Assemble outcomes (one traffic curve) into a :class:`SweepResult`."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no outcomes to assemble")
    first = outcomes[0].point
    label = label or first.label or first.config.router.kind
    return SweepResult(label=label,
                       points=[o.to_sweep_point() for o in outcomes])


def run_experiment(spec: Union[ExperimentSpec, Sequence[RunPoint]], *,
                   processes: int = 1,
                   cache: Union[ResultCache, str, None] = None,
                   keep_results: bool = False,
                   progress: Optional[ProgressHook] = None,
                   on_error: str = "record",
                   point_timeout: Optional[float] = None,
                   retries: int = 0,
                   retry_backoff: float = 0.25,
                   pool: Optional[object] = None) -> ExperimentResult:
    """Run a whole experiment grid (or explicit point list).

    ``cache`` may be a :class:`ResultCache`, a directory path, or
    ``None`` to disable caching.  ``pool`` routes execution through an
    existing :class:`repro.exp.pool.WorkerPool` instead of the shared
    default one.
    """
    points = spec.points() if isinstance(spec, ExperimentSpec) else list(spec)
    if isinstance(cache, str):
        cache = ResultCache(cache)
    start = time.perf_counter()
    outcomes = run_points(points, processes=processes, cache=cache,
                          keep_results=keep_results, progress=progress,
                          on_error=on_error, point_timeout=point_timeout,
                          retries=retries, retry_backoff=retry_backoff,
                          pool=pool)
    return ExperimentResult(outcomes=outcomes,
                            wall_seconds=time.perf_counter() - start)

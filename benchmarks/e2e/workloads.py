"""The eight workloads: seeded input generation, set-up, the timed
operation, and output verification.

Inputs are plain JSON-able job specs in the shape ``repro serve``
accepts for a ``run`` job, generated from ``--seed`` alone; ``src/``
only ever sees those specs.  Every workload yields an endless
deterministic sequence of operations and the harness runs as many as
fit into the timed window, so two commits are compared on per-operation
figures over the same mix.

Three ways of reaching the same cycle kernel are measured:

* ``kernel_*``  — ``Simulation(...).run()`` in this process;
* ``grid_*``    — ``repro.exp.run_points`` on a warm ``WorkerPool`` with
  a ``ResultCache``;
* ``serve_*`` / ``fleet_light`` — jobs over HTTP to ``repro serve``
  (closed loop, two clients, each waiting for its reply before sending
  the next job).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from measure import Tracer, process_tree, wait_gone
from servers import Server

CLIENTS = 2          # closed-loop client threads == pool width == nproc
RATE_JITTER = 0.05   # +-5 %, keeps every point below saturation
GRID_PRESETS = ("VC16", "WH64", "CB", "VC64")
GRID_TRAFFICS = ("uniform", "transpose")
GRID_RATES = (0.02, 0.05, 0.08)
GRID_CALL_POINTS = 48
WARM_POINTS = 96
LIGHT_RUN_SPECS = 32
LIGHT_ESTIMATE_SHARE = 0.7
#: Operations of each workload pinned in goldens/seed0.json.
GOLDEN_OPS = {"kernel_hot": 12, "kernel_sparse": 4, "kernel_data": 8,
              "grid_cold": 96, "serve_sim": 48, "serve_light": 32}

#: Operations of one run whose answers are kept for verification.
#: Beyond it a grid point still counts as attempted (and as failed if
#: its outcome says so) but leaves no record: grid_warm runs ~60k ops
#: per window, and the harness's own bookkeeping must neither show up in
#: peak_rss_mb nor feed the garbage collector pauses into the latencies.
KEPT_RECORDS = 4096

PINNED_EXACT = ("status", "total_cycles", "avg_latency",
                "throughput_flits_per_cycle")
POWER_REL_TOL = 1e-12


# --- generated inputs --------------------------------------------------------

def _rng(tag: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, so the stream is the same in
    # every interpreter whatever PYTHONHASHSEED says.
    return random.Random(f"{tag}:{seed}")


def _jitter(rng: random.Random, rate: float) -> float:
    return round(rate * (1.0 + rng.uniform(-RATE_JITTER, RATE_JITTER)), 6)


def _spec(preset: str, overrides: Dict[str, Any], traffic: str, rate: float,
          warmup: int, sample: int, seed: int, label: str) -> Dict[str, Any]:
    config: Any = {"preset": preset, "overrides": overrides} \
        if overrides else preset
    return {"config": config, "traffic": traffic, "rate": rate,
            "protocol": {"warmup_cycles": warmup, "sample_packets": sample,
                         "seed": seed},
            "label": label}


#: kernel workload -> (legs, warm-up cycles, sample packets); a leg is
#: (label, preset, config overrides, base rate).
KERNEL_LEGS = {
    "kernel_hot": ((
        ("wormhole", "WH64", {}, 0.09),
        ("vc", "VC16", {}, 0.09),
        ("speculative_vc", "VC16", {"router": {"kind": "speculative_vc"}},
         0.09),
        ("central", "CB", {}, 0.08)), 1000, 3000),
    "kernel_sparse": ((
        ("vc16x16", "VC16", {"width": 16, "height": 16}, 0.02),), 300, 2000),
    "kernel_data": ((
        ("vc_data", "VC16", {"activity_mode": "data"}, 0.09),
        ("wormhole_data", "WH64", {"activity_mode": "data"}, 0.09)),
        1000, 2000),
}


def kernel_specs(name: str, seed: int) -> Iterator[Dict[str, Any]]:
    """One spec per leg per round, for ever."""
    legs, warmup, sample = KERNEL_LEGS[name]
    rng = _rng(name, seed)
    while True:
        for label, preset, overrides, rate in legs:
            yield _spec(preset, overrides, "uniform", _jitter(rng, rate),
                        warmup, sample, rng.randrange(1, 2 ** 31), label)


def grid_specs(seed: int) -> Iterator[Dict[str, Any]]:
    """Distinct small points, presets varying innermost so every pool
    chunk touches all four structural keys."""
    rng = _rng("grid", seed)
    while True:
        for traffic in GRID_TRAFFICS:
            for rate in GRID_RATES:
                for preset in GRID_PRESETS:
                    yield _spec(preset, {}, traffic, _jitter(rng, rate),
                                200, 100, rng.randrange(1, 2 ** 31), preset)


def sim_job_specs(seed: int, tag: str = "serve_sim", warmup: int = 300,
                  sample: int = 300) -> Iterator[Dict[str, Any]]:
    """Fresh ``run`` jobs: nothing repeats, so nothing is cached or
    coalesced."""
    rng = _rng(tag, seed)
    while True:
        for traffic in GRID_TRAFFICS:
            for preset in GRID_PRESETS:
                yield _spec(preset, {}, traffic,
                            _jitter(rng, rng.choice((0.03, 0.04, 0.05, 0.06,
                                                     0.07, 0.08))),
                            warmup, sample, rng.randrange(1, 2 ** 31), preset)


def light_run_specs(seed: int) -> List[Dict[str, Any]]:
    """The ``run`` specs the light mix re-asks for; simulated once in
    set-up (small, they only have to exist), cache hits afterwards."""
    return list(itertools.islice(
        sim_job_specs(seed, "light_runs", warmup=200, sample=100),
        LIGHT_RUN_SPECS))


def light_jobs(seed: int) -> Iterator[Dict[str, Any]]:
    """70 % ``estimate`` jobs with distinct rates (nothing dedups), 30 %
    ``run`` jobs drawn from :func:`light_run_specs`."""
    rng = _rng("light_mix", seed)
    runs = light_run_specs(seed)
    for index in itertools.count():
        if rng.random() < LIGHT_ESTIMATE_SHARE:
            # The index in the 7th decimal makes every rate distinct.
            rate = round(rng.uniform(0.01, 0.08), 5) + index * 1e-7
            yield {"kind": "estimate",
                   "spec": {"config": rng.choice(GRID_PRESETS),
                            "traffic": rng.choice(GRID_TRAFFICS),
                            "rate": round(rate, 7)}}
        else:
            yield {"kind": "run", "spec": rng.choice(runs)}


def inputs(name: str, seed: int) -> Iterator[Dict[str, Any]]:
    """The endless input sequence of a workload (grid_warm re-asks the
    head of grid_cold's; fleet_light shares serve_light's)."""
    if name.startswith("kernel_"):
        return kernel_specs(name, seed)
    if name.startswith("grid_"):
        return grid_specs(seed)
    if name == "serve_sim":
        return sim_job_specs(seed)
    return light_jobs(seed)


def generated_inputs(name: str, seed: int, count: int) -> bytes:
    """The first ``count`` inputs of a workload as canonical JSON — what
    "same seed, same inputs" is checked on."""
    return json.dumps(list(itertools.islice(inputs(name, seed), count)),
                      sort_keys=True).encode()


def spec_digest(spec: Dict[str, Any]) -> str:
    return hashlib.sha1(json.dumps(spec, sort_keys=True).encode()) \
        .hexdigest()[:16]


# --- answers and their verification -----------------------------------------

def build_point(spec: Dict[str, Any]):
    """A generated spec as the library's :class:`RunPoint`."""
    from repro import RunPoint, RunProtocol, TrafficSpec, preset

    config = spec["config"]
    if isinstance(config, str):
        network = preset(config)
    else:
        overrides = dict(config["overrides"])
        network = preset(config["preset"])
        router = overrides.pop("router", None)
        if router:
            network = network.with_router(**router)
        if overrides:
            network = network.with_(**overrides)
    return RunPoint(config=network, traffic=TrafficSpec.of(spec["traffic"]),
                    rate=spec["rate"],
                    protocol=RunProtocol(**spec["protocol"]),
                    label=spec["label"])


def answer_of(source: Any) -> Dict[str, Any]:
    """The pinned part of a simulation answer, from a
    ``SimulationResult``, a ``PointOutcome`` or a job's point summary."""
    if isinstance(source, dict):
        return {"status": source["status"],
                "total_cycles": source["total_cycles"],
                "avg_latency": source["avg_latency"],
                "throughput_flits_per_cycle":
                    source["throughput_flits_per_cycle"],
                "total_power_w": source["total_power_w"],
                "breakdown_w": dict(source["breakdown_w"])}
    breakdown = source.breakdown_w if hasattr(source, "breakdown_w") \
        else source.power_breakdown_w()
    return {"status": source.status,
            "total_cycles": source.total_cycles,
            "avg_latency": source.avg_latency,
            "throughput_flits_per_cycle": source.throughput_flits_per_cycle,
            "total_power_w": source.total_power_w,
            "breakdown_w": dict(breakdown)}


def reference_answer(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The answer of a bare, freshly constructed in-process
    ``Simulation`` — no context reuse, pool, cache or HTTP."""
    from repro.sim.engine import Simulation
    from repro.sim.topology import topology_for

    point = build_point(spec)
    traffic = point.traffic.build(topology_for(point.config), point.rate,
                                  point.protocol.seed)
    return answer_of(Simulation(point.config, traffic, point.protocol).run())


def reference_estimate(spec: Dict[str, Any]) -> Dict[str, Any]:
    """In-process ``repro.analytic.estimate`` in the service's result
    shape (non-finite floats become ``None`` on the wire)."""
    from repro import preset
    from repro.analytic import estimate

    def finite(value):
        return value if value is not None and math.isfinite(value) else None

    est = estimate(preset(spec["config"]), spec["traffic"], spec["rate"])
    return {"traffic": est.traffic, "rate": est.rate,
            "avg_latency": finite(est.avg_latency),
            "zero_load_latency": finite(est.zero_load_latency),
            "avg_hops": est.avg_hops,
            "total_power_w": est.total_power_w,
            "power_breakdown_w": dict(est.power_breakdown_w),
            "throughput_flits_per_cycle": est.throughput_flits_per_cycle,
            "saturation_rate": finite(est.saturation.rate)
            if est.saturation else None,
            "is_saturated": est.is_saturated}


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return a == b or abs(a - b) <= POWER_REL_TOL * max(abs(a), abs(b))
    return a == b


def answers_match(got: Any, expected: Dict[str, Any]) -> bool:
    """Simulated statistics exact; power figures (and every other
    number, nested breakdowns included) to 1e-12 relative."""
    if not isinstance(got, dict) or set(got) != set(expected):
        return False
    for key, want in expected.items():
        if isinstance(want, dict):
            same = answers_match(got[key], want)
        elif key in PINNED_EXACT:
            same = got[key] == want
        else:
            same = _close(got[key], want)
        if not same:
            return False
    return True


class OpRecord:
    """One attempted operation of the timed window."""

    __slots__ = ("index", "kind", "spec", "answer", "error", "cycles",
                 "sim_wall")

    def __init__(self, index: int, kind: str, spec: Dict[str, Any]) -> None:
        self.index = index
        self.kind = kind          # "run" or "estimate"
        self.spec = spec
        self.answer: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        #: Cycles actually simulated for this op (0 on a cache hit) and
        #: the wall time the simulating worker reported for them.
        self.cycles = 0
        self.sim_wall = 0.0


def count_failures(records: List[OpRecord], goldens: Dict[str, Any],
                   samples: int, rng: random.Random) -> Tuple[int, int, int]:
    """Failed operations among ``records``: those that raised, were
    refused or ended badly, those that disagree with a pinned golden,
    and those among ``samples`` randomly chosen ones that disagree with
    an independent in-process recomputation.

    Returns ``(failed, golden_checked, reference_checked)``.
    """
    failed = {r.index for r in records
              if r.error is not None or r.answer is None}
    golden_checked = 0
    for record in records:
        if record.kind != "run" or record.index in failed:
            continue
        pinned = goldens.get(spec_digest(record.spec))
        if pinned is not None:
            golden_checked += 1
            if not answers_match(record.answer, pinned):
                failed.add(record.index)
    candidates = [r for r in records if r.index not in failed]
    chosen = rng.sample(candidates, min(samples, len(candidates)))
    for record in chosen:
        expected = (reference_answer(record.spec) if record.kind == "run"
                    else reference_estimate(record.spec))
        if not answers_match(record.answer, expected):
            failed.add(record.index)
    return len(failed), golden_checked, len(chosen)


# --- workloads ---------------------------------------------------------------

class Workload:
    """Set-up, one slice of the timed window, tear-down."""

    name = ""
    #: Operations re-computed independently after the window.
    verify_samples = 8
    #: Set-ups per untraced run (the median is reported); the cheap
    #: in-process ones are repeated more.
    setup_repeats = 3
    #: Length of one slice when the window alternates traced and
    #: untraced slices; ``None`` means a slice has a natural size (one
    #: round) and ignores the time it is given.
    slice_seconds: Optional[float] = None

    def __init__(self, seed: int, work_dir: Path, src_dir: Path,
                 tracer: Tracer) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.src_dir = src_dir
        self.tracer = tracer
        self.records: List[OpRecord] = []
        #: What a caller waited for one call (see README for what a
        #: "call" is on each workload), seconds.
        self.latencies: List[float] = []
        #: Operations attempted, and those among the ones that left no
        #: record that failed (see KEPT_RECORDS).
        self.attempted = 0
        self.unrecorded_failures = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_slice(self, seconds: float) -> int:
        """Run operations for about ``seconds`` (or one round); returns
        how many were attempted."""
        raise NotImplementedError

    def teardown(self) -> List[int]:
        """Release everything set-up made; returns pids that outlived
        it (must be empty)."""
        return []

    def _record(self, kind: str, spec: Dict[str, Any]) -> OpRecord:
        record = OpRecord(self.attempted, kind, spec)
        self.attempted += 1
        self.records.append(record)
        return record


class KernelWorkload(Workload):
    """``Simulation(cfg, traffic, protocol, context=ctx).run()`` in this
    process; one slice is one round over the workload's legs."""

    verify_samples = 1
    setup_repeats = 5

    def setup(self) -> None:
        from repro.sim.engine import SimulationContext
        from repro.sim.topology import topology_for

        self.specs = kernel_specs(self.name, self.seed)
        self.legs = len(KERNEL_LEGS[self.name][0])
        self.contexts: Dict[Any, Any] = {}
        self.topologies: Dict[Any, Any] = {}
        warm = kernel_specs(self.name, self.seed + 1_000_003)
        for _ in range(self.legs):
            spec = next(warm)
            spec["protocol"].update(warmup_cycles=100, sample_packets=100)
            point = build_point(spec)
            self.contexts[point.config] = SimulationContext(
                point.config, point.protocol)
            self.topologies[point.config] = topology_for(point.config)
            self._simulate(point, None)

    def _simulate(self, point, parent: Optional[int]):
        from repro.sim.engine import Simulation

        tracer = self.tracer
        protocol = point.protocol
        if tracer.enabled:
            # The engine times its own phases only while telemetry is
            # on; the traced slice pays for that and the paired
            # untraced slices show what it costs.
            from repro.telemetry import DEFAULT_WINDOW
            protocol = protocol.with_(telemetry_window=DEFAULT_WINDOW)
        with tracer.span("sim.traffic.build", parent):
            traffic = point.traffic.build(self.topologies[point.config],
                                          point.rate, protocol.seed)
        with tracer.span("sim.engine.construct", parent):
            sim = Simulation(point.config, traffic, protocol,
                             context=self.contexts[point.config])
        with tracer.span("sim.engine.run", parent) as run_span:
            result = sim.run()
        if tracer.enabled:
            start = tracer.spans[run_span]["start"]
            for phase, seconds in result.telemetry.spans_s.items():
                # Phase totals, not intervals: laid end to end so that
                # self time of sim.engine.run is the engine's own loop.
                tracer.add(f"sim.engine.{phase}", start, start + seconds,
                           run_span, aggregate=True)
                start += seconds
        with tracer.span("core.power_binding.read", parent):
            return answer_of(result)

    def run_slice(self, seconds: float) -> int:
        # The legs differ in speed by design, so the caller's wait is
        # taken per round over all of them: a median over single runs
        # would flip between legs from seed to seed.
        start = time.perf_counter()
        for _ in range(self.legs):
            spec = next(self.specs)
            record = self._record("run", spec)
            with self.tracer.span("op", op=str(record.index)) as op_span:
                try:
                    record.answer = self._simulate(build_point(spec), op_span)
                    record.cycles = record.answer["total_cycles"]
                    if record.answer["status"] != "ok":
                        record.error = f"ended {record.answer['status']}"
                except RuntimeError as exc:  # deadlock / cycle limit
                    record.error = f"{type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - start)
        return self.legs


class KernelHot(KernelWorkload):
    name = "kernel_hot"


class KernelSparse(KernelWorkload):
    name = "kernel_sparse"


class KernelData(KernelWorkload):
    name = "kernel_data"


class GridWorkload(Workload):
    """``run_points`` on a warm two-worker pool with a result cache."""

    def setup(self) -> None:
        from repro.exp import ResultCache, run_points
        from repro.exp.pool import WorkerPool

        self.run_points = run_points
        self.pool = WorkerPool(CLIENTS)
        self.cache = ResultCache(self.work_dir / "cache")
        # Sixteen throw-away points, four presets per chunk, so both
        # workers have imported, forked and built their contexts.
        warm = grid_specs(self.seed + 1_000_003)
        self._call([next(warm) for _ in range(16)], cache=None)

    def _call(self, specs: List[Dict[str, Any]], cache) -> List[Any]:
        with self.tracer.span("exp.orchestrator.run_points") as call_span:
            outcomes = self.run_points(
                [build_point(spec) for spec in specs], processes=CLIENTS,
                pool=self.pool, cache=cache)
        if self.tracer.enabled:
            start = self.tracer.spans[call_span]["start"]
            for outcome in outcomes:
                if not outcome.from_cache:
                    # Worker-side time of each point, laid end to end
                    # and divided over the workers: what is left of the
                    # call is dispatch, pickling and cache traffic.
                    share = outcome.wall_seconds / CLIENTS
                    self.tracer.add("exp.pool.point", start, start + share,
                                    call_span, aggregate=True)
                    start += share
        return outcomes

    def _measured_call(self, specs: List[Dict[str, Any]]) -> int:
        kept = max(0, min(len(specs), KEPT_RECORDS - self.attempted))
        records = [self._record("run", spec) for spec in specs[:kept]]
        start = time.perf_counter()
        outcomes = self._call(specs, self.cache)
        self.latencies.append(time.perf_counter() - start)
        for record, outcome in zip(records, outcomes):
            record.answer = answer_of(outcome)
            record.cycles = 0 if outcome.from_cache else outcome.total_cycles
            if not outcome.ok:
                record.error = outcome.error or outcome.status
        self.attempted += len(specs) - kept
        self.unrecorded_failures += sum(
            1 for outcome in outcomes[kept:] if not outcome.ok)
        return len(specs)

    def teardown(self) -> List[int]:
        before = set(process_tree([os.getpid()])) - {os.getpid()}
        self.pool.close()
        shutil.rmtree(self.work_dir / "cache", ignore_errors=True)
        return wait_gone(before)


class GridCold(GridWorkload):
    name = "grid_cold"

    def setup(self) -> None:
        super().setup()
        self.specs = grid_specs(self.seed)

    def run_slice(self, seconds: float) -> int:
        return self._measured_call(
            [next(self.specs) for _ in range(GRID_CALL_POINTS)])


class GridWarm(GridWorkload):
    name = "grid_warm"

    def setup(self) -> None:
        super().setup()
        self.points = list(itertools.islice(grid_specs(self.seed),
                                            WARM_POINTS))
        self._call(self.points, self.cache)   # simulate and store
        self._call(self.points, self.cache)   # one all-hit pass

    def run_slice(self, seconds: float) -> int:
        return self._measured_call(self.points)


class ServiceWorkload(Workload):
    """Jobs over HTTP, closed loop: each of the two clients submits,
    follows the event stream to the terminal event, fetches the result,
    and only then sends its next job."""

    shards = 1
    workers = 2
    slice_seconds = 1.0

    def setup(self) -> None:
        self.server = Server(self.src_dir, self.work_dir / "server",
                             shards=self.shards, workers=self.workers)
        self.jobs = self._jobs()
        self._lock = threading.Lock()
        warm = self._warm_jobs()
        self._drive(iter(warm), deadline=None, measured=False)

    def _jobs(self) -> Iterator[Dict[str, Any]]:
        raise NotImplementedError

    def _warm_jobs(self) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def _drive(self, jobs: Iterator[Dict[str, Any]],
               deadline: Optional[float], measured: bool) -> int:
        """Closed loop over ``jobs`` with :data:`CLIENTS` threads until
        ``deadline`` (or until a finite ``jobs`` runs out)."""
        from repro.serve import ServeClient

        done = 0

        def client_loop() -> None:
            nonlocal done
            client = ServeClient(self.server.base_url, timeout=60.0)
            while deadline is None or time.perf_counter() < deadline:
                with self._lock:
                    payload = next(jobs, None)
                    if payload is None:
                        return
                    record = self._record(payload["kind"], payload["spec"]) \
                        if measured else OpRecord(-1, payload["kind"],
                                                  payload["spec"])
                    done += 1
                latency = run_job(client, payload, record, self.tracer)
                if measured:
                    self.latencies.append(latency)
                elif record.error is not None:
                    raise RuntimeError(f"warm-up job failed: {record.error}")

        errors: List[BaseException] = []

        def guarded() -> None:
            try:
                client_loop()
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=guarded) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return done

    def run_slice(self, seconds: float) -> int:
        return self._drive(self.jobs, time.perf_counter() + seconds,
                           measured=True)

    def teardown(self) -> List[int]:
        survivors = self.server.stop()
        shutil.rmtree(self.work_dir / "server", ignore_errors=True)
        return survivors


def run_job(client, payload: Dict[str, Any], record: OpRecord,
            tracer: Tracer) -> float:
    """One service operation as a caller of ``repro submit`` sees it:
    submit, wait on the event stream for the terminal event, fetch the
    result.  Whatever goes wrong is recorded on ``record`` — a refused
    or failed job is an attempted operation that failed, never a
    dropped sample.  Returns the client-observed latency."""
    from repro.serve import ServeError

    start = time.perf_counter()
    with tracer.span("op", op=str(record.index)) as op_span:
        try:
            with tracer.span("serve.client.submit", op_span):
                accepted = client.submit(payload)
            terminal = None
            with tracer.span("serve.client.stream", op_span) as stream_span:
                for event in client.stream(accepted["id"]):
                    if event.get("type") == "done":
                        terminal = event
            with tracer.span("serve.client.status", op_span):
                status = client.status(accepted["id"])
        except ServeError as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            return time.perf_counter() - start
    latency = time.perf_counter() - start
    result = status.get("result") or {}
    if terminal is None or status.get("status") != "done":
        record.error = (f"job ended {status.get('status')!r}: "
                        f"{status.get('error')}")
    elif payload["kind"] == "estimate":
        record.answer = result.get("estimate")
    else:
        points = result.get("points") or [{}]
        if result.get("failures") or not points[0].get("ok"):
            record.error = f"point failed: {points[0].get('error')}"
        else:
            record.answer = answer_of(points[0])
            record.cycles = result.get("cycles_simulated", 0)
            record.sim_wall = sum(p["wall_seconds"] for p in points
                                  if not p["from_cache"])
    if tracer.enabled and status.get("started_at") is not None \
            and status.get("finished_at") is not None:
        # Server-side timestamps are wall-clock; shift them onto the
        # span clock.  The client sits in the stream request while the
        # server queues and executes, so they nest under it: what is
        # left of the stream's time is notification and HTTP.
        shift = time.perf_counter() - time.time()
        tracer.add("serve.app.queue_wait", status["submitted_at"] + shift,
                   status["started_at"] + shift, stream_span, aggregate=True)
        tracer.add("serve.app.execute", status["started_at"] + shift,
                   status["finished_at"] + shift, stream_span, aggregate=True)
    return latency


class ServeSim(ServiceWorkload):
    name = "serve_sim"

    def _jobs(self):
        return ({"kind": "run", "spec": spec}
                for spec in sim_job_specs(self.seed))

    def _warm_jobs(self):
        warm = sim_job_specs(self.seed + 1_000_003)
        return [{"kind": "run", "spec": next(warm)} for _ in range(8)]


class ServeLight(ServiceWorkload):
    name = "serve_light"

    def _jobs(self):
        return light_jobs(self.seed)

    def _warm_jobs(self):
        warm = light_jobs(self.seed + 1_000_003)
        estimates = [job for job in itertools.islice(warm, 64)
                     if job["kind"] == "estimate"][:16]
        return [{"kind": "run", "spec": spec}
                for spec in light_run_specs(self.seed)] + estimates


class FleetLight(ServeLight):
    name = "fleet_light"
    shards = 2
    workers = 1


WORKLOADS = {cls.name: cls for cls in (
    KernelHot, KernelSparse, KernelData, GridCold, GridWarm,
    ServeSim, ServeLight, FleetLight)}


def golden_specs(seed: int = 0) -> List[Dict[str, Any]]:
    """The run specs goldens/seed0.json pins: the first operations of
    every workload's sequence (grid_warm's points are grid_cold's first
    96; fleet_light shares serve_light's run specs)."""
    specs: List[Dict[str, Any]] = []
    for name, count in GOLDEN_OPS.items():
        source = iter(light_run_specs(seed)) if name == "serve_light" \
            else inputs(name, seed)
        specs.extend(itertools.islice(source, count))
    return specs

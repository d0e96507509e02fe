"""Per-layer probes: what each module costs, measured from outside.

The traced run of every workload ends with this one fixed suite, so a
per-layer metric has a single definition whichever workload's run
reports it.  Nothing under ``src/`` is instrumented: each number is a
span recorded here around a call into a public function, a timing proxy
around the ``TrafficPattern``, the difference of two paired runs, or
data the program already publishes (``result.telemetry.spans_s``, job
``submitted_at/started_at/finished_at``, ``/metrics``,
``WorkerPool.stats()``).

Probe inputs are fixed small points whose traffic seeds derive from
``--seed``; the counts they produce (``sim.network.cycles``,
``sim.network.flit_hops``, ``exp.cache.hits``, ``exp.cache.misses``,
``serve.app.completed`` ...) repeat exactly for a seed.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from servers import Server
from workloads import (
    CLIENTS,
    KERNEL_LEGS,
    OpRecord,
    _spec,
    build_point,
    grid_specs,
    run_job,
    sim_job_specs,
)
from measure import Tracer, self_times


def _per_call(fn: Callable[[], Any], min_seconds: float = 0.04,
              batch: int = 1) -> float:
    """Median seconds per call of ``fn`` over at least five batches
    and ``min_seconds`` of work."""
    samples: List[float] = []
    total = 0.0
    while total < min_seconds or len(samples) < 5:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed = time.perf_counter() - start
        samples.append(elapsed / batch)
        total += elapsed
    return statistics.median(samples)


# --- cli ---------------------------------------------------------------------

def probe_cli(src_dir: Path) -> Dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(src_dir))

    def wall(argv: List[str]) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    return {
        "cli.import_ms": 1e3 * statistics.median(
            [wall(["-c", "import repro"]) for _ in range(3)]),
        "cli.presets_ms": 1e3 * statistics.median(
            [wall(["-m", "repro", "presets"]) for _ in range(3)]),
    }


# --- library micro-probes ----------------------------------------------------

def probe_library(seed: int, work_dir: Path) -> Dict[str, float]:
    from repro import preset
    from repro.analytic import estimate
    from repro.exp import ResultCache, RunPoint, run_points
    from repro.serve.jobs import JobJournal, parse_job
    from repro.serve.queue import JobQueue
    from repro.serve.shard import ShardRing
    from repro.sim.engine import Simulation, SimulationContext
    from repro.sim.topology import topology_for

    out: Dict[str, float] = {}
    spec = _spec("VC16", {}, "uniform", 0.05, 100, 100, seed + 11, "probe")
    point = build_point(spec)
    big = build_point(_spec("VC16", {"width": 16, "height": 16}, "uniform",
                            0.02, 100, 100, seed + 11, "probe16"))

    out["sim.engine.context_build_ms"] = 1e3 * _per_call(
        lambda: SimulationContext(point.config, point.protocol))
    out["sim.engine.context_build_16x16_ms"] = 1e3 * _per_call(
        lambda: SimulationContext(big.config, big.protocol))
    context = SimulationContext(point.config, point.protocol)
    topo = topology_for(point.config)

    def fresh_traffic():
        return point.traffic.build(topo, point.rate, point.protocol.seed)

    Simulation(point.config, fresh_traffic(), point.protocol,
               context=context).run()
    traffic = fresh_traffic()
    # The constructor on a used context is Network.reset() plus the
    # per-run wiring: what the pool pays per point instead of a build.
    out["sim.engine.reset_ms"] = 1e3 * _per_call(
        lambda: Simulation(point.config, traffic, point.protocol,
                           context=context))

    rates = itertools.count()
    vc16 = preset("VC16")
    out["analytic.estimate_ms"] = 1e3 * _per_call(
        lambda: estimate(vc16, "uniform", 0.02 + 1e-5 * next(rates)))

    out["exp.spec.cache_key_us"] = 1e6 * _per_call(point.cache_key, batch=20)
    out["exp.spec.json_roundtrip_us"] = 1e6 * _per_call(
        lambda: RunPoint.from_json(point.to_json()), batch=20)

    cache = ResultCache(work_dir / "probe-cache")
    outcome = run_points([point], cache=cache)[0]
    keys = (hashlib.sha256(str(i).encode()).hexdigest()
            for i in itertools.count())
    stored: List[str] = []

    def store() -> None:
        key = next(keys)
        cache.store(key, outcome)
        stored.append(key)

    out["exp.cache.store_us"] = 1e6 * _per_call(store, batch=10)
    loads = itertools.cycle(stored)
    out["exp.cache.load_us"] = 1e6 * _per_call(
        lambda: cache.load(next(loads)), batch=10)
    out["exp.cache.entry_bytes"] = float(
        os.path.getsize(next((work_dir / "probe-cache").rglob("*.pkl"))))

    estimate_payload = {"kind": "estimate",
                        "spec": {"config": "VC16", "traffic": "uniform",
                                 "rate": 0.04}}
    run_payload = {"kind": "run", "spec": spec}
    out["serve.jobs.parse_job_estimate_us"] = 1e6 * _per_call(
        lambda: parse_job(estimate_payload, "probe"), batch=10)
    out["serve.jobs.parse_job_run_us"] = 1e6 * _per_call(
        lambda: parse_job(run_payload, "probe"), batch=10)
    job = parse_job(run_payload, "probe")
    job.status = "done"
    job.result = {"num_points": 1, "failures": 0, "cache_hits": 0,
                  "cycles_simulated": outcome.total_cycles,
                  "points": [outcome.summary_dict()]}
    journal = JobJournal(work_dir / "probe-journal")

    def journal_cycle() -> None:
        journal.record(job)
        journal.discard(job.id)

    out["serve.jobs.journal_record_us"] = 1e6 * _per_call(journal_cycle,
                                                          batch=10)
    out["serve.jobs.public_dict_us"] = 1e6 * _per_call(
        lambda: json.dumps(job.public_dict()), batch=20)

    queue = JobQueue(64)

    def push_pop() -> None:
        queue.push(job)
        queue.pop()

    out["serve.queue.push_pop_us"] = 1e6 * _per_call(push_pop, batch=100)
    ring = ShardRing(["127.0.0.1:7001", "127.0.0.1:7002"])
    out["serve.shard.ring_route_us"] = 1e6 * _per_call(
        lambda: ring.route(next(keys)), batch=50)
    return out


# --- kernel ------------------------------------------------------------------

class _TimedTraffic:
    """Stands in for a ``TrafficPattern`` and times its
    ``packets_at`` — the traffic layer's share of a run."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.seconds = 0.0

    def packets_at(self, cycle: int):
        start = time.perf_counter()
        pairs = self.inner.packets_at(cycle)
        self.seconds += time.perf_counter() - start
        return pairs


def _timed_run(point, context=None, *, telemetry: bool = False,
               collect_power: bool = True, proxy: bool = False):
    """One ``Simulation`` run: (wall seconds, result, network,
    traffic)."""
    from repro.sim.engine import Simulation
    from repro.sim.topology import topology_for
    from repro.telemetry import DEFAULT_WINDOW

    protocol = point.protocol.with_(
        telemetry_window=DEFAULT_WINDOW if telemetry else 0,
        collect_power=collect_power)
    traffic = point.traffic.build(topology_for(point.config), point.rate,
                                  protocol.seed)
    if proxy:
        traffic = _TimedTraffic(traffic)
    sim = Simulation(point.config, traffic, protocol, context=context)
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, result, sim.network, traffic


def _span_fracs(spans_s: Dict[str, float], wall: float,
                suffix: str) -> Dict[str, float]:
    return {f"sim.engine.span_{phase}_frac_{suffix}":
            spans_s.get(phase, 0.0) / wall
            for phase in ("inject", "router_step", "observe", "finalize")}


def probe_kernel(seed: int) -> Dict[str, float]:
    from repro.sim.engine import SimulationContext

    out: Dict[str, float] = {}

    # kernel_hot's four legs, engine phase spans on.
    spans: Dict[str, float] = {}
    walls = cycles = hops = 0
    for label, preset, overrides, rate in KERNEL_LEGS["kernel_hot"][0]:
        point = build_point(_spec(preset, overrides, "uniform", rate,
                                  500, 1000, seed + 21, label))
        _timed_run(replace(point, protocol=point.protocol.with_(
            warmup_cycles=100, sample_packets=100)))
        wall, result, network, _ = _timed_run(point, telemetry=True)
        for phase, seconds in result.telemetry.spans_s.items():
            spans[phase] = spans.get(phase, 0.0) + seconds
        out[f"sim.routers.{label}.cycles_per_s"] = result.total_cycles / wall
        walls += wall
        cycles += result.total_cycles
        hops += sum(channel.flits_sent for router in network.routers
                    for channel in router.out_channels
                    if channel is not None)
        if label == "vc":
            out["core.power_binding.finalize_ms"] = \
                1e3 * result.telemetry.spans_s.get("finalize", 0.0)
            vc_point = point
    out.update(_span_fracs(spans, walls, "4x4"))
    out["sim.engine.cycles_per_s_4x4"] = cycles / walls
    out["sim.network.cycles"] = float(cycles)
    out["sim.network.flit_hops"] = float(hops)
    out["sim.network.host_ns_per_flit_hop"] = 1e9 * walls / hops

    # Telemetry on vs off on the VC leg, interleaved; the fastest of
    # each side stands for it (noise only ever adds).
    context = SimulationContext(vc_point.config, vc_point.protocol)
    off: List[float] = []
    on: List[float] = []
    for _ in range(3):
        off.append(_timed_run(vc_point, context)[0])
        wall, result, _, _ = _timed_run(vc_point, context, telemetry=True)
        on.append(wall)
    out["telemetry.overhead_frac"] = min(on) / min(off) - 1.0
    out["sim.engine.run_ms_per_kcycle"] = \
        1e6 * min(off) / result.total_cycles

    # kernel_sparse's shape: 16x16 at 0.02, traffic behind a timing
    # proxy.
    label, preset, overrides, rate = KERNEL_LEGS["kernel_sparse"][0][0]
    big = build_point(_spec(preset, overrides, "uniform", rate, 100, 500,
                            seed + 22, label))
    context = SimulationContext(big.config, big.protocol)
    wall, result, _, traffic = _timed_run(big, context, telemetry=True,
                                          proxy=True)
    out.update(_span_fracs(result.telemetry.spans_s, wall, "16x16"))
    out["sim.engine.cycles_per_s_16x16"] = result.total_cycles / wall
    out["sim.traffic.packets_at_frac"] = traffic.seconds / wall

    # kernel_data's shape: payload-tracking energy accounting on vs
    # off, same point.
    label, preset, overrides, rate = KERNEL_LEGS["kernel_data"][0][0]
    data = build_point(_spec(preset, overrides, "uniform", rate, 300, 600,
                             seed + 23, label))
    with_power: List[float] = []
    without: List[float] = []
    for _ in range(2):
        wall, result, _, _ = _timed_run(data)
        with_power.append(wall)
        without.append(_timed_run(data, collect_power=False)[0])
    out["core.power_binding.accounting_frac"] = \
        1.0 - min(without) / min(with_power)
    out["sim.engine.cycles_per_s_data"] = \
        result.total_cycles / min(with_power)
    return out


# --- grid --------------------------------------------------------------------

def probe_grid(seed: int, work_dir: Path,
               library: Dict[str, float]) -> Dict[str, float]:
    from repro.exp import ResultCache, run_points
    from repro.exp.pool import WorkerPool

    out: Dict[str, float] = {}
    specs = grid_specs(seed + 31)

    def take(count: int):
        return [build_point(next(specs)) for _ in range(count)]

    start = time.perf_counter()
    pool = WorkerPool(CLIENTS)
    try:
        first = run_points(take(CLIENTS), processes=CLIENTS, pool=pool)
        out["exp.pool.spawn_ms"] = 1e3 * (
            time.perf_counter() - start
            - max(outcome.wall_seconds for outcome in first))
        run_points(take(16), processes=CLIENTS, pool=pool)  # warm contexts

        cache = ResultCache(work_dir / "probe-grid-cache")
        cold = take(48)
        start = time.perf_counter()
        outcomes = run_points(cold, processes=CLIENTS, pool=pool, cache=cache)
        wall = time.perf_counter() - start
        busy = sum(outcome.wall_seconds for outcome in outcomes)
        out["exp.pool.dispatch_overhead_ms"] = \
            1e3 * (wall * CLIENTS - busy) / len(cold)
        out["exp.pool.worker_busy_frac"] = busy / (wall * CLIENTS)
        pooled_rate = len(cold) / wall

        passes: List[float] = []
        for _ in range(5):
            start = time.perf_counter()
            run_points(cold, processes=CLIENTS, pool=pool, cache=cache)
            passes.append(time.perf_counter() - start)
        out["exp.orchestrator.per_point_overhead_us"] = (
            1e6 * statistics.median(passes) / len(cold)
            - library["exp.spec.cache_key_us"]
            - library["exp.cache.load_us"])
        out["exp.cache.hits"] = float(cache.hits)
        out["exp.cache.misses"] = float(cache.misses)

        serial = take(24)
        start = time.perf_counter()
        run_points(serial, processes=1)
        out["exp.orchestrator.parallel_speedup"] = \
            pooled_rate / (len(serial) / (time.perf_counter() - start))
        stats = pool.stats()
        out["exp.pool.respawns"] = float(stats["respawns"])
        out["exp.pool.timeouts"] = float(stats["timeouts"])
    finally:
        pool.close()
    return out


# --- service and fleet -------------------------------------------------------

def _timed_job(client, payload: Dict[str, Any]) -> Tuple[Dict[str, float],
                                                          OpRecord]:
    """One job through :func:`workloads.run_job` with tracing on; the
    span durations by name, plus ``latency``."""
    tracer = Tracer(True)
    record = OpRecord(0, payload["kind"], payload["spec"])
    latency = run_job(client, payload, record, tracer)
    if record.error is not None:
        raise RuntimeError(f"probe job failed: {record.error}")
    parts = {span["name"]: span["end"] - span["start"]
             for span in tracer.spans}
    parts["latency"] = latency
    return parts, record


def probe_service(seed: int, work_dir: Path,
                  src_dir: Path) -> Dict[str, float]:
    """One two-shard fleet serves both halves: a shard *is* a plain
    ``repro serve``, so requests sent straight to it measure
    ``serve.app``, and the same requests through the gateway measure
    what ``serve.shard`` adds."""
    from repro.serve import ServeClient
    from repro.serve.jobs import parse_job
    from repro.serve.shard import ShardRing

    out: Dict[str, float] = {}
    server = Server(src_dir, work_dir / "probe-fleet", shards=2, workers=1)
    try:
        gateway = ServeClient(server.base_url, timeout=60.0)
        ring = ShardRing(server.banner.backends)
        shards = {backend: ServeClient(f"http://{backend}", timeout=60.0)
                  for backend in server.banner.backends}

        def owner(payload: Dict[str, Any]) -> str:
            return ring.route(parse_job(payload, "route").key)

        def estimate_job(index: int) -> Dict[str, Any]:
            return {"kind": "estimate",
                    "spec": {"config": "VC16", "traffic": "uniform",
                             "rate": round(0.02 + 1e-5 * index
                                           + 1e-7 * (seed % 97), 7)}}

        first = next(iter(shards.values()))
        for index in range(8):          # warm both paths
            _timed_job(gateway, estimate_job(1000 + index))
            _timed_job(shards[owner(estimate_job(2000 + index))],
                       estimate_job(2000 + index))
        health: List[float] = []
        for _ in range(20):
            start = time.perf_counter()
            first.health()
            health.append(time.perf_counter() - start)
        out["serve.app.healthz_rtt_ms"] = 1e3 * statistics.median(health)

        connects = [0]
        real_connect = http.client.HTTPConnection.connect

        def counting_connect(self) -> None:
            connects[0] += 1
            real_connect(self)

        direct: List[Dict[str, float]] = []
        via: List[Dict[str, float]] = []
        routed: Dict[str, int] = {}
        pairs = 40
        http.client.HTTPConnection.connect = counting_connect
        try:
            for index in range(pairs):
                # Same kind of request down both paths, order
                # alternating so neither always runs on a warmer server.
                a, b = estimate_job(2 * index), estimate_job(2 * index + 1)
                home = owner(b)
                routed[home] = routed.get(home, 0) + 1
                legs = [(direct, shards[owner(a)], a), (via, gateway, b)]
                for sink, client, payload in (legs if index % 2
                                              else legs[::-1]):
                    sink.append(_timed_job(client, payload)[0])
        finally:
            http.client.HTTPConnection.connect = real_connect
        out["serve.client.connects_per_job"] = connects[0] / (2 * pairs)

        def med(rows: List[Dict[str, float]], name: str) -> float:
            return 1e3 * statistics.median([row[name] for row in rows])

        out["serve.app.submit_rtt_ms"] = med(direct, "serve.client.submit")
        out["serve.app.stream_wait_ms"] = med(direct, "serve.client.stream")
        out["serve.app.status_rtt_ms"] = med(direct, "serve.client.status")
        out["serve.app.queue_wait_ms"] = med(direct, "serve.app.queue_wait")
        out["serve.app.execute_ms"] = med(direct, "serve.app.execute")
        out["serve.app.overhead_ms"] = 1e3 * statistics.median(
            [row["latency"] - row["serve.app.execute"] for row in direct])
        out["serve.shard.hop_submit_ms"] = \
            med(via, "serve.client.submit") - out["serve.app.submit_rtt_ms"]
        out["serve.shard.hop_stream_ms"] = \
            med(via, "serve.client.stream") - out["serve.app.stream_wait_ms"]
        out["serve.shard.hop_status_ms"] = \
            med(via, "serve.client.status") - out["serve.app.status_rtt_ms"]
        out["serve.shard.busiest_shard_frac"] = max(routed.values()) / pairs

        # Simulation jobs straight to their shard: what the server adds
        # around the points' own wall time.
        over: List[float] = []
        jobs = sim_job_specs(seed + 41)
        for _ in range(6):
            payload = {"kind": "run", "spec": next(jobs)}
            client = shards[owner(payload)]
            parts, record = _timed_job(client, payload)
            over.append(parts["serve.app.execute"] - record.sim_wall)
            # Asked again, the same job is answered from the cache.
            client.wait(client.submit(payload)["id"], poll_interval=0.005)
        out["serve.app.exec_over_sim_ms"] = 1e3 * statistics.median(over)

        # One coalesced submission: the second of two identical jobs in
        # flight together is deduplicated, not run.
        payload = {"kind": "run", "spec": next(jobs)}
        client = shards[owner(payload)]
        ids = [client.submit(payload)["id"] for _ in range(2)]
        for job_id in set(ids):
            client.wait(job_id, poll_interval=0.005)

        totals: Dict[str, float] = {}
        for client in shards.values():
            for name, value in client.metrics().items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    totals[name] = totals.get(name, 0.0) + value
        for name in ("completed", "deduped", "rejected_queue_full",
                     "cache_hits"):
            out[f"serve.app.{name}"] = float(totals.get(name, 0))
        fleet = gateway.metrics()
        out["serve.shard.failovers"] = float(fleet["gw_failover_jobs"])
        out["serve.shard.submit_retries"] = float(fleet["gw_retried_submits"])
    finally:
        survivors = server.stop()
    if survivors:
        raise RuntimeError(f"probe fleet left processes behind: {survivors}")
    return out


def run_suite(seed: int, work_dir: Path, src_dir: Path) -> Dict[str, float]:
    """Every per-layer metric except the ``bench.*`` ones."""
    out = probe_cli(src_dir)
    library = probe_library(seed, work_dir)
    out.update(library)
    out.update(probe_kernel(seed))
    out.update(probe_grid(seed, work_dir, library))
    out.update(probe_service(seed, work_dir, src_dir))
    return out


def layer_table(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Share of the traced window's operation time spent in each span
    name's own code (self time)."""
    own = self_times(spans)
    total = sum(own.values())
    return {name: seconds / total for name, seconds in sorted(own.items())} \
        if total else {}

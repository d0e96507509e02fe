"""Warm worker-pool suite: equivalence, context reuse and chaos.

The pool's contract is that fan-out through it is *observationally
identical* to the serial path: same outcomes, in submission order, with
latency and flit counts exactly equal and energy bit-identical.  This
file pins that contract across router kinds,
pins ``Network.reset()`` context reuse against fresh construction, and
exercises the pool's failure modes (worker death mid-chunk, per-point
timeouts) against a dedicated pool whose stats make the recovery
visible.
"""

import multiprocessing
import os

import pytest

from repro.core.config import RunProtocol
from repro.exp import RunPoint, TrafficSpec, WorkerPool, run_points
from repro.exp.orchestrator import PointLedger
from repro.sim.engine import Simulation, SimulationContext
from repro.sim.topology import topology_for
from repro.sim.traffic import (
    TRAFFIC_REGISTRY,
    TrafficParam,
    UniformRandomTraffic,
    register_traffic,
)

from tests.conftest import small_config

FAST = RunProtocol(warmup_cycles=100, sample_packets=40)


def _points(kinds=("wormhole",), rates=(0.05, 0.10), seeds=(1, 2)):
    points = []
    for kind in kinds:
        for rate in rates:
            for seed in seeds:
                protocol = RunProtocol(
                    warmup_cycles=100, sample_packets=40, seed=seed)
                points.append(RunPoint(
                    config=small_config(kind),
                    traffic=TrafficSpec("uniform"),
                    rate=rate, protocol=protocol, label=kind))
    return points


def _assert_outcomes_identical(serial, pooled):
    assert len(serial) == len(pooled)
    for left, right in zip(serial, pooled):
        assert left.point.describe() == right.point.describe()
        assert left.status == right.status
        assert left.ok == right.ok
        # Latency, cycle and flit-level figures must be exactly equal.
        assert left.avg_latency == right.avg_latency
        assert left.throughput_flits_per_cycle == \
            right.throughput_flits_per_cycle
        assert left.total_cycles == right.total_cycles
        # Energy is a float sum over identical event sequences.
        assert left.total_power_w == pytest.approx(
            right.total_power_w, rel=1e-12)
        for component, watts in left.breakdown_w.items():
            assert right.breakdown_w[component] == \
                pytest.approx(watts, rel=1e-12)


# --- pool vs serial equivalence ----------------------------------------------


@pytest.mark.parametrize("kind", ["wormhole", "vc", "central"])
def test_pool_matches_serial(kind):
    points = _points(kinds=(kind,))
    serial = run_points(points, processes=1)
    pool = WorkerPool(2)
    try:
        pooled = run_points(points, processes=2, pool=pool)
    finally:
        pool.close()
    _assert_outcomes_identical(serial, pooled)


def test_pool_outcomes_arrive_in_submission_order():
    points = _points(rates=(0.12, 0.03, 0.09, 0.06), seeds=(1,))
    outcomes = run_points(points, processes=2)
    assert [o.point.rate for o in outcomes] == [p.rate for p in points]


def test_pool_keep_results_carries_full_result():
    points = _points(rates=(0.05,), seeds=(1, 2))
    outcomes = run_points(points, processes=2, keep_results=True)
    for outcome in outcomes:
        assert outcome.result is not None
        assert outcome.result.avg_latency == outcome.avg_latency


# --- context reuse vs fresh construction -------------------------------------


@pytest.mark.parametrize("kind,activity_mode", [
    pytest.param(kind, mode, id=kind if mode == "average" else
                 f"{kind}-{mode}")
    for mode in ("average", "data")
    for kind in ("wormhole", "vc", "central")])
def test_context_reuse_matches_fresh(kind, activity_mode):
    """One reused context must reproduce fresh-construction results
    bit-for-bit across a sequence of (rate, seed) workloads — in data
    mode only if ``reset_run()`` drops the payload history."""
    config = small_config(kind).with_(activity_mode=activity_mode)
    protocol = RunProtocol(warmup_cycles=100, sample_packets=40)
    topo = topology_for(config)
    context = SimulationContext(config, protocol)
    for rate, seed in [(0.05, 1), (0.10, 2), (0.05, 3)]:
        proto = RunProtocol(warmup_cycles=100, sample_packets=40,
                            seed=seed)
        fresh = Simulation(
            config, UniformRandomTraffic(topo, rate, seed=seed),
            proto).run()
        reused = Simulation(
            config, UniformRandomTraffic(topo, rate, seed=seed),
            proto, context=context).run()
        assert reused.avg_latency == fresh.avg_latency
        assert reused.total_cycles == fresh.total_cycles
        assert reused.flits_ejected == fresh.flits_ejected
        assert reused.total_energy_j == pytest.approx(
            fresh.total_energy_j, rel=1e-12, abs=0.0)


def test_context_rejects_mismatched_structure():
    config = small_config("wormhole")
    context = SimulationContext(config, FAST)
    other = small_config("vc")
    with pytest.raises(ValueError):
        Simulation(other, UniformRandomTraffic(topology_for(other), 0.05),
                   FAST, context=context)


# --- chaos: worker death and timeouts ----------------------------------------


class _ExitOnceTraffic(UniformRandomTraffic):
    """Hard-kills the worker on first construction (marker file records
    the burn), succeeds after — models a crash mid-chunk that a respawn
    plus one retry must absorb."""

    def __init__(self, topo, rate, seed=1, marker=""):
        if marker and not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(17)
        super().__init__(topo, rate, seed=seed)


class _SleepTraffic(UniformRandomTraffic):
    """Sleeps forever on construction — a runaway point for the
    timeout path."""

    def __init__(self, topo, rate, seed=1):
        import time
        while True:
            time.sleep(0.5)


@pytest.fixture
def pool_traffic():
    registered = []
    specs = [("pool_exit_once", _ExitOnceTraffic,
              [TrafficParam("marker", str, "")]),
             ("pool_sleep", _SleepTraffic, [])]
    for name, cls, params in specs:
        if name not in TRAFFIC_REGISTRY:
            register_traffic(name, cls, params=params,
                             description="pool chaos pattern")
            registered.append(name)
    yield
    for name in registered:
        TRAFFIC_REGISTRY.pop(name, None)


fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers require the fork start method")


@fork_only
@pytest.mark.chaos
def test_worker_killed_mid_chunk_respawns_and_retries(pool_traffic,
                                                      tmp_path):
    marker = str(tmp_path / "burned")
    config = small_config("wormhole")
    points = [
        RunPoint(config=config, traffic=TrafficSpec("uniform"),
                 rate=0.05, protocol=FAST),
        RunPoint(config=config,
                 traffic=TrafficSpec.of("pool_exit_once", marker=marker),
                 rate=0.05, protocol=FAST),
        RunPoint(config=config, traffic=TrafficSpec("uniform"),
                 rate=0.10, protocol=FAST),
    ]
    pool = WorkerPool(2)
    try:
        outcomes = run_points(points, processes=2, retries=1,
                              retry_backoff=0.05, pool=pool)
        stats = pool.stats()
    finally:
        pool.close()
    assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
    # The flaky point burned one hard attempt (worker death) before
    # succeeding on the respawned worker.
    assert outcomes[1].attempts == 2
    assert stats["respawns"] >= 1


@fork_only
@pytest.mark.chaos
def test_runaway_point_times_out_through_pool(pool_traffic):
    config = small_config("wormhole")
    points = [
        RunPoint(config=config, traffic=TrafficSpec("uniform"),
                 rate=0.05, protocol=FAST),
        RunPoint(config=config, traffic=TrafficSpec.of("pool_sleep"),
                 rate=0.05, protocol=FAST),
        RunPoint(config=config, traffic=TrafficSpec("uniform"),
                 rate=0.10, protocol=FAST),
    ]
    pool = WorkerPool(2)
    try:
        outcomes = run_points(points, processes=2, point_timeout=0.5,
                              pool=pool)
        stats = pool.stats()
    finally:
        pool.close()
    assert [o.status for o in outcomes] == ["ok", "timeout", "ok"]
    assert "wall-clock" in outcomes[1].error
    assert outcomes[1].wall_seconds == pytest.approx(0.5)
    assert stats["timeouts"] >= 1


@fork_only
def test_pool_survives_reuse_across_batches(pool_traffic):
    """One pool, several sequential batches: contexts stay warm, stats
    accumulate, results stay correct."""
    pool = WorkerPool(2)
    try:
        first = run_points(_points(rates=(0.05,), seeds=(1, 2)),
                           processes=2, pool=pool)
        second = run_points(_points(rates=(0.10,), seeds=(1, 2)),
                            processes=2, pool=pool)
        stats = pool.stats()
    finally:
        pool.close()
    assert all(o.status == "ok" for o in first + second)
    assert stats["tasks_completed"] == len(first) + len(second)
    assert stats["respawns"] == 0


def test_pool_stats_and_close_idempotent():
    pool = WorkerPool(2)
    stats = pool.stats()
    assert set(stats) == {"workers", "workers_target", "workers_alive",
                          "tasks_completed", "respawns", "timeouts",
                          "reaped", "cancelled_batches"}
    pool.close()
    pool.close()  # second close is a no-op
    assert pool.closed
    with pytest.raises(RuntimeError):
        pool.run([(0, (None, False, 0, 0.25, True))])


@fork_only
def test_submitted_batch_is_dispatched_at_once(monkeypatch):
    """A batch submitted to an idle warm pool is handed out by the
    submission itself, not at the driver's next poll.  Both clocks that
    could wake an idle driver — its poll and the workers' heartbeats
    (read by the forked workers) — are slowed to 5 s, so only the
    immediate hand-out can make the call fast."""
    import time

    from repro.exp import pool as pool_mod

    monkeypatch.setattr(pool_mod, "_POLL_INTERVAL", 5.0)
    monkeypatch.setattr(pool_mod, "_HEARTBEAT_INTERVAL", 5.0)
    pool = WorkerPool(2)
    try:
        run_points(_points(rates=(0.05,), seeds=(1,)), processes=2,
                   pool=pool)  # spawn the workers, warm a context
        time.sleep(0.1)
        start = time.perf_counter()
        (outcome,) = run_points(_points(rates=(0.05,), seeds=(2,)),
                                processes=2, pool=pool)
        elapsed = time.perf_counter() - start
    finally:
        pool.close()
    assert outcome.status == "ok"
    assert elapsed < 1.0


# --- ownership, cancellation and elasticity ----------------------------------


def _drive(pool, seconds, until=lambda: False):
    """Step the pool from this thread for up to ``seconds``."""
    import time

    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and not until():
        pool.step()
        time.sleep(0.02)


@fork_only
def test_batch_cancelled_before_it_runs_never_delivers():
    from repro.exp import RunCancelled

    delivered = []
    pool = WorkerPool(1)
    try:
        batch = pool.submit(PointLedger(_points(rates=(0.05,))).tasks(),
                            finish=lambda index, _: delivered.append(index))
        batch.cancel()
        assert isinstance(batch.failed, RunCancelled)
        assert batch.drained
        _drive(pool, 0.5)
        assert delivered == []
        assert pool.stats()["cancelled_batches"] == 1
    finally:
        pool.close()


@fork_only
@pytest.mark.chaos
def test_batch_cancel_aborts_in_flight_pool_run(pool_traffic):
    """Cancelling a batch mid-run kills the stuck worker (the
    point_timeout mechanism) and records RunCancelled; the pool stays
    usable afterwards."""
    from repro.exp import RunCancelled

    config = small_config("wormhole")
    points = [
        RunPoint(config=config, traffic=TrafficSpec.of("pool_sleep"),
                 rate=0.05, protocol=FAST),
    ]
    pool = WorkerPool(1)
    done = []
    try:
        batch = pool.submit(PointLedger(points).tasks(), on_done=done.append)
        _drive(pool, 0.5)
        assert not batch.drained
        batch.cancel()
        assert done == [batch]
        with pytest.raises(RunCancelled):
            raise batch.failed
        assert pool.stats()["cancelled_batches"] == 1
        after = run_points(_points(rates=(0.05,), seeds=(1,)),
                           processes=1, pool=pool)
        assert all(o.status == "ok" for o in after)
    finally:
        pool.close()


@fork_only
@pytest.mark.chaos
def test_second_driver_is_refused_and_pool_survives(pool_traffic):
    """WorkerPool is single-owner: a thread calling run() while another
    drives the pool gets RuntimeError, and the first call still ends
    correctly."""
    import threading
    import time

    config = small_config("wormhole")
    stuck = [RunPoint(config=config, traffic=TrafficSpec.of("pool_sleep"),
                      rate=0.05, protocol=FAST)]
    pool = WorkerPool(2)
    results = {}

    def first() -> None:
        results["first"] = run_points(stuck, processes=1, pool=pool,
                                      point_timeout=1.0)

    thread = threading.Thread(target=first)
    try:
        thread.start()
        time.sleep(0.3)
        with pytest.raises(RuntimeError, match="single-owner"):
            run_points(_points(rates=(0.05,), seeds=(1,)), processes=1,
                       pool=pool)
        thread.join(10)
        assert [o.status for o in results["first"]] == ["timeout"]
        after = run_points(_points(rates=(0.05,), seeds=(1, 2)),
                           processes=2, pool=pool)
        assert all(o.status == "ok" for o in after)
    finally:
        thread.join(10)
        pool.close()


@fork_only
def test_idle_workers_reaped_to_floor_and_regrown():
    pool = WorkerPool(2, idle_timeout_s=0.3)
    try:
        first = run_points(_points(rates=(0.05,), seeds=(1, 2)),
                           processes=2, pool=pool)
        assert all(o.status == "ok" for o in first)
        # Nobody drives an idle pool: reaping happens in its step.
        _drive(pool, 10.0, until=lambda: pool.stats()["workers"] <= 1)
        stats = pool.stats()
        assert stats["workers"] == 1  # floor of one warm worker
        assert stats["workers_target"] == 2
        assert stats["reaped"] >= 1
        # Demand lazily re-grows the pool to its target size.
        pool._ensure_running()
        assert pool.stats()["workers"] == 2
        again = run_points(_points(rates=(0.10,), seeds=(1, 2)),
                           processes=2, pool=pool)
        assert all(o.status == "ok" for o in again)
    finally:
        pool.close()


@fork_only
@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads /proc (Linux)")
def test_reaped_worker_is_joined_not_left_a_zombie():
    pool = WorkerPool(2, idle_timeout_s=0.2)
    try:
        run_points(_points(rates=(0.05,), seeds=(1, 2)), processes=2,
                   pool=pool)
        pids = [worker.process.pid for worker in pool._workers]
        _drive(pool, 10.0, until=lambda: pool.stats()["workers"] <= 1)
        survivor = pool._workers[0].process.pid
        (reaped,) = [pid for pid in pids if pid != survivor]
        assert not os.path.exists(f"/proc/{reaped}")
    finally:
        pool.close()

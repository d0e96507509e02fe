"""Grid fan-out throughput: warm persistent pool vs cold per-call pools.

The experiment orchestrator used to pay process spawn + simulation
construction for every ``run_points`` call (a throwaway
``multiprocessing.Pool``), and per *point* when a timeout was set.  The
warm :class:`repro.exp.WorkerPool` amortises both: workers fork once
and a worker-side context cache reuses the constructed network graph
across points that differ only in rate/seed/traffic.

This benchmark drives the serve-style fan-out shape — a 24-point grid
arriving as 24 independent single-point calls — two ways:

* **cold**: a fresh 2-worker pool per call, closed after (every point
  pays fork + pipe setup + full simulation construction);
* **warm**: one persistent 2-worker pool across all 24 calls
  (construction paid once per worker, then ``Network.reset()`` reuse).

Points/sec for both, the warm/cold speedup, and a ``bit_identical``
verdict against single-process serial execution (latency and flit
counts exactly equal, energy within 1e-12 relative) land in
``BENCH_fanout.json`` — the artifact CI's fanout-smoke job gates on
(warm >= cold).
"""

import json
import math
import time
from pathlib import Path

import pytest

from repro import preset
from repro.core.config import RunProtocol
from repro.exp import RunPoint, TrafficSpec, WorkerPool, run_points

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_fanout.json"

#: One structural configuration (8x8 VC torus: construction-heavy
#: relative to the short measured run) fanned out over rate x seed.
GRID_CONFIG = preset("VC16").with_(width=8, height=8)
PROTOCOL_KWARGS = dict(warmup_cycles=100, sample_packets=30)
RATES = (0.02, 0.04)
SEEDS = tuple(range(1, 13))
POOL_WORKERS = 2

RESULTS = {}


def _grid():
    return [RunPoint(config=GRID_CONFIG, traffic=TrafficSpec.of("uniform"),
                     rate=rate,
                     protocol=RunProtocol(seed=seed, **PROTOCOL_KWARGS),
                     label="fanout")
            for rate in RATES for seed in SEEDS]


def _run_cold(points):
    """One fresh pool per single-point call — the seed's per-call cost
    model, in the shape the job service fans work out."""
    outcomes = []
    start = time.perf_counter()
    for point in points:
        pool = WorkerPool(POOL_WORKERS)
        try:
            outcomes.extend(run_points([point], processes=POOL_WORKERS,
                                       pool=pool))
        finally:
            pool.close()
    return time.perf_counter() - start, outcomes


def _run_warm(points):
    """One persistent pool across every call."""
    pool = WorkerPool(POOL_WORKERS)
    outcomes = []
    try:
        # Warm the workers (fork + first construction) outside the
        # measured window: steady-state throughput is the figure a
        # long-lived server sees.
        run_points(points[:POOL_WORKERS], processes=POOL_WORKERS, pool=pool)
        start = time.perf_counter()
        for point in points:
            outcomes.extend(run_points([point], processes=POOL_WORKERS,
                                       pool=pool))
        elapsed = time.perf_counter() - start
    finally:
        pool.close()
    return elapsed, outcomes


def _identical(serial, pooled):
    for left, right in zip(serial, pooled):
        if (left.status, left.avg_latency, left.total_cycles,
                left.throughput_flits_per_cycle) != \
                (right.status, right.avg_latency, right.total_cycles,
                 right.throughput_flits_per_cycle):
            return False
        if not math.isclose(left.total_power_w, right.total_power_w,
                            rel_tol=1e-12, abs_tol=0.0):
            return False
        for component, watts in left.breakdown_w.items():
            if not math.isclose(right.breakdown_w[component], watts,
                                rel_tol=1e-12, abs_tol=0.0):
                return False
    return True


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    if RESULTS:
        OUTPUT.write_text(json.dumps(RESULTS, indent=2, sort_keys=True)
                          + "\n")
        print(f"\n== wrote {OUTPUT.name}: "
              f"warm {RESULTS['warm_points_per_sec']:.1f} pts/s vs "
              f"cold {RESULTS['cold_points_per_sec']:.1f} pts/s "
              f"({RESULTS['warm_speedup']:.2f}x, bit_identical="
              f"{RESULTS['bit_identical']}) ==")


def test_fanout_warm_pool_outpaces_cold(tmp_path):
    points = _grid()
    serial = run_points(points, processes=1)
    cold_s, cold_outcomes = _run_cold(points)
    warm_s, warm_outcomes = _run_warm(points)
    n = len(points)
    RESULTS.update({
        "benchmark": "fanout",
        "unit": "points/s",
        "grid_points": n,
        "pool_workers": POOL_WORKERS,
        "cold_points_per_sec": round(n / cold_s, 3),
        "warm_points_per_sec": round(n / warm_s, 3),
        "warm_speedup": round(cold_s / warm_s, 3),
        "bit_identical": (_identical(serial, cold_outcomes)
                          and _identical(serial, warm_outcomes)),
    })
    assert all(o.status == "ok" for o in serial)
    assert RESULTS["bit_identical"], \
        "pool outcomes diverged from serial execution"
    # The CI gate: a warm pool must never be slower than paying
    # spawn + construction per call.  (Typical speedups are well past
    # the 1.5x target; the hard floor keeps the gate noise-proof.)
    assert RESULTS["warm_speedup"] >= 1.0

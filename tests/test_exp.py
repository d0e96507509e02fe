"""Tests for the experiment orchestrator: specs, caching, parallelism,
failure isolation and progress reporting."""

import dataclasses

import pytest

from repro.core.config import RunProtocol
from repro.core.orion import Orion
from repro.exp import (
    ExperimentSpec,
    ResultCache,
    RunPoint,
    TrafficSpec,
    run_experiment,
    run_points,
)
from repro.sim.engine import SimulationTimeout

from tests.conftest import small_config

FAST = RunProtocol(warmup_cycles=100, sample_packets=50)


def point(rate=0.02, traffic=None, protocol=FAST, **config_kwargs):
    return RunPoint(config=small_config("wormhole", **config_kwargs),
                    traffic=traffic or TrafficSpec.of("uniform"),
                    rate=rate, protocol=protocol)


class TestTrafficSpec:
    def test_build_matches_direct_construction(self, wormhole_config):
        from repro.sim.topology import topology_for
        from repro.sim.traffic import UniformRandomTraffic
        topo = topology_for(wormhole_config)
        built = TrafficSpec.of("uniform").build(topo, 0.05, seed=3)
        direct = UniformRandomTraffic(topo, 0.05, seed=3)
        assert [built.packets_at(c) for c in range(50)] == \
            [direct.packets_at(c) for c in range(50)]

    def test_unknown_name_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown traffic"):
            TrafficSpec.of("teleport")

    def test_missing_required_param_rejected_eagerly(self):
        with pytest.raises(ValueError, match="requires parameter"):
            TrafficSpec.of("broadcast")

    def test_describe_includes_params(self):
        assert TrafficSpec.of("broadcast", source=9).describe() == \
            "broadcast(source=9)"

    def test_is_picklable(self):
        import pickle
        spec = TrafficSpec.of("hotspot", hotspot=5)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestCacheKey:
    def test_stable_across_equal_points(self):
        assert point().cache_key() == point().cache_key()

    def test_differs_by_rate_protocol_traffic_config(self):
        base = point()
        assert base.cache_key() != point(rate=0.03).cache_key()
        assert base.cache_key() != \
            point(protocol=FAST.with_(seed=2)).cache_key()
        assert base.cache_key() != \
            point(traffic=TrafficSpec.of("transpose")).cache_key()
        assert base.cache_key() != point(flit_bits=32).cache_key()

    def test_label_is_cosmetic(self):
        assert point().cache_key() == \
            dataclasses.replace(point(), label="other").cache_key()


class TestExperimentSpec:
    def test_grid_expansion(self, wormhole_config):
        spec = ExperimentSpec.of(
            {"a": wormhole_config, "b": wormhole_config},
            ["uniform", "transpose"], [0.02, 0.05], seeds=[1, 2],
            protocol=FAST)
        points = spec.points()
        assert len(points) == spec.num_points == 2 * 2 * 2 * 2
        # Rates vary innermost: the first two points form one curve.
        assert [p.rate for p in points[:2]] == [0.02, 0.05]
        assert points[0].label == "a"
        assert points[0].protocol.seed == 1

    def test_empty_dimension_rejected(self, wormhole_config):
        with pytest.raises(ValueError):
            ExperimentSpec.of(wormhole_config, "uniform", [])

    def test_single_config_and_traffic_accepted(self, wormhole_config):
        spec = ExperimentSpec.of(wormhole_config, "uniform", [0.02])
        assert spec.points()[0].traffic.name == "uniform"


class TestSerialParallelParity:
    @pytest.mark.parametrize("traffic,params", [
        ("uniform", {}),
        ("transpose", {}),
        ("hotspot", {"hotspot": 5}),
    ])
    def test_bit_identical_points(self, traffic, params):
        orion = Orion(small_config("wormhole"))
        serial = orion.sweep_traffic(traffic, [0.02, 0.04], FAST, **params)
        parallel = orion.sweep_traffic(traffic, [0.02, 0.04], FAST,
                                       processes=4, **params)
        assert serial.rates == parallel.rates
        for s, p in zip(serial.points, parallel.points):
            assert p.avg_latency == s.avg_latency
            assert p.total_power_w == s.total_power_w
            assert p.throughput_flits_per_cycle == \
                s.throughput_flits_per_cycle
            assert p.breakdown_w == s.breakdown_w

    def test_parallel_matches_legacy_uniform_sweep(self):
        orion = Orion(small_config("vc"))
        legacy = orion.sweep_uniform([0.02, 0.05], FAST)
        parallel = orion.sweep_uniform([0.02, 0.05], FAST, processes=2)
        assert legacy.latencies == parallel.latencies
        assert legacy.powers == parallel.powers


class TestCaching:
    def test_second_run_is_all_cache_hits(self, tmp_path, wormhole_config):
        spec = ExperimentSpec.of(wormhole_config, ["uniform", "transpose"],
                                 [0.02, 0.04], protocol=FAST)
        cache = ResultCache(tmp_path / "cache")
        seen = []
        first = run_experiment(spec, cache=cache,
                               progress=lambda p: seen.append(p))
        assert first.cache_hits == 0 and first.simulated == 4
        assert seen[-1].done == seen[-1].total == 4
        assert seen[-1].cycles_simulated > 0

        seen.clear()
        second = run_experiment(spec, cache=cache,
                                progress=lambda p: seen.append(p))
        # Zero simulations: every progress event reports a cache hit.
        assert second.cache_hits == 4 and second.simulated == 0
        assert all(p.outcome.from_cache for p in seen)
        assert seen[-1].cache_hit_rate == 1.0
        assert seen[-1].cycles_simulated == 0
        # ... and the numbers are bit-identical to the fresh run.
        for fresh, cached in zip(first.outcomes, second.outcomes):
            assert cached.avg_latency == fresh.avg_latency
            assert cached.total_power_w == fresh.total_power_w

    def test_progress_reports_hit_and_miss_counts(self, tmp_path,
                                                  wormhole_config):
        """Progress events and the result expose cache hits AND misses,
        so callers can report 'N hits / M misses' without bookkeeping."""
        spec = ExperimentSpec.of(wormhole_config, "uniform", [0.02, 0.04],
                                 protocol=FAST)
        cache = ResultCache(tmp_path / "cache")
        seen = []
        first = run_experiment(spec, cache=cache,
                               progress=lambda p: seen.append(p))
        assert seen[-1].cache_hits == 0
        assert seen[-1].cache_misses == 2
        assert first.cache_misses == 2 == first.simulated

        seen.clear()
        second = run_experiment(spec, cache=cache,
                                progress=lambda p: seen.append(p))
        assert seen[-1].cache_hits == 2
        assert seen[-1].cache_misses == 0
        assert second.cache_misses == 0
        # hits + misses always account for every finished point
        assert all(p.cache_hits + p.cache_misses == p.done for p in seen)

    def test_cache_accepts_directory_path(self, tmp_path, wormhole_config):
        spec = ExperimentSpec.of(wormhole_config, "uniform", [0.02],
                                 protocol=FAST)
        run_experiment(spec, cache=str(tmp_path / "c"))
        assert run_experiment(spec, cache=str(tmp_path / "c")).cache_hits == 1

    def test_keep_results_misses_summary_only_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        pts = [point()]
        run_points(pts, cache=cache)  # stores summary only
        again = run_points(pts, cache=cache, keep_results=True)
        assert not again[0].from_cache  # had to recompute for the result
        assert again[0].result is not None
        third = run_points(pts, cache=cache, keep_results=True)
        assert third[0].from_cache and third[0].result is not None

    def test_hit_carries_the_callers_point(self, tmp_path):
        """A hit reports the point it was asked for, not the one that
        stored the entry: labels are cosmetic and not in the key."""
        cache = ResultCache(tmp_path / "cache")
        run_experiment([dataclasses.replace(point(), label="first")],
                       cache=cache)
        second = dataclasses.replace(point(), label="second")
        result = run_experiment([second], cache=cache)
        (hit,) = result.outcomes
        assert hit.from_cache
        assert hit.point is second
        assert hit.summary_dict()["label"] == "second"
        assert result.select(label="second") == [hit]
        assert result.select(label="first") == []

    def test_entries_do_not_hold_the_point(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        (fresh,) = run_points([point()], cache=cache)
        assert fresh.point == point()  # the stored copy is stripped
        stored = cache.load(point().cache_key())
        assert stored.point is None
        assert stored.avg_latency == fresh.avg_latency

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        pts = [point()]
        run_points(pts, cache=cache)
        entry = next((tmp_path / "cache").glob("objects/*/*/*.pkl"))
        entry.write_bytes(b"not a pickle")
        redone = run_points(pts, cache=cache)
        assert not redone[0].from_cache and redone[0].ok

    def test_corrupted_entry_logs_a_warning(self, tmp_path, caplog):
        import logging

        cache = ResultCache(tmp_path / "cache")
        pts = [point()]
        run_points(pts, cache=cache)
        entry = next((tmp_path / "cache").glob("objects/*/*/*.pkl"))
        entry.write_bytes(b"\x80\x04garbage")
        cache.misses = 0
        with caplog.at_level(logging.WARNING, logger="repro.exp.cache"):
            redone = run_points(pts, cache=cache)
        assert redone[0].ok and not redone[0].from_cache
        assert cache.misses == 1
        assert any("unreadable" in record.message
                   for record in caplog.records)

    def test_plain_miss_stays_silent(self, tmp_path, caplog):
        import logging

        cache = ResultCache(tmp_path / "cache")
        with caplog.at_level(logging.WARNING, logger="repro.exp.cache"):
            assert cache.load(point().cache_key()) is None
        assert not caplog.records

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_points([point(), point(rate=0.03)], cache=cache)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_concurrent_writers_same_key(self, tmp_path):
        """Many writers racing on one key must not collide on tmp names
        or leave orphan tmp files — each write stays atomic."""
        import threading

        cache = ResultCache(tmp_path / "cache")
        outcome = run_points([point()], cache=None)[0]
        key = point().cache_key()
        errors = []

        def write():
            try:
                for _ in range(20):
                    cache.store(key, outcome)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert not list((tmp_path / "cache").glob("*/*.tmp*"))
        hit = cache.load(key)
        assert hit is not None and hit.ok

    def test_stale_tmp_files_swept_on_construction(self, tmp_path):
        import os
        import time

        root = tmp_path / "cache"
        cache = ResultCache(root)
        outcome = run_points([point()], cache=None)[0]
        cache.store(point().cache_key(), outcome)
        subdir = next(root.glob("objects/*/*/"))  # where store() writes
        old = subdir / "dead.pkl.tmpabc123"
        old.write_bytes(b"partial write from a crashed run")
        stale = time.time() - 7200
        os.utime(old, (stale, stale))
        young = subdir / "live.pkl.tmpdef456"
        young.write_bytes(b"a concurrent writer still owns this")

        ResultCache(root)  # construction sweeps
        assert not old.exists()
        assert young.exists()  # too young to be an orphan
        assert len(cache) == 1  # real entries untouched

    def test_interrupted_store_leaves_no_tmp(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("boom mid-write")

        with pytest.raises(RuntimeError, match="boom"):
            cache.store(point().cache_key(), Unpicklable())
        assert not list((tmp_path / "cache").glob("*/*.tmp*"))

    def test_telemetry_carried_and_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        proto = FAST.with_(telemetry_window=25)
        fresh = run_points([point(protocol=proto)], cache=cache)[0]
        assert fresh.telemetry is not None
        assert fresh.telemetry.num_windows > 0
        cached = run_points([point(protocol=proto)], cache=cache)[0]
        assert cached.from_cache
        assert cached.telemetry is not None
        assert cached.telemetry.event_totals() == \
            fresh.telemetry.event_totals()


class TestFailureIsolation:
    def test_timeout_recorded_without_killing_sweep(self):
        doomed = point(protocol=FAST.with_(max_cycles=30,
                                           sample_packets=5000))
        healthy = point()
        outcomes = run_points([healthy, doomed, point(rate=0.03)])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "SimulationTimeout" in outcomes[1].error
        assert outcomes[1].total_cycles > 0

    def test_on_error_raise_propagates(self):
        doomed = point(protocol=FAST.with_(max_cycles=30,
                                           sample_packets=5000))
        with pytest.raises(SimulationTimeout):
            run_points([doomed], on_error="raise")

    def test_failures_are_cached_too(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        doomed = point(protocol=FAST.with_(max_cycles=30,
                                           sample_packets=5000))
        run_points([doomed], cache=cache)
        again = run_points([doomed], cache=cache)
        assert again[0].from_cache and not again[0].ok

    def test_failed_point_renders_in_sweep_table(self):
        doomed = point(protocol=FAST.with_(max_cycles=30,
                                           sample_packets=5000))
        result = run_experiment([point(), doomed])
        sweep = next(iter(result.sweeps().values()))
        assert len(sweep.failed_points) == 1
        assert "FAILED" in sweep.table()
        assert sweep.saturation_rate() is None or True  # must not raise


class TestExperimentResult:
    def test_select_and_sweep_filters(self, wormhole_config, vc_config):
        spec = ExperimentSpec.of({"wh": wormhole_config, "vc": vc_config},
                                 "uniform", [0.02, 0.04], protocol=FAST)
        result = run_experiment(spec)
        assert len(result.select(label="wh")) == 2
        sweep = result.sweep(label="vc", sweep_label="vc-curve")
        assert sweep.label == "vc-curve"
        assert sweep.rates == [0.02, 0.04]
        with pytest.raises(ValueError):
            result.sweep(label="nope")

    def test_summary_mentions_counts(self, wormhole_config):
        result = run_experiment(
            ExperimentSpec.of(wormhole_config, "uniform", [0.02],
                              protocol=FAST))
        assert "1 points" in result.summary()
        assert "0 failed" in result.summary()

    def test_keep_results_through_pool(self):
        outcomes = run_points([point(), point(rate=0.03)], processes=2,
                              keep_results=True)
        assert all(o.result is not None for o in outcomes)
        assert all(o.result.accountant is not None for o in outcomes)

    def test_telemetry_points_reuse_pool_contexts_and_cache(self,
                                                             tmp_path):
        """A telemetry point is a plain value: a worker reuses its
        context, the pool matches the in-process run, and a second call
        is served from cache with the same utilisation."""
        from collections import OrderedDict

        from repro.exp.pool import _run_payload

        first = point(protocol=FAST.with_(telemetry_window=25))
        second = dataclasses.replace(first, rate=0.03)
        fresh = [run_points([p])[0].telemetry.channel_utilization()
                 for p in (first, second)]
        # Worker side: both points run on one context, reset between.
        contexts = OrderedDict()
        for p, want in zip((first, second), fresh):
            outcome = _run_payload((p, False, 0, 0.0, True), contexts)
            assert outcome.ok and outcome.result is None
            assert outcome.telemetry.channel_utilization() == want
        assert len(contexts) == 1
        cache = ResultCache(tmp_path / "cache")
        pooled = run_points([first, second], processes=2, cache=cache)
        assert [o.telemetry.channel_utilization() for o in pooled] == fresh
        again = run_points([first, second], cache=cache)
        assert all(o.from_cache for o in again)
        assert [o.telemetry.channel_utilization() for o in again] == fresh

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            run_points([])

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError):
            run_points([point()], on_error="ignore")

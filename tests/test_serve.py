"""Tests for the simulation service (``repro serve``).

Unit layers first (queue, metrics, job parsing, journal), then
integration against a real in-process server: 100 concurrent
submissions over 2 workers, single-flight dedup, 429 backpressure,
journal recovery, and a subprocess SIGTERM graceful-drain check.
"""

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exp import config_to_dict
from repro.serve import (
    GatewayApp,
    GatewayConfig,
    Job,
    JobError,
    JobJournal,
    JobNotFound,
    JobQueue,
    JobRejected,
    QueueFull,
    ServeApp,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerMetrics,
    parse_job,
)

from repro.serve.http import MAX_BODY_BYTES

from tests.conftest import small_config

SMALL_CONFIG = config_to_dict(small_config("wormhole"))
FAST_PROTOCOL = {"warmup_cycles": 80, "sample_packets": 30}


def run_payload(rate=0.03, label="", **spec_extra):
    spec = {"config": SMALL_CONFIG, "traffic": "uniform", "rate": rate,
            "protocol": dict(FAST_PROTOCOL), "label": label}
    spec.update(spec_extra)
    return {"kind": "run", "spec": spec}


def estimate_payload(rate=0.05, preset="VC16"):
    return {"kind": "estimate",
            "spec": {"config": preset, "traffic": "uniform", "rate": rate}}


def experiment_payload(rates, **spec_extra):
    spec = {"configs": [["small", SMALL_CONFIG]], "traffics": ["uniform"],
            "rates": list(rates), "protocol": dict(FAST_PROTOCOL)}
    spec.update(spec_extra)
    return {"kind": "experiment", "spec": spec}


def make_job(payload, job_id="j1", priority=0):
    payload = dict(payload)
    if priority:
        payload["priority"] = priority
    return parse_job(payload, job_id)


# --- unit: queue -------------------------------------------------------------

class TestJobQueue:
    def test_fifo_within_priority(self):
        queue = JobQueue(limit=8)
        jobs = [make_job(estimate_payload(rate=0.01 * i), f"j{i}")
                for i in range(1, 4)]
        for job in jobs:
            queue.push(job)
        assert [queue.pop().id for _ in range(3)] == ["j1", "j2", "j3"]
        assert queue.pop() is None

    def test_higher_priority_first(self):
        queue = JobQueue(limit=8)
        queue.push(make_job(estimate_payload(0.01), "low"))
        queue.push(make_job(estimate_payload(0.02), "high", priority=5))
        queue.push(make_job(estimate_payload(0.03), "mid", priority=1))
        assert [queue.pop().id for _ in range(3)] == ["high", "mid", "low"]

    def test_bound_raises_queue_full(self):
        queue = JobQueue(limit=2)
        queue.push(make_job(estimate_payload(0.01), "a"))
        queue.push(make_job(estimate_payload(0.02), "b"))
        with pytest.raises(QueueFull):
            queue.push(make_job(estimate_payload(0.03), "c"))
        assert len(queue) == 2

    def test_iter_is_pop_order_and_non_destructive(self):
        queue = JobQueue(limit=8)
        queue.push(make_job(estimate_payload(0.01), "low"))
        queue.push(make_job(estimate_payload(0.02), "high", priority=9))
        assert [job.id for job in queue] == ["high", "low"]
        assert len(queue) == 2

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError):
            JobQueue(limit=0)


# --- unit: metrics -----------------------------------------------------------

class TestServerMetrics:
    def test_counters_start_at_zero_and_inc(self):
        metrics = ServerMetrics()
        assert metrics.counters["deduped"] == 0
        metrics.inc("deduped")
        metrics.inc("submitted", 3)
        assert metrics.counters["deduped"] == 1
        assert metrics.counters["submitted"] == 3

    def test_percentiles_nearest_rank(self):
        metrics = ServerMetrics()
        assert metrics.percentile(50) is None
        for value in (5.0, 1.0, 3.0, 2.0, 4.0):
            metrics.observe_duration(value)
        assert metrics.percentile(50) == 3.0
        assert metrics.percentile(99) == 5.0
        assert metrics.percentile(0) == 1.0

    def test_snapshot_shape(self):
        metrics = ServerMetrics()
        metrics.inc("accepted")
        snap = metrics.snapshot(queue_depth=3, in_flight=1, draining=False)
        assert snap["queue_depth"] == 3
        assert snap["in_flight"] == 1
        assert snap["accepted"] == 1
        assert snap["draining"] is False
        assert "wall_seconds_p50" in snap
        assert "cache_hits" not in snap  # no cache wired in


# --- unit: job parsing and dedup keys ---------------------------------------

class TestParseJob:
    def test_run_job_expands_one_point(self):
        job = make_job(run_payload(rate=0.04))
        assert job.kind == "run"
        assert len(job.points) == 1
        assert job.points[0].rate == 0.04

    def test_experiment_job_expands_grid(self):
        job = make_job(experiment_payload([0.02, 0.05], seeds=[1, 2]))
        assert len(job.points) == 4

    def test_estimate_job_has_no_points(self):
        job = make_job(estimate_payload())
        assert job.points == []
        assert job.estimate["rate"] == 0.05

    def test_preset_name_and_explicit_dict_share_key(self):
        from repro.core.presets import preset
        by_name = make_job({"kind": "run",
                            "spec": {"config": "VC16", "rate": 0.03}}, "a")
        by_dict = make_job({"kind": "run",
                            "spec": {"config": config_to_dict(preset("VC16")),
                                     "rate": 0.03}}, "b")
        assert by_name.key == by_dict.key

    def test_run_and_one_point_experiment_share_key(self):
        run = make_job(run_payload(rate=0.03, label="small"), "a")
        experiment = make_job(experiment_payload([0.03]), "b")
        assert run.key == experiment.key

    def test_different_rates_differ(self):
        assert make_job(run_payload(0.03), "a").key \
            != make_job(run_payload(0.04), "b").key

    def test_preset_overrides(self):
        job = make_job({"kind": "run", "spec": {
            "config": {"preset": "VC16",
                       "overrides": {"router": {"num_vcs": 4}}},
            "rate": 0.03}})
        assert job.points[0].config.router.num_vcs == 4

    @pytest.mark.parametrize("payload,fragment", [
        ([1, 2], "must be a JSON object"),
        ({"kind": "teleport", "spec": {}}, "unknown job kind"),
        ({"kind": "run"}, "needs a 'spec' object"),
        ({"kind": "run", "spec": {"rate": 0.03}}, "missing 'config'"),
        ({"kind": "run", "spec": {"config": "NOPE", "rate": 0.03}},
         "unknown preset"),
        ({"kind": "run", "spec": {"config": "VC16", "rate": "fast"}},
         "rate must be a number"),
        ({"kind": "run", "spec": {"config": "VC16", "rate": 0.03},
          "bogus": 1}, "unknown job fields"),
        ({"kind": "run", "spec": {"config": "VC16", "rate": 0.03},
          "options": {"processes": 0}}, "processes must be >= 1"),
        ({"kind": "run", "spec": {"config": "VC16", "rate": 0.03},
          "options": {"point_timeout": -1}}, "point_timeout must be > 0"),
        ({"kind": "experiment", "spec": {"traffics": ["uniform"],
                                         "rates": [0.03]}},
         "missing configs"),
        ({"kind": "experiment",
          "spec": {"presets": ["VC16"], "configs": [["a", "VC16"]],
                   "traffics": ["uniform"], "rates": [0.03]}},
         "not both"),
        ({"kind": "estimate", "spec": {"config": "VC16"}},
         "missing 'rate'"),
        ({"kind": "run", "spec": {"config": "VC16", "rate": 0}},
         r"rate must be in \(0, 1\], got 0.0"),
        ({"kind": "run", "spec": {"config": "VC16", "rate": -0.1}},
         r"rate must be in \(0, 1\], got -0.1"),
        ({"kind": "run", "spec": {"config": "VC16", "rate": 1.5}},
         r"rate must be in \(0, 1\], got 1.5"),
        ({"kind": "run", "spec": {"config": "VC16", "rate": float("nan")}},
         r"rate must be in \(0, 1\], got nan"),
        ({"kind": "experiment",
          "spec": {"presets": ["VC16"], "traffics": ["uniform"],
                   "rates": [0.02, 0.0]}},
         r"experiment spec: rate must be in \(0, 1\], got 0.0"),
        ({"kind": "estimate", "spec": {"config": "VC16", "rate": -1}},
         r"estimate spec: rate must be in \[0, 1\], got -1.0"),
    ])
    def test_malformed_payloads_raise_job_error(self, payload, fragment):
        with pytest.raises(JobError, match=fragment):
            parse_job(payload, "x")


# --- unit: journal -----------------------------------------------------------

class TestJobJournal:
    def test_record_recover_discard(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        first = make_job(estimate_payload(0.01), "first")
        second = make_job(estimate_payload(0.02), "second")
        journal.record(first)
        journal.record(second)
        assert len(journal) == 2
        entries = journal.recover()
        assert [e["id"] for e in entries] == ["first", "second"]
        assert entries[0]["payload"] == first.payload
        journal.discard("first")
        assert len(journal) == 1
        journal.discard("first")  # idempotent
        assert [e["id"] for e in journal.recover()] == ["second"]

    def test_recover_drops_unreadable_entries(self, tmp_path):
        root = tmp_path / "journal"
        journal = JobJournal(root)
        journal.record(make_job(estimate_payload(0.01), "good"))
        (root / "bad.json").write_text("{not json")
        (root / "wrong.json").write_text('{"no": "id"}')
        assert [e["id"] for e in journal.recover()] == ["good"]
        assert len(journal) == 1  # junk removed

    def test_missing_root_is_empty(self, tmp_path):
        journal = JobJournal(tmp_path / "nowhere")
        assert journal.recover() == []
        assert len(journal) == 0


# --- integration: in-process server ------------------------------------------

class ServerHandle:
    """One in-process server on an ephemeral port, drained on close."""

    def __init__(self, app: ServeApp) -> None:
        self.app = app
        self.thread = threading.Thread(
            target=lambda: asyncio.run(app.serve()), daemon=True)
        self.thread.start()
        if not app.ready.wait(15):
            raise RuntimeError("server did not come up")
        self.client = ServeClient(f"http://127.0.0.1:{app.port}",
                                  timeout=30.0)

    def close(self) -> None:
        self.app.request_drain()
        self.thread.join(timeout=60)
        self.client.close()


@pytest.fixture
def start_server(tmp_path):
    handles = []

    def start(**kwargs):
        options = dict(host="127.0.0.1", port=0, workers=2, queue_limit=64,
                       cache_dir=str(tmp_path / "cache"),
                       journal_dir=str(tmp_path / "journal"),
                       drain_timeout=20.0, quiet=True)
        options.update(kwargs)
        handle = ServerHandle(ServeApp(ServeConfig(**options)))
        handles.append(handle)
        return handle

    yield start
    for handle in handles:
        handle.close()


def wait_until_running(client, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.status(job_id)["status"]
        if status in ("running", "done", "failed"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never started")


def big_estimate_payload(**options):
    """An estimate that takes seconds (VC16 at 32x32): long enough to
    time out or be cancelled while it runs."""
    payload = {"kind": "estimate",
               "spec": {"config": {"preset": "VC16",
                                   "overrides": {"width": 32,
                                                 "height": 32}},
                        "traffic": "uniform", "rate": 0.01}}
    if options:
        payload["options"] = options
    return payload


class TestServerBasics:
    def test_health_and_estimate_round_trip(self, start_server):
        server = start_server()
        client = server.client
        assert client.health()["status"] == "ok"
        final = client.submit_and_wait(estimate_payload(0.05), timeout=30)
        assert final["status"] == "done"
        est = final["result"]["estimate"]
        assert est["rate"] == 0.05
        assert est["total_power_w"] > 0
        assert est["avg_latency"] > 0

    def test_run_job_returns_point_summaries(self, start_server):
        server = start_server()
        final = server.client.submit_and_wait(run_payload(0.03), timeout=120)
        assert final["status"] == "done"
        result = final["result"]
        assert result["num_points"] == 1
        assert result["failures"] == 0
        point = result["points"][0]
        assert point["ok"] is True
        assert point["avg_latency"] > 0
        assert point["total_power_w"] > 0

    def test_terminal_job_keeps_only_its_status_reply(self, start_server):
        server = start_server()
        for payload, points in ((run_payload(0.027), 1),
                                (estimate_payload(0.043), 0)):
            final = server.client.submit_and_wait(payload, timeout=120)
            assert final["status"] == "done"
            assert set(final) == {
                "id", "kind", "key", "priority", "status", "submitted_at",
                "started_at", "finished_at", "wall_seconds", "num_points",
                "coalesced", "error", "num_events", "events_trimmed",
                "result"}
            assert final["num_points"] == points
            assert final["result"]
            job = server.app.jobs[final["id"]]
            assert (job.payload, job.points, job.estimate) == (None, [], None)

    def test_unknown_job_is_404(self, start_server):
        server = start_server()
        with pytest.raises(ServeError) as excinfo:
            server.client.status("nope")
        assert excinfo.value.status == 404

    def test_invalid_payload_is_400(self, start_server):
        server = start_server()
        with pytest.raises(ServeError) as excinfo:
            server.client.submit({"kind": "run", "spec": {"rate": 0.03}})
        assert excinfo.value.status == 400
        assert "config" in str(excinfo.value)
        assert server.client.metrics()["invalid"] == 1

    def test_event_stream_ends_with_done(self, start_server):
        server = start_server()
        client = server.client
        accepted = client.submit(run_payload(0.02, label="streamed"))
        events = list(client.stream(accepted["id"]))
        assert events[0]["type"] == "status"
        assert events[-1]["type"] == "done"
        assert events[-1]["status"] == "done"
        assert any(event["type"] == "progress" for event in events)

    def test_cache_hit_on_resubmit_after_completion(self, start_server):
        server = start_server()
        client = server.client
        first = client.submit_and_wait(run_payload(0.025), timeout=120)
        assert first["result"]["points"][0]["from_cache"] is False
        second = client.submit_and_wait(run_payload(0.025), timeout=120)
        assert second["id"] != first["id"]
        assert second["result"]["points"][0]["from_cache"] is True
        assert client.metrics()["cache_hits"] >= 1


class TestDedupAndBackpressure:
    def test_identical_payloads_coalesce(self, start_server):
        server = start_server(workers=1)
        client = server.client
        # Occupy the single worker so duplicates meet an active key.
        blocker = client.submit(run_payload(0.02, label="blocker"))
        wait_until_running(client, blocker["id"])
        first = client.submit(run_payload(0.03, label="dup"))
        assert first["deduped"] is False
        second = client.submit(run_payload(0.03, label="dup"))
        assert second["deduped"] is True
        assert second["id"] == first["id"]
        final = client.wait(first["id"], timeout=120)
        assert final["status"] == "done"
        assert final["coalesced"] == 1
        metrics = client.metrics()
        assert metrics["deduped"] == 1
        assert metrics["accepted"] == 2

    def test_queue_full_gets_429_with_retry_after(self, start_server):
        server = start_server(workers=1, queue_limit=1)
        client = server.client
        # A blocker that takes seconds: it cannot finish before the two
        # follow-up submissions arrive.
        blocker = client.submit(big_estimate_payload())
        assert wait_until_running(client, blocker["id"]) == "running"
        queued = client.submit(run_payload(0.03, label="queued"))
        assert queued["status"] == "queued"
        with pytest.raises(ServeError) as excinfo:
            client.submit(run_payload(0.04, label="bounced"))
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 1
        assert client.metrics()["rejected_queue_full"] == 1
        assert client.cancel(blocker["id"])["status"] == "cancelled"
        # The queued job still runs and finishes.
        assert client.wait(queued["id"], timeout=120)["status"] == "done"


class TestConcurrentLoad:
    def test_hundred_concurrent_submissions(self, start_server):
        server = start_server(workers=2, queue_limit=256)
        client = server.client

        # Keep both workers busy so the duplicate pair below reliably
        # meets an active (queued) key instead of racing a fast finish.
        # Distinct rates: identical rates would dedup into one job.
        blockers = [client.submit(run_payload(0.021 + 0.001 * i,
                                              label=f"blk{i}"))
                    for i in range(2)]
        for blocker in blockers:
            wait_until_running(client, blocker["id"])

        payloads = [estimate_payload(rate=0.001 + 0.0005 * i)
                    for i in range(96)]
        payloads += [run_payload(0.03, label="dup"),
                     run_payload(0.03, label="dup"),
                     run_payload(0.035, label="solo"),
                     experiment_payload([0.02, 0.04])]
        assert len(payloads) == 100

        with ThreadPoolExecutor(max_workers=32) as pool:
            accepted = list(pool.map(client.submit, payloads))

        job_ids = {entry["id"] for entry in accepted}
        finals = {job_id: client.wait(job_id, timeout=300)
                  for job_id in job_ids}
        assert all(final["status"] == "done"
                   for final in finals.values())

        # Estimates came back correct: rate echoed, finite physics.
        rates_seen = sorted(
            final["result"]["estimate"]["rate"]
            for final in finals.values() if "estimate" in
            (final["result"] or {}))
        assert rates_seen == sorted(p["spec"]["rate"] for p in payloads
                                    if p["kind"] == "estimate")
        # The experiment grid ran both points.
        experiment_final = next(f for f in finals.values()
                                if f["kind"] == "experiment")
        assert experiment_final["result"]["num_points"] == 2
        assert experiment_final["result"]["failures"] == 0

        # Identical payloads executed at most once.
        dup_ids = {entry["id"] for entry, payload in zip(accepted, payloads)
                   if payload.get("spec", {}).get("label") == "dup"}
        assert len(dup_ids) == 1
        metrics = client.metrics()
        assert metrics["deduped"] >= 1
        assert metrics["submitted"] == 102  # 2 blockers + 100 burst
        assert metrics["accepted"] == len(job_ids) + 2
        assert metrics["failed"] == 0


class TestRecovery:
    def test_journaled_jobs_recovered_and_completed(self, tmp_path,
                                                    start_server):
        journal = JobJournal(tmp_path / "journal")
        for index in range(3):
            journal.record(make_job(estimate_payload(0.01 + 0.01 * index),
                                    f"lost{index}"))
        server = start_server(journal_dir=str(tmp_path / "journal"))
        client = server.client
        assert client.metrics()["recovered"] == 3
        for index in range(3):
            final = client.wait(f"lost{index}", timeout=60)
            assert final["status"] == "done"
        assert len(journal) == 0  # discarded as each completed

    def test_drain_completes_in_flight_then_exits(self, tmp_path):
        app = ServeApp(ServeConfig(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"),
            journal_dir=str(tmp_path / "journal"), drain_timeout=20.0,
            quiet=True))
        thread = threading.Thread(target=lambda: asyncio.run(app.serve()),
                                  daemon=True)
        thread.start()
        assert app.ready.wait(15)
        client = ServeClient(f"http://127.0.0.1:{app.port}")
        accepted = client.submit(run_payload(0.02))
        wait_until_running(client, accepted["id"])
        app.request_drain()
        thread.join(timeout=60)
        assert not thread.is_alive()
        # The in-flight job finished and its journal entry was cleared.
        assert app.jobs[accepted["id"]].status == "done"
        assert len(app.journal) == 0


class TestSigtermSubprocess:
    def test_sigterm_mid_load_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..",
                                         "src") + os.pathsep \
            + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        journal_dir = tmp_path / "journal"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
             "--journal-dir", str(journal_dir),
             "--drain-timeout", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(tmp_path))
        try:
            line = process.stdout.readline()
            assert "serving on http://" in line, line
            port = int(line.split("http://")[1].split()[0]
                       .rsplit(":", 1)[1])
            client = ServeClient(f"http://127.0.0.1:{port}")
            accepted = [client.submit(run_payload(0.02 + 0.005 * i,
                                                  label=f"load{i}"))
                        for i in range(4)]
            wait_until_running(client, accepted[0]["id"])
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, out
        assert "drain: complete, exiting 0" in out
        # Anything unfinished stayed journaled (recoverable), anything
        # finished was discarded — either way every file is readable.
        leftover = JobJournal(journal_dir).recover()
        finished = 4 - len(leftover)
        assert 0 <= finished <= 4
        for entry in leftover:
            parse_job(entry["payload"], entry["id"])  # recoverable


class TestBatchAndHousekeeping:
    def test_batch_submit_mixed_entries(self, start_server):
        """One batch with good, duplicate and bad entries: per-entry
        http_status, no cross-poisoning, correct tallies."""
        server = start_server()
        client = server.client
        good = run_payload(0.02, label="batch0")
        out = client.submit_many([good, good, {"kind": "nonsense"}])
        assert len(out) == 3
        assert out[0]["http_status"] == 202
        # Same payload → single-flight dedup onto the first entry's job.
        assert out[1]["http_status"] in (200, 202)
        assert out[1]["id"] == out[0]["id"]
        assert out[2]["http_status"] == 400
        assert "error" in out[2]
        final = client.wait(out[0]["id"], timeout=120)
        assert final["status"] == "done"
        metrics = client.metrics()
        assert metrics["submitted"] >= 3
        assert metrics["invalid"] >= 1

    def test_batch_rejects_non_list_body(self, start_server):
        server = start_server()
        client = server.client
        with pytest.raises(ServeError) as err:
            client._request("POST", "/v2/jobs:batch", {"jobs": "nope"})
        assert err.value.status == 400

    def test_terminal_jobs_evicted_after_ttl(self, start_server):
        server = start_server(job_ttl=10.0)
        client = server.client
        final = client.submit_and_wait(run_payload(0.02, label="ttl"),
                                       timeout=120)
        app = server.app
        job_id = final["id"]
        assert app.housekeep(now=time.time() + 5.0) == 0
        assert job_id in app.jobs
        assert app.housekeep(now=time.time() + 11.0) == 1
        assert job_id not in app.jobs
        assert client.metrics()["evicted_jobs"] == 1
        with pytest.raises(ServeError) as err:
            client.status(job_id)
        assert err.value.status == 404

    def test_running_jobs_never_evicted(self, start_server):
        server = start_server(workers=1, job_ttl=0.001)
        client = server.client
        accepted = client.submit(run_payload(0.02, label="live"))
        wait_until_running(client, accepted["id"])
        server.app.housekeep(now=time.time() + 3600.0)
        final = client.wait(accepted["id"], timeout=120)
        assert final["status"] == "done"

    def test_event_log_bounded_and_stream_survives(self, start_server):
        server = start_server(max_job_events=3)
        client = server.client
        accepted = client.submit(experiment_payload(
            [0.02, 0.025, 0.03, 0.035], label="bounded"))
        final = client.wait(accepted["id"], timeout=120)
        # 1 queued + 1 running + 4 progress + 1 done published, only the
        # newest 3 retained.
        assert final["num_events"] == 7
        assert final["events_trimmed"] == 4
        assert client.metrics()["trimmed_events"] >= 4
        # A late stream replays only the retained tail, still ending
        # with the terminal done event.
        events = list(client.stream(accepted["id"]))
        assert len(events) == 3
        assert events[-1]["type"] == "done"

    def test_housekeeping_prunes_result_cache(self, tmp_path,
                                              start_server):
        server = start_server(cache_max_entries=1,
                              housekeeping_interval=0.2)
        client = server.client
        client.submit_and_wait(run_payload(0.02, label="p0"), timeout=120)
        client.submit_and_wait(run_payload(0.03, label="p1"), timeout=120)
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if server.app.cache.stats()["entries"] <= 1:
                break
            time.sleep(0.1)
        assert server.app.cache.stats()["entries"] <= 1
        assert client.metrics()["cache_pruned"] >= 1

    def test_metrics_expose_pool_stats(self, start_server):
        server = start_server()
        client = server.client
        client.submit_and_wait(run_payload(0.02, label="pooled"),
                               timeout=120)
        metrics = client.metrics()
        assert metrics["pool_workers"] >= 1
        assert metrics["pool_tasks_completed"] >= 1

    def test_serve_config_validates_pool_idle_timeout(self, tmp_path):
        base = dict(port=0, cache_dir=str(tmp_path / "c"),
                    journal_dir=str(tmp_path / "j"), quiet=True)
        with pytest.raises(ValueError):
            ServeConfig(pool_idle_timeout=0.0, **base)
        with pytest.raises(ValueError):
            ServeConfig(pool_idle_timeout=-5.0, **base)
        assert ServeConfig(pool_idle_timeout=60.0,
                           **base).pool_idle_timeout == 60.0

    def test_serve_config_validates_new_knobs(self, tmp_path):
        base = dict(port=0, cache_dir=str(tmp_path / "c"),
                    journal_dir=str(tmp_path / "j"), quiet=True)
        with pytest.raises(ValueError):
            ServeConfig(job_ttl=0.0, **base)
        with pytest.raises(ValueError):
            ServeConfig(max_job_events=1, **base)
        with pytest.raises(ValueError):
            ServeConfig(cache_max_age=-1.0, **base)
        with pytest.raises(ValueError):
            ServeConfig(cache_max_entries=-1, **base)
        with pytest.raises(ValueError):
            ServeConfig(housekeeping_interval=0.0, **base)


# --- v2 API surface: envelopes, request conformance, cancellation ------------

def raw_request(port, method, path, body=None):
    """One raw HTTP round-trip, returning (status, headers, parsed body) —
    used where the client would hide the wire shape we're asserting on."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return (response.status, dict(response.getheaders()),
                json.loads(data) if data else {})
    finally:
        conn.close()


class TestV2Envelope:
    def test_v2_errors_carry_the_uniform_envelope(self, start_server):
        server = start_server()
        port = server.app.port
        status, _, out = raw_request(port, "POST", "/v2/jobs",
                                     {"kind": "run", "spec": {"rate": 1}})
        assert status == 400
        err = out["error"]
        assert err["code"] == "invalid_job"
        assert "config" in err["message"]
        assert err["retryable"] is False
        status, _, out = raw_request(port, "GET", "/v2/jobs/nope")
        assert status == 404
        assert out["error"]["code"] == "job_not_found"

    def test_client_raises_typed_exceptions(self, start_server):
        server = start_server()
        client = server.client
        with pytest.raises(JobNotFound) as not_found:
            client.status("ghost")
        assert not_found.value.status == 404
        assert not_found.value.code == "job_not_found"
        with pytest.raises(JobRejected) as rejected:
            client.submit({"kind": "run", "spec": {"rate": 0.03}})
        assert rejected.value.status == 400
        assert rejected.value.code == "invalid_job"


def raw_exchange(port, data):
    """Send literal bytes and read to EOF: (status, parsed JSON body).
    For requests ``http.client`` would refuse to put on the wire."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # the server closed on input it declined to read
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head, "empty reply"
    return int(head.split()[1]), json.loads(body)


def post(path, body, length=None):
    length = len(body) if length is None else length
    return (f"POST {path} HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
            .encode() + body)


#: (request bytes, expected status, expected envelope code)
CONFORMANCE = {
    "unknown-path": (b"GET /nowhere HTTP/1.1\r\n\r\n", 404, "not_found"),
    "v1-list-gone": (b"GET /v1/jobs HTTP/1.1\r\n\r\n", 404, "not_found"),
    "v1-submit-gone": (post("/v1/jobs", b"{}"), 404, "not_found"),
    "bad-method": (b"PUT /v2/jobs HTTP/1.1\r\n\r\n",
                   405, "method_not_allowed"),
    "delete-on-read-only": (b"DELETE /healthz HTTP/1.1\r\n\r\n",
                            405, "method_not_allowed"),
    "malformed-request-line": (b"GARBAGE\r\n\r\n", 400, "bad_request"),
    "invalid-json": (post("/v2/jobs", b"{not json"), 400, "invalid_json"),
    "invalid-job": (post("/v2/jobs", b'{"kind": "nonsense"}'),
                    400, "invalid_job"),
    "invalid-batch": (post("/v2/jobs:batch", b'{"jobs": "nope"}'),
                      400, "invalid_batch"),
    "malformed-length": (post("/v2/jobs", b"", "abc"), 400, "bad_request"),
    "negative-length": (post("/v2/jobs", b"", -5), 400, "bad_request"),
    "oversized-length": (post("/v2/jobs", b"", MAX_BODY_BYTES + 1),
                         413, "payload_too_large"),
    "over-long-header": (b"GET /healthz HTTP/1.1\r\nX-Pad: "
                         + b"a" * 70000 + b"\r\n\r\n", 400, "bad_request"),
    "unknown-job": (b"GET /v2/jobs/ghost HTTP/1.1\r\n\r\n",
                    404, "job_not_found"),
    "unknown-job-events": (b"GET /v2/jobs/ghost/events HTTP/1.1\r\n\r\n",
                           404, "job_not_found"),
    "http-1.0-events": (b"GET /v2/jobs/ghost/events HTTP/1.0\r\n\r\n",
                        505, "http_version_not_supported"),
    "cancel-unknown-job": (b"DELETE /v2/jobs/ghost HTTP/1.1\r\n\r\n",
                           404, "job_not_found"),
    "stale-kernel-run": (post("/v2/jobs", json.dumps({
        "kind": "run", "spec": {"config": "VC16", "rate": 0.03,
                                "protocol": {"kernel": "dense"}},
    }).encode()), 400, "invalid_job"),
    "stale-kernel-experiment": (post("/v2/jobs", json.dumps({
        "kind": "experiment", "spec": {"presets": ["VC16"],
                                       "traffics": ["uniform"],
                                       "rates": [0.03],
                                       "protocol": {"kernel": "sparse"}},
    }).encode()), 400, "invalid_job"),
    "stale-monitor-run": (post("/v2/jobs", json.dumps({
        "kind": "run", "spec": {"config": "VC16", "rate": 0.03,
                                "protocol": {"monitor": True}},
    }).encode()), 400, "invalid_job"),
    "stale-faults-run": (post("/v2/jobs", json.dumps({
        "kind": "run", "spec": {"config": "VC16", "rate": 0.03,
                                "protocol": {"faults": {
                                    "seed": 3, "link_kills": 2}}},
    }).encode()), 400, "invalid_job"),
    "zero-rate-run": (post("/v2/jobs", json.dumps({
        "kind": "run", "spec": {"config": "VC16", "rate": 0},
    }).encode()), 400, "invalid_job"),
}

#: Rows whose error message must name the offending field.
CONFORMANCE_NAMES = {"stale-kernel-run": "kernel",
                     "stale-kernel-experiment": "kernel",
                     "stale-monitor-run": "monitor",
                     "stale-faults-run": "faults",
                     "zero-rate-run": "rate"}


def start_fronts(root):
    """A ``ServeApp`` and a ``GatewayApp`` proxying to it."""
    server = ServerHandle(ServeApp(ServeConfig(
        host="127.0.0.1", port=0, workers=1,
        cache_dir=str(root / "cache"),
        journal_dir=str(root / "journal"), quiet=True)))
    gateway = ServerHandle(GatewayApp(GatewayConfig(
        host="127.0.0.1", port=0, quiet=True,
        backends=(f"127.0.0.1:{server.app.port}",))))
    return server, gateway


@pytest.fixture(scope="module")
def fronts(tmp_path_factory):
    server, gateway = start_fronts(tmp_path_factory.mktemp("fronts"))
    yield {"server": server.app.port, "gateway": gateway.app.port}
    gateway.close()
    server.close()


class TestRequestConformance:
    """One table against both fronts: a ``ServeApp`` and a
    ``GatewayApp`` proxying to it answer every malformed, unknown or
    unsupported request with the same status and envelope code —
    which is what pins "one HTTP core"."""

    @pytest.mark.parametrize("case", sorted(CONFORMANCE))
    def test_both_fronts_answer_alike(self, fronts, case, caplog):
        data, status, code = CONFORMANCE[case]
        for front, port in fronts.items():
            got_status, out = raw_exchange(port, data)
            assert (got_status, out["error"]["code"]) == (status, code), front
            assert out["error"]["retryable"] is False
            assert CONFORMANCE_NAMES.get(case, "") in out["error"]["message"]
        # Declined input is an answer, not a crash: nothing was logged.
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_escaped_handler_exception_is_a_500_envelope(
            self, start_server, monkeypatch, caplog):
        server = start_server()

        async def boom():
            raise RuntimeError("kaput")

        monkeypatch.setattr(server.app, "_list", boom)
        status, out = raw_exchange(server.app.port,
                                   b"GET /v2/jobs HTTP/1.1\r\n\r\n")
        assert status == 500
        assert out["error"]["code"] == "internal_error"
        assert "kaput" in out["error"]["message"]
        assert "kaput" in caplog.text  # the traceback is logged
        assert server.client.health()["status"] == "ok"  # still serving


def read_reply(replies):
    """One Content-Length-framed reply off a raw socket's file:
    (status, lower-cased headers, body)."""
    status = int(replies.readline().split()[1])
    headers = {}
    while True:
        line = replies.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, replies.read(int(headers["content-length"]))


@pytest.fixture
def connects(monkeypatch):
    """Ports of every ``HTTPConnection.connect`` call in the test."""
    ports = []
    real_connect = http.client.HTTPConnection.connect

    def counting_connect(conn):
        ports.append(conn.port)
        real_connect(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect",
                        counting_connect)
    return ports


class TestKeepAlive:
    """Persistent HTTP/1.1 connections on both fronts, and the
    client's one connection per thread."""

    def test_two_requests_on_one_socket_get_two_replies(self, fronts):
        for front, port in fronts.items():
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=30) as sock, \
                    sock.makefile("rb") as replies:
                for _ in range(2):
                    sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                    status, headers, body = read_reply(replies)
                    assert status == 200, front
                    assert "connection" not in headers, front
                    assert json.loads(body)["status"] == "ok"

    @pytest.mark.parametrize("data", [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ], ids=["connection-close", "http-1.0"])
    def test_closing_requests_are_closed_after_the_reply(self, fronts,
                                                         data):
        for front, port in fronts.items():
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=30) as sock, \
                    sock.makefile("rb") as replies:
                sock.sendall(data)
                status, headers, _ = read_reply(replies)
                assert (status, headers["connection"]) == (200, "close")
                assert replies.read() == b"", front  # EOF

    def test_submit_stream_status_share_one_connection(self, fronts,
                                                       connects):
        for index, (front, port) in enumerate(fronts.items()):
            client = ServeClient(f"http://127.0.0.1:{port}", timeout=30)
            for job in range(3):
                accepted = client.submit(
                    estimate_payload(0.011 + 0.001 * (3 * index + job)))
                events = list(client.stream(accepted["id"]))
                assert events[-1]["type"] == "done"
                assert client.status(accepted["id"])["status"] == "done"
            client.close()
            assert connects.count(port) == 1, front

    def test_close_closes_every_thread_connection(self, fronts,
                                                  monkeypatch):
        opened = []
        real_connect = http.client.HTTPConnection.connect

        def recording_connect(conn):
            opened.append(conn)
            real_connect(conn)

        monkeypatch.setattr(http.client.HTTPConnection, "connect",
                            recording_connect)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads' bookkeeping
        try:
            for front, port in fronts.items():
                opened.clear()
                client = ServeClient(f"http://127.0.0.1:{port}",
                                     timeout=30)
                threads = [threading.Thread(target=client.health)
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(opened) == 8, front
                client.close()
                assert all(conn.sock is None for conn in opened), front
        finally:
            sys.setswitchinterval(interval)

    def test_dropped_idle_connection_is_retried_once(self, fronts,
                                                     connects,
                                                     monkeypatch):
        monkeypatch.setattr("repro.serve.http.IO_TIMEOUT", 0.2)
        for front, port in fronts.items():
            client = ServeClient(f"http://127.0.0.1:{port}", timeout=30)
            assert client.health()["status"] == "ok"
            time.sleep(0.6)  # the server drops the idle connection
            assert client.health()["status"] == "ok"
            client.close()
            assert connects.count(port) == 2, front

    def test_failure_on_a_fresh_connection_is_not_retried(self):
        accepted = []
        stop = threading.Event()
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(0.1)

            def hang_up():  # accept, then close without answering
                while not stop.is_set():
                    try:
                        conn, _ = listener.accept()
                    except socket.timeout:
                        continue
                    accepted.append(conn)
                    conn.close()

            thread = threading.Thread(target=hang_up, daemon=True)
            thread.start()
            client = ServeClient(
                f"http://127.0.0.1:{listener.getsockname()[1]}", timeout=5)
            with pytest.raises(ServeError) as excinfo:
                client.health()
            stop.set()
            thread.join(5)
        assert excinfo.value.status == 0
        assert len(accepted) == 1

    def test_drain_closes_idle_connections_at_once(self, tmp_path, caplog):
        server, gateway = start_fronts(tmp_path)
        for handle in (gateway, server):
            assert handle.client.health()["status"] == "ok"  # stays open
        for handle in (gateway, server):
            start = time.monotonic()
            handle.close()
            assert not handle.thread.is_alive()
            assert time.monotonic() - start < 2.0, handle.app
        assert not [r for r in caplog.records if r.levelname == "ERROR"]


class TestCancellation:
    def test_cancel_queued_job_is_immediate(self, start_server):
        server = start_server(workers=1)
        client = server.client
        blocker = client.submit(run_payload(0.02, label="blocker"))
        wait_until_running(client, blocker["id"])
        queued = client.submit(run_payload(0.03, label="doomed"))
        assert queued["status"] == "queued"
        out = client.cancel(queued["id"])
        assert out["status"] == "cancelled"
        final = client.status(queued["id"])
        assert final["status"] == "cancelled"
        assert final["error"] == "cancelled by client"
        # Idempotent re-cancel; queue slot freed; journal entry cleared.
        assert client.cancel(queued["id"])["status"] == "cancelled"
        assert client.metrics()["cancelled_jobs"] == 1
        assert len(server.app.journal) <= 1  # only the blocker remains
        assert client.wait(blocker["id"], timeout=120)["status"] == "done"

    def test_cancel_queued_key_can_be_resubmitted(self, start_server):
        server = start_server(workers=1)
        client = server.client
        blocker = client.submit(run_payload(0.02, label="blocker"))
        wait_until_running(client, blocker["id"])
        first = client.submit(run_payload(0.03, label="again"))
        client.cancel(first["id"])
        # The cancelled key no longer dedups new submissions onto it.
        second = client.submit(run_payload(0.03, label="again"))
        assert second["id"] != first["id"]
        assert second["deduped"] is False
        assert client.wait(second["id"], timeout=120)["status"] == "done"

    def test_cancel_running_job_kills_workers_and_recovers(
            self, start_server):
        server = start_server(workers=1)
        client = server.client
        accepted = client.submit(experiment_payload(
            [0.02, 0.022, 0.024, 0.026, 0.028, 0.03], label="long"))
        wait_until_running(client, accepted["id"])
        out = client.cancel(accepted["id"])
        assert out["status"] in ("cancelling", "cancelled")
        final = client.wait(accepted["id"], timeout=60)
        assert final["status"] == "cancelled"
        assert client.metrics()["cancelled_jobs"] == 1
        # The pool respawned its killed workers: new work still runs.
        after = client.submit_and_wait(estimate_payload(0.06), timeout=60)
        assert after["status"] == "done"

    def test_cancel_unknown_and_finished_jobs(self, start_server):
        server = start_server()
        client = server.client
        with pytest.raises(JobNotFound):
            client.cancel("ghost")
        done = client.submit_and_wait(estimate_payload(0.05), timeout=60)
        with pytest.raises(JobRejected) as err:
            client.cancel(done["id"])
        assert err.value.status == 409
        assert err.value.code == "job_already_finished"

    def test_cancelled_stream_ends_with_done_event(self, start_server):
        server = start_server(workers=1)
        client = server.client
        blocker = client.submit(run_payload(0.02, label="blocker"))
        wait_until_running(client, blocker["id"])
        queued = client.submit(run_payload(0.035, label="streamed"))
        client.cancel(queued["id"])
        events = list(client.stream(queued["id"]))
        assert events[-1]["type"] == "done"
        assert events[-1]["status"] == "cancelled"


# --- every job body runs in a pool worker ------------------------------------

def assert_small_estimate_matches_library(client):
    from repro.analytic import estimate
    from repro.core.presets import preset

    final = client.submit_and_wait(estimate_payload(0.041), timeout=30)
    assert final["status"] == "done"
    expected = estimate(preset("VC16"), "uniform", 0.041).summary_dict()
    assert final["result"]["estimate"] == expected


class TestJobsRunInPoolWorkers:
    def test_no_serve_or_dispatcher_threads(self, start_server):
        server = start_server()
        client = server.client
        for payload in (run_payload(0.03, label="threads"),
                        experiment_payload([0.02, 0.03]),
                        estimate_payload(0.05)):
            final = client.submit_and_wait(payload, timeout=120)
            assert final["status"] == "done", final
        names = [thread.name for thread in threading.enumerate()]
        assert not [name for name in names
                    if name.startswith("repro-serve")
                    or name == "repro-pool-dispatcher"], names

    def test_estimate_obeys_point_timeout(self, start_server):
        client = start_server(workers=1).client
        start = time.monotonic()
        accepted = client.submit(big_estimate_payload(point_timeout=0.5))
        final = client.wait(accepted["id"], timeout=5,
                            poll_interval=0.05)
        assert time.monotonic() - start < 5
        assert final["status"] == "failed"
        assert "TimeoutError" in final["error"]
        assert_small_estimate_matches_library(client)

    def test_running_estimate_cancels(self, start_server):
        client = start_server(workers=1).client
        start = time.monotonic()
        accepted = client.submit(big_estimate_payload())
        assert wait_until_running(client, accepted["id"]) == "running"
        time.sleep(0.3)
        assert client.cancel(accepted["id"])["status"] in (
            "cancelling", "cancelled")
        final = client.wait(accepted["id"], timeout=5, poll_interval=0.05)
        assert time.monotonic() - start < 5
        assert final["status"] == "cancelled"
        assert client.metrics()["pool_cancelled_batches"] == 1
        assert_small_estimate_matches_library(client)

    def test_loop_reaps_idle_workers_and_regrows(self, start_server):
        client = start_server(pool_idle_timeout=0.3).client
        final = client.submit_and_wait(run_payload(0.03, label="reap"),
                                       timeout=120)
        assert final["status"] == "done"
        deadline = time.monotonic() + 10
        while client.metrics()["pool_workers"] > 1 \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        metrics = client.metrics()
        assert metrics["pool_workers"] == 1
        assert metrics["pool_reaped"] >= 1
        # The regrown workers' pipes are watched by the loop again.
        payload = experiment_payload([0.021, 0.023])
        payload["options"] = {"processes": 2}
        final = client.submit_and_wait(payload, timeout=120)
        assert final["status"] == "done"
        assert client.metrics()["pool_workers"] == 2

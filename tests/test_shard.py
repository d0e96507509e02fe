"""Tests for the shard gateway (``repro serve --shards N``) and the
content-addressed result-cache layout.

Unit layers first — the consistent-hash ring (determinism, balance,
minimal remap) and the cache's directory layout — then integration
against a real two-shard fleet spawned as subprocesses: key-stable
routing, fleet-wide dedup, typed errors through the gateway, and a
SIGKILL failover test asserting no submitted job is ever lost.
"""

import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from repro.exp.cache import CAS_DIR, ResultCache
from repro.exp.spec import CACHE_SCHEMA
from repro.serve import (
    GatewayConfig,
    JobNotFound,
    ServeClient,
    ServeError,
    ShardRing,
)

from tests.test_serve import (
    estimate_payload,
    raw_request,
    run_payload,
)

BACKENDS = ("127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003")


# --- unit: consistent-hash ring ----------------------------------------------

class TestShardRing:
    def test_routing_is_deterministic_and_order_independent(self):
        keys = [f"key-{i}" for i in range(256)]
        ring = ShardRing(BACKENDS)
        shuffled = ShardRing(tuple(reversed(BACKENDS)))
        assert [ring.route(k) for k in keys] \
            == [shuffled.route(k) for k in keys]
        assert all(ring.route(k) in BACKENDS for k in keys)

    def test_keys_spread_over_every_backend(self):
        ring = ShardRing(BACKENDS)
        homes = Counter(ring.route(f"key-{i}") for i in range(3000))
        assert set(homes) == set(BACKENDS)
        # 64 virtual points per backend keep the spread far from
        # degenerate: nobody owns less than ~1/3 of a fair share.
        assert min(homes.values()) > 3000 / len(BACKENDS) / 3

    def test_backend_loss_only_remaps_its_own_keys(self):
        ring = ShardRing(BACKENDS)
        keys = [f"key-{i}" for i in range(2000)]
        before = {k: ring.route(k) for k in keys}
        victim = BACKENDS[0]
        survivors = [b for b in BACKENDS if b != victim]
        for key in keys:
            after = ring.route(key, live=survivors)
            if before[key] == victim:
                assert after in survivors  # rehomed somewhere live
            else:
                assert after == before[key]  # untouched

    def test_preference_starts_at_home_and_covers_all(self):
        ring = ShardRing(BACKENDS)
        for key in ("a", "b", "zz-9"):
            order = ring.preference(key)
            assert order[0] == ring.route(key)
            assert sorted(order) == sorted(BACKENDS)
            # The failover target is exactly the next preference.
            live = [b for b in BACKENDS if b != order[0]]
            assert ring.route(key, live=live) == order[1]

    def test_route_without_live_backends_is_none(self):
        ring = ShardRing(BACKENDS)
        assert ring.route("key", live=[]) is None
        assert ring.route("key", live=["10.0.0.1:1"]) is None

    def test_validation_and_dedup(self):
        with pytest.raises(ValueError):
            ShardRing(())
        with pytest.raises(ValueError):
            ShardRing(BACKENDS, replicas=0)
        assert ShardRing(BACKENDS + BACKENDS[:1]).backends == BACKENDS

    def test_gateway_config_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(backends=())
        with pytest.raises(ValueError):
            GatewayConfig(backends=BACKENDS, probe_interval=0.0)
        with pytest.raises(ValueError):
            GatewayConfig(backends=BACKENDS, replicas=0)


# --- unit: content-addressed cache layout ------------------------------------

KEY = "aabbccdd00112233"


class TestCacheLayout:
    def test_store_uses_cas_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, {"v": 1})
        assert (tmp_path / CAS_DIR / KEY[:2] / KEY[2:4]
                / f"{KEY}.pkl").exists()
        assert not (tmp_path / KEY[:2] / f"{KEY}.pkl").exists()
        assert cache.load(KEY) == {"v": 1}

    def test_old_layout_entry_is_ignored(self, tmp_path):
        """A file at the pre-CAS ``<k[:2]>/<key>.pkl`` path is not an
        entry: never loaded, counted, pruned or cleared."""
        old = tmp_path / KEY[:2] / f"{KEY}.pkl"
        old.parent.mkdir(parents=True)
        with open(old, "wb") as f:
            pickle.dump({"schema": CACHE_SCHEMA, "outcome": {"v": "old"}}, f)
        cache = ResultCache(tmp_path)
        assert cache.load(KEY) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 0
        assert cache.stats()["entries"] == 0
        assert cache.clear() == 0
        assert old.exists()


# --- integration: a real two-shard fleet -------------------------------------

GATEWAY_RE = re.compile(r"gateway on http://[^\s:]+:(\d+)")


class Fleet:
    """One ``repro serve --shards N`` subprocess tree."""

    def __init__(self, tmp_path, shards=2, extra=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(__file__), "..", "src") + os.pathsep \
            + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--shards", str(shards), "--port", "0", "--workers", "1",
             "--cache-dir", str(tmp_path / "cache"),
             "--journal-dir", str(tmp_path / "journal"),
             "--probe-interval", "0.3", "--drain-timeout", "30",
             *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(tmp_path))
        self.port = None
        self.lines = []
        deadline = time.monotonic() + 90
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            self.lines.append(line.rstrip("\n"))
            match = GATEWAY_RE.search(line)
            if match:
                self.port = int(match.group(1))
                break
        if self.port is None:
            self.close(kill=True)
            raise RuntimeError(
                "gateway never came up:\n" + "\n".join(self.lines))
        # Keep draining stdout so shard logs can't fill the pipe.
        self._pump = threading.Thread(target=self._drain_stdout,
                                      daemon=True)
        self._pump.start()
        self.client = ServeClient(f"http://127.0.0.1:{self.port}",
                                  timeout=60.0)

    def _drain_stdout(self):
        # The pump owns the pipe from here on: it closes it at EOF,
        # once the gateway and every shard have exited.
        with self.process.stdout:
            for line in self.process.stdout:
                self.lines.append(line.rstrip("\n"))

    def shard_pids(self):
        health = self.client.health()
        return {backend: entry["pid"]
                for backend, entry in health["shards"].items()}

    def close(self, kill=False):
        if hasattr(self, "client"):
            self.client.close()
        if self.process.poll() is None:
            if kill:
                self.process.kill()
            else:
                self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=120)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        if hasattr(self, "_pump"):
            self._pump.join(timeout=30)
        else:
            self.process.stdout.close()


@pytest.fixture
def fleet(tmp_path):
    fleets = []

    def start(**kwargs):
        one = Fleet(tmp_path, **kwargs)
        fleets.append(one)
        return one

    yield start
    for one in fleets:
        one.close()


class TestGatewayFleet:
    def test_routing_dedup_and_aggregation(self, fleet):
        gw = fleet()
        client = gw.client
        health = client.health()
        assert health["role"] == "gateway"
        assert health["shards_alive"] == 2
        assert health["shards_total"] == 2

        # Identical payloads land on the same home shard and coalesce
        # fleet-wide; the shard that took them is surfaced per-request.
        status, headers, first = raw_request(
            gw.port, "POST", "/v2/jobs", estimate_payload(0.042))
        assert status == 202
        home = headers["X-Repro-Shard"]
        status, headers, second = raw_request(
            gw.port, "POST", "/v2/jobs", estimate_payload(0.042))
        assert headers["X-Repro-Shard"] == home
        assert second["id"] == first["id"]
        assert second["deduped"] is True

        # Distinct keys spread and every one completes through the
        # gateway's proxied status endpoint.
        accepted = [client.submit(estimate_payload(0.01 + 0.002 * i))
                    for i in range(8)]
        for entry in accepted:
            assert client.wait(entry["id"], timeout=60)["status"] == "done"

        jobs = client.jobs()["jobs"]
        assert {job["shard"] for job in jobs} <= set(
            client.health()["shards"])
        metrics = client.metrics()
        assert metrics["role"] == "gateway"
        assert metrics["gw_submitted"] == 10
        assert metrics["gw_routed"] == 10  # dedup hits still route
        assert metrics["aggregate"]["accepted"] == 9
        assert metrics["aggregate"]["deduped"] == 1
        assert set(metrics["shards"]) == set(client.health()["shards"])

    def test_typed_errors_through_gateway(self, fleet):
        gw = fleet()
        status, _, out = raw_request(gw.port, "GET", "/v1/jobs/ghost")
        assert status == 404
        assert out["error"]["code"] == "not_found"  # no /v1/ surface
        status, headers, out = raw_request(gw.port, "GET",
                                           "/v2/jobs/ghost")
        assert status == 404
        assert out["error"]["code"] == "job_not_found"
        assert "Deprecation" not in headers
        with pytest.raises(JobNotFound):
            gw.client.status("ghost")

    @pytest.mark.chaos
    def test_shard_kill_mid_campaign_loses_no_jobs(self, fleet):
        gw = fleet()
        client = gw.client
        accepted = [client.submit(run_payload(0.02 + 0.003 * i,
                                              label=f"chaos{i}"))
                    for i in range(4)]
        accepted += [client.submit(estimate_payload(0.03 + 0.003 * i))
                     for i in range(4)]
        victim_backend, victim_pid = next(
            iter(gw.shard_pids().items()))
        os.kill(victim_pid, signal.SIGKILL)

        # Every accepted job still reaches "done": jobs homed on the
        # dead shard are resubmitted to the survivor and old ids keep
        # resolving through the gateway's alias table.
        for entry in accepted:
            final = client.wait(entry["id"], timeout=240)
            assert final["status"] == "done", (entry, final)

        metrics = client.metrics()
        assert metrics["gw_shards_down"] >= 1
        health = client.health()
        assert health["shards_alive"] == 1
        assert health["shards"][victim_backend]["alive"] is False

    @pytest.mark.chaos
    def test_shard_death_mid_stream_closes_the_client_connection(
            self, fleet):
        gw = fleet()
        client = gw.client
        slow = {"kind": "run",
                "spec": {"config": "VC16", "rate": 0.02,
                         "protocol": {"warmup_cycles": 20000,
                                      "sample_packets": 5000},
                         "label": "cut-stream"},
                "options": {"point_timeout": 30}}
        status, headers, accepted = raw_request(gw.port, "POST",
                                                "/v2/jobs", slow)
        assert status == 202
        victim_pid = gw.shard_pids()[headers["X-Repro-Shard"]]
        with pytest.raises(ServeError, match="event stream"):
            for event in client.stream(accepted["id"]):
                if event.get("status") == "running":
                    os.kill(victim_pid, signal.SIGKILL)
                    killed = time.monotonic()
        # The gateway closed at once, not after an idle timeout.
        assert time.monotonic() - killed < 10
        # The cut-short connection was dropped, not kept for reuse.
        assert getattr(client._local, "conn", None) is None
        assert client.health()["status"] == "ok"
        client.cancel(accepted["id"])  # failed over; keep the drain short

    def test_sigterm_drains_fleet_and_exits_zero(self, fleet):
        gw = fleet()
        accepted = gw.client.submit(run_payload(0.02, label="drain"))
        assert accepted["status"] in ("queued", "running")
        gw.close()
        assert gw.process.returncode == 0, "\n".join(gw.lines)
        out = "\n".join(gw.lines)
        assert "gateway: drain started" in out
        assert "gateway: drain complete, exiting 0" in out

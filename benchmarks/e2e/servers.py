"""Start, probe and stop the ``repro serve`` processes the service
workloads talk to.

Readiness is established the way an operator would: the server binds
``--port 0``, prints a banner with the port it got, and is ready once
``/healthz`` answers (for a fleet: once it reports every shard alive).
``repro serve --shards N`` prints one ``[shard-i] serving on ...`` line
per shard *around* its own ``gateway on ...`` line, in no fixed order —
and because its log threads and its main thread print concurrently, the
gateway's banner can even land in the middle of a shard's line.  So the
parser searches for the words ``gateway on``, never for the first
``serving on``: a harness that takes the first ``serving on`` it sees
ends up talking to shard-0 directly and never crosses the gateway
(which is how the 1.16x in ``BENCH_shard.json`` was measured).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterable, List, Optional

from measure import process_tree, wait_gone

_ADDRESS = r"http://([^\s:/]+):(\d+)"
#: A single server's own banner: ``serving on`` not spoken by a shard.
SINGLE_RE = re.compile(r"(?<!\] )serving on " + _ADDRESS)
GATEWAY_RE = re.compile(r"gateway on " + _ADDRESS
                        + r"(?: \(\d+ shard\(s\): ([^)]*)\))?")

READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 20.0


class Banner:
    """What the startup output says about where to connect."""

    def __init__(self) -> None:
        self.front_port: Optional[int] = None
        #: shard ``host:port``s in ring order, from the gateway's own
        #: banner (what the hop probes connect to directly).
        self.backends: List[str] = []
        self.found = threading.Event()

    def feed(self, line: str, fleet: bool) -> None:
        match = (GATEWAY_RE if fleet else SINGLE_RE).search(line)
        if match and self.front_port is None:
            self.front_port = int(match.group(2))
            if fleet and match.group(3):
                self.backends = [b.strip() for b in
                                 match.group(3).split(",") if b.strip()]
            self.found.set()


def parse_banner(lines: Iterable[str], fleet: bool) -> Banner:
    banner = Banner()
    for line in lines:
        banner.feed(line, fleet)
    return banner


class Server:
    """One ``python -m repro serve`` process (single server, or gateway
    plus shards) on temporary cache and journal directories."""

    def __init__(self, src_dir: Path, work_dir: Path, *, shards: int = 1,
                 workers: int = 2) -> None:
        self.fleet = shards > 1
        self.shards = shards
        self.banner = Banner()
        self.base_url = ""
        work_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", str(workers), "--job-processes", "1",
                "--cache-dir", str(work_dir / "cache"),
                "--journal-dir", str(work_dir / "journal"),
                "--drain-timeout", str(DRAIN_TIMEOUT_S)]
        if self.fleet:
            argv += ["--shards", str(shards), "--probe-interval", "0.5"]
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(work_dir))
        self.log: List[str] = []
        # The log is drained for the server's whole life so it never
        # blocks on a full pipe.
        self._pump = threading.Thread(target=self._drain_log, daemon=True)
        self._pump.start()
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> None:
        from repro.serve import ServeClient, ServeError

        deadline = time.monotonic() + READY_TIMEOUT_S
        if not self.banner.found.wait(READY_TIMEOUT_S):
            raise RuntimeError("server never printed its banner:\n"
                               + "".join(self.log))
        self.base_url = f"http://127.0.0.1:{self.banner.front_port}"
        client = ServeClient(self.base_url, timeout=10.0)
        while True:
            try:
                health = client.health()
                if not self.fleet and health.get("status") == "ok":
                    break
                if self.fleet and health.get("role") == "gateway" \
                        and health.get("shards_alive") == self.shards:
                    break
            except ServeError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)
        if self.fleet and len(self.banner.backends) != self.shards:
            raise RuntimeError(f"gateway banner listed "
                               f"{self.banner.backends}, expected "
                               f"{self.shards} shards")

    def _drain_log(self) -> None:
        for line in self.process.stdout:
            self.log.append(line)
            self.banner.feed(line, self.fleet)

    def stop(self) -> List[int]:
        """SIGTERM-drain, SIGKILL on timeout; returns the pids (of the
        whole tree as it stood before the signal) that outlived the
        stop — an empty list on a clean shutdown."""
        tree = process_tree([self.process.pid]) or [self.process.pid]
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(DRAIN_TIMEOUT_S + 10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(10.0)
        self._pump.join(5.0)
        self.process.stdout.close()
        survivors = wait_gone(tree)
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return survivors

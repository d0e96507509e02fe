#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 benchmarks/e2e/selftest.py
    PYTHONPATH=src python3 -m pytest benchmarks/e2e/selftest.py

Not collected by the tier-1 run (``testpaths = ["tests"]``): it starts
servers and takes about a minute.  It checks the harness, not the
simulator: names against BENCHMARK.json, input determinism, the banner
parser on real interleaved fleet output, the percentile helper, that a
bad operation is counted rather than dropped, the comparison verdicts,
and a ``--scale 0.05`` smoke of all eight workloads.
"""

from __future__ import annotations

import copy
import json
import random
import re
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402 - puts src/ and this directory on sys.path
import compare  # noqa: E402
import measure  # noqa: E402
import servers  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@contextmanager
def scratch_dir():
    """A throw-away directory under ./.bench_tmp, where the harness
    itself keeps its temporary files."""
    root = Path.cwd() / ".bench_tmp"
    root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            yield tmp
    finally:
        try:
            root.rmdir()
        except OSError:
            pass  # another run is using it


def test_names_match_benchmark_json():
    bench = run.BENCHMARK
    declared = [w["name"] for w in bench["workloads"]]
    assert declared == list(workloads.WORKLOADS)
    names = declared + [m["name"] for m in bench["end_to_end"]] \
        + [m["name"] for m in bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names), names
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in bench["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert bench["paths"] == ["benchmarks/e2e"]


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        first = workloads.generated_inputs(name, 7, 40)
        assert first == workloads.generated_inputs(name, 7, 40), name
        assert first != workloads.generated_inputs(name, 8, 40), name
    # No input repeats inside the fresh-job sequences.
    jobs = json.loads(workloads.generated_inputs("serve_sim", 0, 400))
    assert len({workloads.spec_digest(job) for job in jobs}) == len(jobs)


# What `repro serve --shards 2 --port 0` really prints: shard banners
# race the gateway's own line.
FLEET_OUTPUT = """\
[shard-0] serving on http://127.0.0.1:38181 (1 workers, queue limit 64)
gateway on http://127.0.0.1:33181 (2 shard(s): 127.0.0.1:38181, 127.0.0.1:40907)
[shard-1] serving on http://127.0.0.1:40907 (1 workers, queue limit 64)
""".splitlines()


def test_banner_parser_picks_the_gateway():
    banner = servers.parse_banner(FLEET_OUTPUT, fleet=True)
    assert banner.front_port == 33181
    assert banner.backends == ["127.0.0.1:38181", "127.0.0.1:40907"]
    # The bug this replaces: first "serving on" wins -> shard-0.
    old = re.compile(r"(?:serving|gateway) on http://[^\s:]+:(\d+)")
    assert int(old.search(FLEET_OUTPUT[0]).group(1)) == 38181
    # Seen in the wild: the gateway's banner lands inside a shard's line
    # (log threads and the main thread print concurrently).
    torn = servers.parse_banner(
        [FLEET_OUTPUT[0] + FLEET_OUTPUT[1], "", FLEET_OUTPUT[2]], fleet=True)
    assert torn.front_port == 33181 and len(torn.backends) == 2
    single = servers.parse_banner(
        ["serving on http://127.0.0.1:35405 (2 workers, queue limit 64)"],
        fleet=False)
    assert single.front_port == 35405
    # ... and a single-server harness must not mistake a shard for it.
    assert servers.parse_banner(FLEET_OUTPUT, fleet=False).front_port is None


def test_percentiles_are_nearest_rank():
    samples = list(range(1, 101))
    random.Random(1).shuffle(samples)
    assert measure.percentile(samples, 50) == 50
    assert measure.percentile(samples, 90) == 90
    assert measure.percentile(samples, 100) == 100
    assert measure.percentile([3.0], 90) == 3.0
    assert measure.samples_beyond(100, 90) == 10
    assert measure.samples_beyond(160, 90) == 16
    assert measure.samples_beyond(99, 90) == 9
    # "At least ten samples beyond it": 160 ops support a p90, 99 do not.
    assert measure.samples_beyond(160, 90) >= 10 > measure.samples_beyond(99, 90)
    assert measure.quartile_spread([10, 10, 10, 10]) == 0
    assert abs(measure.quartile_spread([9, 10, 10, 11]) - 0.15) < 1e-9


def test_bad_operations_are_counted_not_dropped():
    spec = next(workloads.grid_specs(0))
    good = workloads.OpRecord(0, "run", spec)
    good.answer = workloads.reference_answer(spec)
    goldens = {workloads.spec_digest(spec): copy.deepcopy(good.answer)}
    rng = random.Random(0)
    assert workloads.count_failures([good], goldens, 1, rng)[0] == 0
    # A golden that moved in the last place that matters.
    goldens[workloads.spec_digest(spec)]["total_cycles"] += 1
    assert workloads.count_failures([good], goldens, 0, rng)[0] == 1
    # An answer that disagrees with the independent recomputation.
    wrong = workloads.OpRecord(1, "run", spec)
    wrong.answer = dict(good.answer, total_power_w=good.answer[
        "total_power_w"] * (1 + 1e-9))
    assert workloads.count_failures([good, wrong], {}, 2, rng)[0] == 1
    # A payload the server refuses is an attempted, failed operation.
    with scratch_dir() as tmp:
        server = servers.Server(run.SRC_DIR, Path(tmp) / "server")
        try:
            from repro.serve import ServeClient
            client = ServeClient(server.base_url)
            refused = workloads.OpRecord(2, "run", {"config": "NOPE"})
            workloads.run_job(client, {"kind": "run",
                                       "spec": {"config": "NOPE"}},
                              refused, measure.Tracer(False))
            assert refused.error and "JobRejected" in refused.error
            accepted = workloads.OpRecord(3, "run", spec)
            workloads.run_job(client, {"kind": "run", "spec": spec},
                              accepted, measure.Tracer(False))
            assert accepted.error is None
        finally:
            assert server.stop() == []
    failed, _, _ = workloads.count_failures([refused, accepted], {}, 2, rng)
    assert failed == 1


def test_compare_verdicts():
    def entry(values):
        return run.summarise([{"metrics": {"m": {"value": v, "unit": "ms"}}}
                              for v in values])["m"]

    steady = entry([100, 101, 99, 100, 100])
    assert compare.judge(steady, entry([104, 105, 103, 104, 104]),
                         "lower", 0.08)[0] == "ok"
    assert compare.judge(steady, entry([110, 111, 109, 110, 110]),
                         "lower", 0.08)[0] == "regression"
    assert compare.judge(steady, entry([90, 91, 89, 90, 90]),
                         "higher", 0.08)[0] == "regression"
    noisy = entry([80, 100, 120, 90, 110])
    assert compare.judge(noisy, entry([85, 100, 125, 90, 115]),
                         "lower", 0.08)[0] == "unresolved"
    # Every run better than every run of the parent settles it.
    assert compare.judge(noisy, entry([40, 50, 60, 45, 55]),
                         "lower", 0.08)[0] == "ok"


def test_smoke_all_workloads():
    """--scale 0.05 of all eight workloads, plus one traced run so the
    per-layer names are checked against BENCHMARK.json too."""
    with scratch_dir() as tmp:
        out = Path(tmp) / "smoke.json"
        subprocess.run([sys.executable, str(HERE / "run.py"),
                        "--scale", "0.05", "--out", str(out)],
                       check=True, cwd=tmp, stdout=subprocess.DEVNULL)
        document = json.loads(out.read_text())
        assert document["comparable"] is False
        assert document["correct"] is True
        assert set(document["workloads"]) == set(workloads.WORKLOADS)
        for entry in document["workloads"].values():
            assert set(entry["end_to_end"]) == {
                m["name"] for m in run.BENCHMARK["end_to_end"]}
            assert sum(entry["failed"]) == 0 and min(entry["attempted"]) >= 1
        traced = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "kernel_data", "--scale", "0.05", "--trace", "1"],
            check=True, cwd=tmp, capture_output=True, text=True)
        result = json.loads(traced.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == {
            m["name"] for m in run.BENCHMARK["per_layer"]}
        assert result["metrics"]["exp.pool.respawns"]["value"] == 0
        assert result["metrics"]["serve.shard.failovers"]["value"] == 0


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_") and callable(value)]
    for test in tests:
        print(f"{test.__name__} ...", flush=True)
        test()
    print(f"{len(tests)} self-tests passed")

#!/usr/bin/env python3
"""One benchmark for kernel -> grid -> service -> fleet.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--scale F] [--runs N] [--out FILE]

With exactly one ``--workload`` the workload runs in this interpreter
and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics without ``--trace``, the per-layer metrics with it.  Otherwise
every named workload (default: all eight) runs in a fresh interpreter
of its own and the results are gathered into one document (``--out``)
with the hardware fingerprint; spans of the traced runs go to the
sibling ``*.trace.json``.

Everything reported is host time; simulated statistics are
deterministic and are checked against goldens and an independent
in-process recomputation, not timed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC_DIR = REPO_ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC_DIR))

import measure  # noqa: E402 - needs the path set up above

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
GOLDENS_FILE = HERE / "goldens" / "seed0.json"


def process_age() -> float:
    """Seconds since the kernel started this process — interpreter
    start-up included, which no in-process clock can see."""
    fields = measure.stat_fields(os.getpid())
    uptime = float(Path("/proc/uptime").read_text().split()[0])
    return uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")


# --- one workload, in this interpreter ---------------------------------------

def run_window(workload, seconds: float, paired: bool) -> Dict[str, Any]:
    """Run slices of the workload for ``seconds``.

    A slice is one round of a round-based workload, or ``seconds`` of a
    closed loop.  A new slice starts only while half of an average one
    still fits, so the window ends within half a slice of ``seconds``.
    With ``paired`` the slices alternate traced / untraced and each
    side's throughput is kept apart: their ratio is what tracing costs.
    """
    sides = {True: [0, 0.0], False: [0, 0.0]}
    slices = 0
    elapsed = 0.0
    while True:
        if slices and elapsed + 0.5 * elapsed / slices > seconds \
                and not (paired and slices % 2):
            break
        workload.tracer.enabled = paired and slices % 2 == 0
        if workload.slice_seconds is None:
            budget = 0.0
        elif paired:
            budget = workload.slice_seconds
        else:
            budget = seconds
        start = time.perf_counter()
        ops = workload.run_slice(budget)
        wall = time.perf_counter() - start
        side = sides[workload.tracer.enabled]
        side[0] += ops
        side[1] += wall
        elapsed += wall
        slices += 1
    workload.tracer.enabled = False
    out = {"ops": sides[True][0] + sides[False][0], "wall": elapsed,
           "slices": slices}
    if paired:
        traced = sides[True][0] / sides[True][1]
        untraced = sides[False][0] / sides[False][1]
        out["trace_overhead_frac"] = untraced / traced - 1.0
    return out


def run_single(name: str, seed: int, seconds: float, trace: bool,
               smoke: bool) -> Dict[str, Any]:
    import repro  # noqa: F401 - set-up time starts with these imports
    import repro.analytic
    import repro.exp.pool
    import repro.serve
    import repro.telemetry
    import layers
    from workloads import WORKLOADS, count_failures

    import_s = process_age()
    work_dir = Path.cwd() / ".bench_tmp" / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = measure.Tracer(False)
    leaked: List[int] = []
    try:
        # Set-up is repeated and its median reported, so that one slow
        # fork or bind does not decide the figure; the last one is kept
        # for the window.
        setups: List[float] = []
        repeats = 1 if trace or smoke else WORKLOADS[name].setup_repeats
        for repeat in range(repeats):
            workload = WORKLOADS[name](seed, work_dir, SRC_DIR, tracer)
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
            if repeat < repeats - 1:
                leaked += workload.teardown()
        try:
            before = measure.process_tree([os.getpid()])
            cpu_before = measure.cpu_seconds(before)
            window = run_window(workload, seconds, paired=trace)
            after = measure.process_tree([os.getpid()])
            cpu_s = measure.cpu_seconds(after) - cpu_before
            rss_mb = measure.peak_rss_mb(after)
            goldens = json.loads(GOLDENS_FILE.read_text()) \
                if seed == 0 and GOLDENS_FILE.exists() else {}
            failed, pinned, recomputed = count_failures(
                workload.records, goldens, workload.verify_samples,
                random.Random(f"verify:{seed}"))
        finally:
            leaked += workload.teardown()
        attempted = workload.attempted
        failed += workload.unrecorded_failures
        latencies_ms = [1e3 * s for s in workload.latencies]
        if trace:
            values = layers.run_suite(seed, work_dir, SRC_DIR)
            values["bench.trace_overhead_frac"] = \
                window["trace_overhead_frac"]
            section = "per_layer"
        else:
            values = {
                "setup_s": import_s + statistics.median(setups),
                "ops_per_s": attempted / window["wall"],
                "op_latency_p50_ms": measure.percentile(latencies_ms, 50),
                "op_latency_p90_ms": measure.percentile(latencies_ms, 90),
                "cpu_ms_per_op": 1e3 * cpu_s / attempted,
                "peak_rss_mb": rss_mb,
            }
            section = "end_to_end"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
    if set(values) != set(declared):
        raise RuntimeError(
            f"harness and BENCHMARK.json disagree on {section}: "
            f"{sorted(set(values) ^ set(declared))}")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0 and not leaked,
        "attempted": attempted, "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in declared.items()},
        "detail": {
            "window_s": window["wall"], "slices": window["slices"],
            "latency_samples": len(latencies_ms),
            "latency_samples_beyond_p90":
                measure.samples_beyond(len(latencies_ms), 90),
            "setup_repeats_s": setups, "import_s": import_s,
            "sim_cycles": sum(r.cycles for r in workload.records),
            "golden_checked": pinned, "recomputed": recomputed,
            "leaked_pids": leaked,
            "layer_self_time_share": layers.layer_table(tracer.spans),
            "fingerprint": measure.fingerprint(REPO_ROOT),
        },
        "spans": tracer.spans,
    }


def print_single(result: Dict[str, Any]) -> None:
    detail = result["detail"]
    print(f"== {result['workload']} seed={result['seed']} "
          f"window={detail['window_s']:.2f}s ops={result['attempted']} "
          f"failed={result['failed']} "
          f"(pinned {detail['golden_checked']}, "
          f"recomputed {detail['recomputed']}) ==")
    for name, metric in result["metrics"].items():
        note = ""
        if name.startswith("op_latency"):
            note = f"   [{detail['latency_samples']} samples"
            if name.endswith("p90_ms"):
                note += f", {detail['latency_samples_beyond_p90']} beyond"
            note += "]"
        print(f"  {name:<44}{metric['value']:>14.6g} {metric['unit']}{note}")
    if result["trace"] and detail["layer_self_time_share"]:
        print("  -- self-time share of the traced window's operations --")
        for name, share in detail["layer_self_time_share"].items():
            print(f"  {name:<44}{100 * share:>13.1f} %")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


# --- every workload, each in a fresh interpreter ------------------------------

def run_child(name: str, seed: int, seconds: float, trace: bool,
              smoke: bool) -> Dict[str, Any]:
    own_dir = Path.cwd() / ".bench_tmp" / f"gather-{os.getpid()}"
    own_dir.mkdir(parents=True, exist_ok=True)
    detail_file = own_dir / "detail.json"
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(int(trace)), "--detail", str(detail_file)]
    if smoke:
        argv.append("--smoke")
    try:
        subprocess.run(argv, check=True)
        return json.loads(detail_file.read_text())
    finally:
        shutil.rmtree(own_dir, ignore_errors=True)
        try:
            own_dir.parent.rmdir()
        except OSError:
            pass  # another run is using it


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Median, quartiles and quartile spread of every metric over the
    runs of one workload."""
    out: Dict[str, Any] = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        entry = {"unit": runs[0]["metrics"][name]["unit"],
                 "median": statistics.median(values), "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3,
                         spread=measure.quartile_spread(values))
        out[name] = entry
    return out


def run_all(args, names: List[str], seconds: float,
            comparable: bool) -> int:
    document: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "seconds": seconds,
        "comparable": comparable, "runs_per_workload": args.runs,
        "fingerprint": measure.fingerprint(REPO_ROOT), "workloads": {}}
    traces: Dict[str, Any] = {}
    all_correct = True
    for name in names:
        runs = [run_child(name, args.seed, seconds, False, args.smoke)
                for _ in range(args.runs)]
        entry: Dict[str, Any] = {
            "why": next(w["why"] for w in BENCHMARK["workloads"]
                        if w["name"] == name),
            "end_to_end": summarise(runs),
            "attempted": [run["attempted"] for run in runs],
            "failed": [run["failed"] for run in runs],
            "detail": [run["detail"] for run in runs]}
        all_correct &= all(run["correct"] for run in runs)
        if args.trace:
            traced = run_child(name, args.seed, seconds, True, args.smoke)
            all_correct &= traced["correct"]
            entry["per_layer"] = summarise([traced])
            entry["layer_self_time_share"] = \
                traced["detail"]["layer_self_time_share"]
            traces[name] = traced["spans"]
        document["workloads"][name] = entry
    document["correct"] = all_correct
    print(f"\n{'workload':<15}" + "".join(
        f"{m['name']:>19}" for m in BENCHMARK["end_to_end"]))
    for name, entry in document["workloads"].items():
        print(f"{name:<15}" + "".join(
            f"{entry['end_to_end'][m['name']]['median']:>19.5g}"
            for m in BENCHMARK["end_to_end"]))
    print(f"comparable={comparable} correct={all_correct} "
          f"fingerprint={json.dumps(document['fingerprint'])}")
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        if traces:
            out.with_suffix(".trace.json").write_text(json.dumps(traces))
    return 0 if all_correct else 1


def update_goldens() -> int:
    """Recompute goldens/seed0.json with bare in-process simulations —
    the reference path, never the paths under test."""
    from workloads import golden_specs, reference_answer, spec_digest

    goldens = {spec_digest(spec): reference_answer(spec)
               for spec in golden_specs(0)}
    GOLDENS_FILE.parent.mkdir(exist_ok=True)
    # One operation per line, so a regenerated file diffs by operation.
    GOLDENS_FILE.write_text("{\n" + ",\n".join(
        f"{json.dumps(digest)}: {json.dumps(answer, sort_keys=True)}"
        for digest, answer in sorted(goldens.items())) + "\n}\n")
    print(f"pinned {len(goldens)} operations in {GOLDENS_FILE}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    known = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=known,
                        help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(BENCHMARK["run_seconds"]),
                        help="length of the timed window")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply --seconds; anything but 1 is a "
                             "smoke run, stamped comparable=false")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload in the document")
    parser.add_argument("--out", metavar="FILE",
                        help="write the gathered document here")
    parser.add_argument("--update-goldens", action="store_true",
                        help="regenerate goldens/seed0.json and exit")
    parser.add_argument("--smoke", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up, for children
    parser.add_argument("--detail", metavar="FILE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.update_goldens:
        return update_goldens()
    if args.scale <= 0 or args.seconds <= 0 or args.runs < 1:
        parser.error("--scale, --seconds and --runs must be positive")
    seconds = args.seconds * args.scale
    args.smoke = args.smoke or args.scale != 1.0
    comparable = seconds == float(BENCHMARK["run_seconds"]) \
        and not args.smoke
    if args.workload and len(args.workload) == 1 and args.runs == 1 \
            and not args.out:
        result = run_single(args.workload[0], args.seed, seconds,
                            bool(args.trace), args.smoke)
        result["comparable"] = comparable
        if args.detail:
            Path(args.detail).write_text(json.dumps(result))
        print_single(result)
        return 0
    return run_all(args, args.workload or known, seconds, comparable)


if __name__ == "__main__":
    sys.exit(main())

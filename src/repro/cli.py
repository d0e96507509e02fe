"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main entry points:

* ``presets``    — list the paper's named configurations;
* ``run``        — one simulation: latency, power, breakdown, spatial map;
* ``sweep``      — latency/power versus injection rate (any traffic kind);
* ``experiment`` — orchestrated grid of (preset × traffic × rate × seed)
  points with multiprocessing, on-disk result caching and per-point
  failure isolation;
* ``report``     — render a recorded telemetry JSONL file (component
  breakdown, spatial map, time series, engine phase spans);
* ``serve``      — long-lived asyncio HTTP job service (queue, dedup,
  progress streaming, graceful drain; see :mod:`repro.serve`);
* ``submit``     — send a run/estimate/experiment job to a warm server;
* ``cache``      — result-cache maintenance (stats, LRU prune, clear);
* ``power``      — standalone power analysis (section 3.3 walkthrough);
* ``delay``      — pipeline/frequency analysis (Peh-Dally delay model);
* ``validate``   — section 3.2 ballpark checks against commercial routers.

Failures are consistent: every handler either returns a non-zero exit
code or raises an error that :func:`main` turns into ``error: ...`` on
stderr and exit code 1 — never a traceback for predictable bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.config import RunProtocol
from repro.core.orion import Orion
from repro.core.presets import PRESETS, preset
from repro.core.export import (
    experiment_to_csv,
    result_to_json,
    spatial_to_csv,
    sweep_to_csv,
)
from repro.core.report import breakdown_table, format_power, spatial_table
from repro.delay import RouterDelayModel
from repro.sim.topology import topology_for
from repro.sim.traffic import TRAFFIC_REGISTRY, make_traffic, traffic_names

TRAFFIC_KINDS = traffic_names()


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, rejected with a clear usage
    error instead of a traceback deep in the pool."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") \
            from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") \
            from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") \
            from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _traffic_extras(traffic: str, args) -> dict:
    """Map CLI flags onto the registry-declared parameters of one
    traffic kind (``--source`` feeds broadcast's ``source`` and
    hotspot's ``hotspot``; declared defaults cover the rest)."""
    if traffic not in TRAFFIC_REGISTRY:
        raise SystemExit(
            f"error: unknown traffic {traffic!r}; "
            f"options: {', '.join(traffic_names())}")
    extras = {}
    for param in TRAFFIC_REGISTRY[traffic].params:
        if param.name in ("source", "hotspot"):
            extras[param.name] = args.source
    return extras


def _make_traffic(args, config):
    return make_traffic(args.traffic, topology_for(config), args.rate,
                        seed=args.seed, **_traffic_extras(args.traffic, args))


def _protocol(args, **overrides) -> RunProtocol:
    fields = dict(warmup_cycles=args.warmup, sample_packets=args.sample,
                  seed=getattr(args, "seed", 1))
    faults = _fault_spec(args)
    if faults is not None:
        fields["faults"] = faults
        # Faulted fabrics can legitimately stall (e.g. a frozen router
        # holding traffic); report that as a status unless overridden.
        fields["on_stall"] = getattr(args, "on_stall", None) or "finish"
        fields["livelock_cycles"] = 50_000
    elif getattr(args, "on_stall", None):
        fields["on_stall"] = args.on_stall
    fields.update(overrides)
    return RunProtocol(**fields)


def _fault_spec(args):
    specs = getattr(args, "faults", None)
    if not specs:
        return None
    from repro.faults import parse_fault_specs
    return parse_fault_specs(specs,
                             seed=getattr(args, "fault_seed", 0),
                             policy=getattr(args, "fault_policy",
                                            "misroute"))


def _config(args, name: Optional[str] = None):
    cfg = preset(name or args.preset)
    overrides = {}
    if getattr(args, "leakage", False):
        overrides["include_leakage"] = True
    if getattr(args, "activity", None):
        overrides["activity_mode"] = args.activity
    if overrides:
        cfg = cfg.with_(**overrides)
    return cfg


def cmd_presets(args) -> int:
    print(f"{'name':<8} {'router':<10} {'flit':>5} {'buffering':>24} "
          f"{'link':<14} {'clock':>8}")
    for name in sorted(PRESETS):
        cfg = preset(name)
        rc = cfg.router
        if rc.kind == "vc":
            buffering = f"{rc.num_vcs} VC x {rc.buffer_depth} flits"
        elif rc.kind == "central":
            buffering = (f"CB {rc.cb_banks}x{rc.cb_rows} + "
                         f"{rc.buffer_depth}/port")
        else:
            buffering = f"{rc.buffer_depth} flits/port"
        print(f"{name:<8} {rc.kind:<10} {rc.flit_bits:>5} "
              f"{buffering:>24} {cfg.link.kind:<14} "
              f"{cfg.tech.frequency_hz / 1e9:>6.1f}G")
    return 0


def cmd_run(args) -> int:
    cfg = _config(args)
    orion = Orion(cfg)
    window = args.telemetry_window
    if window == 0 and (args.telemetry_jsonl or args.telemetry_csv):
        from repro.telemetry import DEFAULT_WINDOW
        window = DEFAULT_WINDOW
    result = orion.run(_make_traffic(args, cfg),
                       _protocol(args, telemetry_window=window))
    per_node = TRAFFIC_REGISTRY[args.traffic].per_node
    print(f"config:        {args.preset} ({cfg.router.kind})")
    print(f"traffic:       {args.traffic} at {args.rate} pkt/cycle"
          f"{'/node' if per_node else ''}")
    if args.faults or result.status != "ok":
        print(f"status:        {result.status}")
    if args.faults:
        print(f"faults:        {len(args.faults)} spec(s), "
              f"policy={args.fault_policy}; "
              f"{result.packets_misrouted} packets misrouted, "
              f"{result.packets_dropped} packets "
              f"({result.flits_dropped} flits) dropped, "
              f"{result.sample_dropped} sample packets lost")
    print(f"sample:        {result.sample_packets} packets over "
          f"{result.measured_cycles} measured cycles")
    print(f"avg latency:   {result.avg_latency:.2f} cycles")
    print(f"p99 latency:   {result.latency.percentile(99):.0f} cycles")
    print(f"throughput:    {result.throughput_flits_per_cycle:.3f} "
          f"flits/cycle")
    print(f"total power:   {format_power(result.total_power_w)}")
    print()
    print(breakdown_table(result))
    if args.spatial:
        print("\nper-node power:")
        print(spatial_table(result))
    if result.telemetry is not None:
        from repro.telemetry import (
            telemetry_to_csv,
            telemetry_to_jsonl,
            utilization_report,
        )
        record = result.telemetry
        print()
        print(utilization_report(record))
        print(f"\ntelemetry: {record.num_windows} windows of "
              f"{record.window} cycles recorded "
              f"(render with 'repro report')")
        if args.telemetry_jsonl:
            telemetry_to_jsonl(record, args.telemetry_jsonl)
            print(f"wrote {args.telemetry_jsonl}")
        if args.telemetry_csv:
            telemetry_to_csv(record, args.telemetry_csv)
            print(f"wrote {args.telemetry_csv}")
    if args.json:
        result_to_json(result, args.json)
        print(f"\nwrote {args.json}")
    if args.csv:
        spatial_to_csv(result, args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _config(args)
    orion = Orion(cfg)
    rates = [float(r) for r in args.rates.split(",")]
    sweep = orion.sweep_traffic(args.traffic, rates, _protocol(args),
                                label=args.preset,
                                processes=args.processes,
                                **_traffic_extras(args.traffic, args))
    print(sweep.table())
    if args.csv:
        sweep_to_csv(sweep, args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_experiment(args) -> int:
    from repro.exp import ExperimentSpec, ResultCache, TrafficSpec, \
        run_experiment

    names = [n.strip() for n in args.presets.split(",")]
    configs = {name: _config(args, name) for name in names}
    traffics = [TrafficSpec.of(t.strip(),
                               **_traffic_extras(t.strip(), args))
                for t in args.traffic.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    protocol = RunProtocol(warmup_cycles=args.warmup,
                           sample_packets=args.sample)
    if args.rates.strip() == "auto":
        spec = _guided_points(configs, traffics, seeds, protocol,
                              args.grid_points, quiet=args.quiet)
    else:
        rates = [float(r) for r in args.rates.split(",")]
        spec = ExperimentSpec.of(configs, traffics, rates, seeds,
                                 protocol=protocol)
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    def show(progress) -> None:
        outcome = progress.outcome
        status = "cached" if outcome.from_cache else \
            f"{outcome.wall_seconds:6.2f}s"
        if outcome.ok:
            body = (f"lat={outcome.avg_latency:8.2f}  "
                    f"pw={format_power(outcome.total_power_w):>10}")
        else:
            body = f"FAILED({outcome.status}): {outcome.error}"
        print(f"[{progress.done:>{len(str(progress.total))}}/"
              f"{progress.total}] {outcome.point.describe():<40} "
              f"{body}  {status}", flush=True)

    result = run_experiment(spec, processes=args.processes, cache=cache,
                            progress=None if args.quiet else show,
                            point_timeout=args.point_timeout,
                            retries=args.retries)
    print()
    for sweep in result.sweeps().values():
        print(sweep.table())
        print()
    print(result.summary())
    if cache is not None:
        print(f"cache: {args.cache_dir} ({len(cache)} entries; "
              f"{cache.hits} hits / {cache.misses} misses this run)")
    if args.csv:
        experiment_to_csv(result.outcomes, args.csv)
        print(f"wrote {args.csv}")
    return 0 if any(o.ok for o in result.outcomes) else 1


def _guided_points(configs, traffics, seeds, protocol, grid_points,
                   quiet=False):
    """Expand an analytic-guided run-point list: one guided rate grid
    per (preset, traffic), rates dense around predicted saturation."""
    from dataclasses import replace
    from repro.exp import RunPoint, guided_rate_grid

    points = []
    for name, cfg in configs.items():
        for tspec in traffics:
            grid = guided_rate_grid(cfg, tspec.name, points=grid_points,
                                    **dict(tspec.params))
            if not quiet:
                rates = ",".join(f"{r:g}" for r in grid.rates)
                print(f"guided grid {name}/{tspec.describe()}: predicted "
                      f"saturation {grid.prediction.rate:.4f}, "
                      f"rates [{rates}]")
            for seed in seeds:
                proto = replace(protocol, seed=seed)
                points.extend(
                    RunPoint(config=cfg, traffic=tspec, rate=rate,
                             protocol=proto, label=name)
                    for rate in grid.rates)
    return points


def cmd_estimate(args) -> int:
    cfg = _config(args)
    overrides = {}
    if args.topology:
        overrides["topology"] = args.topology
    if args.width:
        overrides["width"] = args.width
    if args.height:
        overrides["height"] = args.height
    if overrides:
        cfg = cfg.with_(**overrides)
    orion = Orion(cfg)
    est = orion.estimate_traffic(args.traffic, args.rate,
                                 **_traffic_extras(args.traffic, args))
    print(f"config:   {args.preset} ({cfg.router.kind}, {cfg.topology} "
          f"{cfg.width}x{cfg.height}) — analytic estimate, no simulation")
    print(est.describe())
    print("\npower breakdown:")
    total = sum(est.power_breakdown_w.values())
    for component, watts in sorted(est.power_breakdown_w.items(),
                                   key=lambda kv: -kv[1]):
        share = watts / total if total > 0 else 0.0
        print(f"  {component:<16} {format_power(watts):>12} {share:>7.1%}")
    if est.is_saturated:
        print("\nwarning: this rate is at or past the predicted "
              "saturation; estimates assume offered load is delivered")
    return 0


def cmd_report(args) -> int:
    from repro.telemetry import (
        telemetry_from_jsonl,
        telemetry_report,
        telemetry_to_csv,
    )

    record = telemetry_from_jsonl(args.path)
    print(telemetry_report(record, series=not args.no_series))
    if args.csv:
        telemetry_to_csv(record, args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def cmd_power(args) -> int:
    cfg = _config(args)
    orion = Orion(cfg)
    print(f"== {args.preset}: section 3.3 walkthrough ==")
    for name, joules in orion.flit_energy_walkthrough().items():
        print(f"  {name:<8} {joules * 1e12:10.3f} pJ")
    binding = orion.power_models()
    print("\n== component parameters ==")
    print("buffer:", binding.buffer_model.describe())
    print("crossbar:", binding.crossbar_model.describe())
    print("switch arbiter:", binding.switch_arbiter_model.describe())
    if binding.central_model is not None:
        print("central buffer:", binding.central_model.describe())
    print("link:", binding.link_model.describe())
    return 0


def cmd_delay(args) -> int:
    cfg = _config(args)
    print(RouterDelayModel(cfg).report())
    return 0


def cmd_validate(args) -> int:
    from repro.validation import validation_report
    print(validation_report())
    return 0


def cmd_serve(args) -> int:
    from repro.serve import ServeConfig, serve_forever, serve_sharded

    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_limit=args.queue_limit,
        cache_dir=None if args.no_cache else args.cache_dir,
        journal_dir=args.journal_dir,
        drain_timeout=args.drain_timeout,
        point_timeout=args.point_timeout,
        retries=args.retries, processes=args.job_processes,
        quiet=args.quiet,
        job_ttl=args.job_ttl,
        max_job_events=args.max_job_events,
        cache_max_age=args.cache_max_age,
        cache_max_entries=args.cache_max_entries,
        pool_idle_timeout=args.pool_idle_timeout)
    if args.shards > 1:
        return serve_sharded(config, args.shards,
                             probe_interval=args.probe_interval)
    return serve_forever(config)


def cmd_gateway(args) -> int:
    from repro.serve import GatewayConfig, gateway_forever

    config = GatewayConfig(
        host=args.host, port=args.port,
        backends=tuple(args.backend),
        replicas=args.replicas,
        probe_interval=args.probe_interval,
        backend_timeout=args.backend_timeout,
        drain_timeout=args.drain_timeout,
        quiet=args.quiet)
    return gateway_forever(config)


def _submit_payload(args) -> dict:
    """Build a job payload from ``repro submit`` flags (or --file)."""
    if args.file:
        with open(args.file) as f:
            return json.load(f)
    spec: dict = {}
    if args.kind in ("run", "estimate"):
        spec["config"] = args.preset
        spec["traffic"] = {"name": args.traffic,
                           "params": _traffic_extras(args.traffic, args)}
        spec["rate"] = args.rate
        if args.kind == "run":
            spec["protocol"] = {"warmup_cycles": args.warmup,
                                "sample_packets": args.sample,
                                "seed": args.seed}
    else:
        spec["presets"] = [n.strip() for n in args.preset.split(",")]
        spec["traffics"] = [
            {"name": t.strip(),
             "params": _traffic_extras(t.strip(), args)}
            for t in args.traffic.split(",")]
        spec["rates"] = [float(r) for r in args.rates.split(",")]
        spec["seeds"] = [int(s) for s in args.seeds.split(",")]
        spec["protocol"] = {"warmup_cycles": args.warmup,
                            "sample_packets": args.sample}
    return {"kind": args.kind, "spec": spec, "priority": args.priority}


def _print_job_result(state: dict) -> None:
    result = state.get("result") or {}
    if "estimate" in result:
        est = result["estimate"]
        latency = est.get("avg_latency")
        latency_text = "saturated" if latency is None else f"{latency:.2f}"
        print(f"estimate: latency={latency_text} cycles  "
              f"power={format_power(est['total_power_w'])}  "
              f"saturation={est.get('saturation_rate')}")
        return
    for point in result.get("points", ()):
        status = "cached" if point["from_cache"] else \
            f"{point['wall_seconds']:.2f}s"
        if point["ok"]:
            body = (f"lat={point['avg_latency']:8.2f}  "
                    f"pw={format_power(point['total_power_w']):>10}")
        else:
            body = f"FAILED({point['status']}): {point['error']}"
        print(f"  {point['describe']:<40} {body}  {status}")


def _submit_batch(client, args) -> int:
    """``repro submit --batch-file``: many payloads, one request."""
    from repro.serve import ServeError

    with open(args.batch_file) as f:
        payloads = json.load(f)
    if not isinstance(payloads, list):
        print("error: batch file must hold a JSON list of job payloads",
              file=sys.stderr)
        return 2
    try:
        results = client.submit_many(payloads)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    bounced = 0
    for position, entry in enumerate(results):
        status = entry.get("http_status")
        if status in (200, 202):
            note = " (deduplicated)" if entry.get("deduped") else ""
            print(f"[{position}] job {entry['id']} "
                  f"{entry['status']}{note}")
        else:
            bounced += 1
            print(f"[{position}] rejected ({status}): "
                  f"{entry.get('error')}")
    if args.no_wait:
        return 1 if bounced else 0
    failed = 0
    for position, entry in enumerate(results):
        if entry.get("http_status") not in (200, 202):
            continue
        try:
            state = client.wait(entry["id"], timeout=args.timeout)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"[{position}] job {entry['id']} {state['status']} "
              f"in {state.get('wall_seconds') or 0.0:.2f}s")
        _print_job_result(state)
        if state["status"] != "done" \
                or (state.get("result") or {}).get("failures"):
            failed += 1
    return 1 if failed or bounced else 0


def cmd_submit(args) -> int:
    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.server, timeout=args.timeout)
    if args.cancel:
        try:
            out = client.cancel(args.cancel)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"job {out['id']} {out['status']}")
        if args.no_wait or out["status"] == "cancelled":
            return 0
        try:
            state = client.wait(out["id"], timeout=args.timeout)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"job {out['id']} {state['status']}")
        return 0 if state["status"] == "cancelled" else 1
    if args.batch_file:
        return _submit_batch(client, args)
    payload = _submit_payload(args)
    try:
        accepted = client.submit(payload)
    except ServeError as exc:
        if exc.status == 429 and exc.retry_after:
            print(f"error: {exc} (retry after {exc.retry_after:g}s)",
                  file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    job_id = accepted["id"]
    print(f"job {job_id} {accepted['status']}"
          f"{' (deduplicated onto an identical active job)' if accepted.get('deduped') else ''}")
    if args.no_wait:
        return 0
    try:
        if args.stream:
            for event in client.stream(job_id):
                print(json.dumps(event, sort_keys=True), flush=True)
            state = client.status(job_id)
        else:
            state = client.wait(job_id, timeout=args.timeout)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"job {job_id} {state['status']} "
          f"in {state.get('wall_seconds') or 0.0:.2f}s")
    _print_job_result(state)
    if state["status"] != "done":
        print(f"error: {state.get('error')}", file=sys.stderr)
        return 1
    result = state.get("result") or {}
    return 1 if result.get("failures") else 0


def cmd_cache(args) -> int:
    from repro.exp import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"cache: {stats['root']}")
        print(f"  entries:     {stats['entries']}")
        print(f"  total bytes: {stats['total_bytes']}")
        for name in ("oldest_age_s", "newest_age_s"):
            age = stats[name]
            print(f"  {name.replace('_', ' '):<12} "
                  f"{'-' if age is None else format(age, '.0f') + 's'}")
        return 0
    if args.cache_command == "prune":
        if args.max_age_s is None and args.max_entries is None:
            print("error: prune needs --max-age-s and/or --max-entries",
                  file=sys.stderr)
            return 2
        removed = cache.prune(max_age_s=args.max_age_s,
                              max_entries=args.max_entries)
        removed += cache.sweep_stale_tmp()
        print(f"pruned {removed} entries; {len(cache)} remain")
        return 0
    # clear
    removed = cache.clear()
    print(f"cleared {removed} entries")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Orion power-performance network simulator "
                    "(MICRO 2002 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("presets", help="list the paper's configurations")
    p.set_defaults(handler=cmd_presets)

    def add_common(p, with_rate=True):
        p.add_argument("--preset", default="VC16",
                       help="configuration name (see 'presets')")
        if with_rate:
            p.add_argument("--rate", type=float, default=0.05,
                           help="packet injection rate")
        p.add_argument("--traffic", choices=TRAFFIC_KINDS,
                       default="uniform")
        p.add_argument("--source", type=int, default=9,
                       help="broadcast/hotspot node id")
        p.add_argument("--sample", type=_positive_int, default=1000,
                       help="measured packets (paper uses 10000)")
        p.add_argument("--warmup", type=_nonneg_int, default=1000,
                       help="warm-up cycles")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--leakage", action="store_true",
                       help="add static power (extension)")
        p.add_argument("--activity", choices=("average", "data"),
                       help="switching-activity mode")

    p = sub.add_parser("run", help="run one simulation")
    add_common(p)
    p.add_argument("--spatial", action="store_true",
                   help="print the per-node power map")
    p.add_argument("--json", metavar="PATH",
                   help="write the result summary as JSON")
    p.add_argument("--csv", metavar="PATH",
                   help="write the per-node power map as CSV")
    p.add_argument("--telemetry-window", type=int, default=0,
                   metavar="CYCLES",
                   help="record windowed energy/event/utilization "
                        "telemetry every this many cycles (0 disables)")
    p.add_argument("--telemetry-jsonl", metavar="PATH",
                   help="write the telemetry record as JSONL "
                        "(implies a default window if none given)")
    p.add_argument("--telemetry-csv", metavar="PATH",
                   help="write the telemetry record as long-format CSV "
                        "(implies a default window if none given)")
    p.add_argument("--faults", action="append", metavar="SPEC",
                   help="inject a fault (repeatable), e.g. "
                        "'link_kill:node=5,port=east,at=1200', "
                        "'link_flip:node=5,port=2,at=1000,for=500', "
                        "'router_freeze:node=3,at=500,for=800', "
                        "'vc_stuck:node=2,port=east,vc=0,at=800', or "
                        "'random:kills=2,flips=1'")
    p.add_argument("--fault-policy", choices=("misroute", "drop"),
                   default="misroute",
                   help="what traffic does at a faulted link")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for 'random:' fault placement")
    p.add_argument("--on-stall", choices=("raise", "finish"),
                   help="watchdog behaviour: raise (default on healthy "
                        "runs) or finish with status='stalled' "
                        "(default with --faults)")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("sweep", help="sweep injection rates")
    add_common(p, with_rate=False)
    p.add_argument("--rates", default="0.02,0.06,0.10,0.14",
                   help="comma-separated injection rates")
    p.add_argument("--processes", type=_positive_int, default=1,
                   help="worker processes for the rate points")
    p.add_argument("--csv", metavar="PATH",
                   help="write the sweep as CSV")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser(
        "experiment",
        help="run a (preset x traffic x rate x seed) grid with "
             "multiprocessing and result caching")
    p.add_argument("--presets", default="VC16",
                   help="comma-separated configuration names")
    p.add_argument("--traffic", default="uniform",
                   help=f"comma-separated traffic kinds "
                        f"(options: {', '.join(TRAFFIC_KINDS)})")
    p.add_argument("--rates", default="0.02,0.06,0.10,0.14",
                   help="comma-separated injection rates, or 'auto' to "
                        "place the grid analytically around predicted "
                        "saturation")
    p.add_argument("--grid-points", type=_positive_int, default=8,
                   help="points per guided grid (with --rates auto)")
    p.add_argument("--seeds", default="1",
                   help="comma-separated traffic seeds")
    p.add_argument("--source", type=int, default=9,
                   help="broadcast/hotspot node id")
    p.add_argument("--sample", type=_positive_int, default=1000,
                   help="measured packets per point")
    p.add_argument("--warmup", type=_nonneg_int, default=1000,
                   help="warm-up cycles per point")
    p.add_argument("--processes", type=_positive_int, default=1,
                   help="worker processes")
    p.add_argument("--point-timeout", type=_positive_float, default=None,
                   metavar="SECONDS",
                   help="wall-clock cap per point (runs each point in "
                        "its own subprocess; expired points record "
                        "status='timeout')")
    p.add_argument("--retries", type=_nonneg_int, default=0,
                   help="re-run a point whose worker crashed this many "
                        "times before recording status='crashed'")
    p.add_argument("--cache-dir", default="results/.cache",
                   help="result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache")
    p.add_argument("--leakage", action="store_true",
                   help="add static power (extension)")
    p.add_argument("--activity", choices=("average", "data"),
                   help="switching-activity mode")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-point progress lines")
    p.add_argument("--csv", metavar="PATH",
                   help="write all points as CSV")
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser(
        "estimate",
        help="closed-form latency/power/saturation estimate (no "
             "simulation, milliseconds)")
    add_common(p)
    p.add_argument("--topology", choices=("mesh", "torus"),
                   help="override the preset's topology")
    p.add_argument("--width", type=int, help="override grid width")
    p.add_argument("--height", type=int, help="override grid height")
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser(
        "report",
        help="render a recorded telemetry JSONL file")
    p.add_argument("path", help="telemetry JSONL written by "
                                "'run --telemetry-jsonl'")
    p.add_argument("--no-series", action="store_true",
                   help="skip the per-window time series table")
    p.add_argument("--csv", metavar="PATH",
                   help="also convert the record to long-format CSV")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("power", help="standalone power analysis")
    p.add_argument("--preset", default="VC16")
    p.set_defaults(handler=cmd_power)

    p = sub.add_parser("delay", help="pipeline/frequency analysis")
    p.add_argument("--preset", default="VC16")
    p.set_defaults(handler=cmd_delay)

    p = sub.add_parser("validate",
                       help="ballpark checks vs commercial routers")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser(
        "serve",
        help="long-lived HTTP job service: queue, dedup, progress "
             "streams, graceful drain (see docs/SERVICE.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_nonneg_int, default=8421,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--workers", type=_positive_int, default=2,
                   help="concurrent jobs")
    p.add_argument("--queue-limit", type=_positive_int, default=64,
                   help="waiting jobs before submissions get 429")
    p.add_argument("--cache-dir", default="results/.cache",
                   help="shared result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache")
    p.add_argument("--journal-dir", default="results/.serve",
                   help="crash-safe job journal directory")
    p.add_argument("--drain-timeout", type=_positive_float, default=30.0,
                   metavar="SECONDS",
                   help="graceful-drain budget after SIGTERM")
    p.add_argument("--point-timeout", type=_positive_float, default=300.0,
                   metavar="SECONDS",
                   help="default wall-clock cap per simulation point")
    p.add_argument("--retries", type=_nonneg_int, default=0,
                   help="default crash retries per point")
    p.add_argument("--job-processes", type=_positive_int, default=1,
                   help="default worker processes within one job")
    p.add_argument("--job-ttl", type=_positive_float, default=3600.0,
                   metavar="SECONDS",
                   help="keep finished jobs queryable this long before "
                        "evicting them from memory")
    p.add_argument("--max-job-events", type=_positive_int, default=1000,
                   help="per-job event-log bound (oldest entries are "
                        "trimmed first)")
    p.add_argument("--cache-max-age", type=_positive_float, default=None,
                   metavar="SECONDS",
                   help="self-prune cache entries older than this "
                        "during idle housekeeping")
    p.add_argument("--cache-max-entries", type=_nonneg_int, default=None,
                   help="self-prune the cache down to this many newest "
                        "entries during idle housekeeping")
    p.add_argument("--pool-idle-timeout", type=_positive_float,
                   default=None, metavar="SECONDS",
                   help="reap idle simulation workers after this long "
                        "(a floor of one warm worker always survives)")
    p.add_argument("--shards", type=_positive_int, default=1,
                   help="run N shard servers behind a consistent-hash "
                        "gateway on --port (1 = single server)")
    p.add_argument("--probe-interval", type=_positive_float, default=2.0,
                   metavar="SECONDS",
                   help="gateway health-probe interval (--shards > 1)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress lifecycle log lines")
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser(
        "gateway",
        help="front existing 'repro serve' shards with a "
             "consistent-hash routing gateway")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_nonneg_int, default=8421,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--backend", action="append", required=True,
                   metavar="HOST:PORT",
                   help="one shard address (repeatable)")
    p.add_argument("--replicas", type=_positive_int, default=64,
                   help="virtual points per shard on the hash ring")
    p.add_argument("--probe-interval", type=_positive_float, default=2.0,
                   metavar="SECONDS",
                   help="health-probe interval per shard")
    p.add_argument("--backend-timeout", type=_positive_float,
                   default=30.0, metavar="SECONDS",
                   help="per-request timeout talking to a shard")
    p.add_argument("--drain-timeout", type=_positive_float, default=30.0,
                   metavar="SECONDS",
                   help="per-shard graceful-drain budget on SIGTERM")
    p.add_argument("--quiet", action="store_true",
                   help="suppress lifecycle log lines")
    p.set_defaults(handler=cmd_gateway)

    p = sub.add_parser(
        "submit",
        help="submit a job to a running 'repro serve' instance")
    p.add_argument("--server", default="http://127.0.0.1:8421",
                   help="server base URL")
    p.add_argument("--kind", choices=("run", "estimate", "experiment"),
                   default="run")
    p.add_argument("--file", metavar="PATH",
                   help="submit a raw job payload JSON file instead of "
                        "building one from flags")
    p.add_argument("--batch-file", metavar="PATH",
                   help="submit a JSON file holding a list of job "
                        "payloads in one pipelined request "
                        "(POST /v2/jobs:batch)")
    p.add_argument("--cancel", metavar="JOB_ID",
                   help="cancel a queued or running job instead of "
                        "submitting (DELETE /v2/jobs/<id>)")
    p.add_argument("--preset", default="VC16",
                   help="configuration name(s); comma-separated for "
                        "--kind experiment")
    p.add_argument("--traffic", default="uniform",
                   help="traffic kind(s); comma-separated for "
                        "--kind experiment")
    p.add_argument("--source", type=int, default=9,
                   help="broadcast/hotspot node id")
    p.add_argument("--rate", type=_positive_float, default=0.05,
                   help="injection rate (run/estimate)")
    p.add_argument("--rates", default="0.02,0.06,0.10,0.14",
                   help="comma-separated rates (experiment)")
    p.add_argument("--seeds", default="1",
                   help="comma-separated seeds (experiment)")
    p.add_argument("--sample", type=_positive_int, default=1000,
                   help="measured packets per point")
    p.add_argument("--warmup", type=_nonneg_int, default=1000,
                   help="warm-up cycles per point")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first")
    p.add_argument("--timeout", type=_positive_float, default=600.0,
                   help="seconds to wait for the result")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job id and return immediately")
    p.add_argument("--stream", action="store_true",
                   help="follow the NDJSON progress stream instead of "
                        "polling")
    p.set_defaults(handler=cmd_submit)

    p = sub.add_parser("cache", help="result-cache maintenance")
    p.add_argument("cache_command",
                   choices=("stats", "prune", "clear"))
    p.add_argument("--cache-dir", default="results/.cache")
    p.add_argument("--max-age-s", type=_positive_float, default=None,
                   help="prune: drop entries older than this many "
                        "seconds")
    p.add_argument("--max-entries", type=_nonneg_int, default=None,
                   help="prune: keep at most this many newest entries")
    p.set_defaults(handler=cmd_cache)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        return 141
    except (ValueError, OSError, RuntimeError) as exc:
        # Predictable operational failures (bad preset names, missing
        # files, unreachable servers) exit 1 with one clear line; real
        # bugs still traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main entry points:

* ``presets``    — list the paper's named configurations;
* ``run``        — one simulation: latency, power, breakdown, spatial map;
* ``experiment`` — orchestrated grid of (preset × traffic × rate × seed)
  points with multiprocessing, on-disk result caching, per-point
  failure isolation and one latency/power sweep table per curve;
* ``estimate``   — closed-form latency/power/saturation of one point;
* ``report``     — render a recorded telemetry JSONL file (component
  breakdown, spatial map, time series, engine phase spans);
* ``serve``      — long-lived asyncio HTTP job service (queue, dedup,
  progress streaming, graceful drain; see :mod:`repro.serve`);
* ``submit``     — send a run/estimate/experiment job to a warm server;
* ``cache``      — result-cache maintenance (stats, LRU prune, clear);
* ``power``      — standalone power analysis (section 3.3 walkthrough);
* ``delay``      — pipeline/frequency analysis (Peh-Dally delay model);
* ``validate``   — section 3.2 ballpark checks against commercial routers.

``run``, ``experiment`` and ``estimate`` describe their work as one job
dict (``{"kind", "spec", "options"}``) built from the flags declared
once in :data:`JOB_FIELDS`, decode it with
:func:`repro.exp.spec.decode_job` — the job service's own decoder — and
execute it in-process.  ``submit --kind K`` takes exactly kind K's flags
and posts the identical dict.

Failures are consistent: every handler either returns a non-zero exit
code or raises an error that :func:`main` turns into ``error: ...`` on
stderr and exit code 1 — never a traceback for predictable bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.orion import Orion
from repro.core.presets import PRESETS, preset
from repro.core.export import (
    experiment_to_csv,
    result_to_json,
    spatial_to_csv,
)
from repro.core.report import breakdown_table, format_power, spatial_table
from repro.delay import RouterDelayModel
from repro.exp.spec import JOB_KINDS, decode_job
from repro.sim.topology import topology_for
from repro.sim.traffic import TRAFFIC_REGISTRY, traffic_names

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


# --- job fields ---------------------------------------------------------------

_SIM = ("run", "experiment")

#: Every flag that describes a job, declared once: option string, the
#: job kinds that take it, argparse keywords.  ``repro run/experiment/
#: estimate`` and ``repro submit --kind K`` add exactly their kind's
#: rows; :func:`job_from_args` turns the parsed values into the job dict.
JOB_FIELDS = (
    ("--preset", ("run", "estimate"),
     dict(default="VC16", help="configuration name (see 'presets')")),
    ("--presets", ("experiment",),
     dict(default="VC16", help="comma-separated configuration names")),
    ("--rate", ("run", "estimate"),
     dict(type=float, default=0.05, help="packet injection rate")),
    ("--rates", ("experiment",),
     dict(default="0.02,0.06,0.10,0.14",
          help="comma-separated injection rates, or 'auto' to place the "
               "grid analytically around predicted saturation "
               "(local only)")),
    ("--seeds", ("experiment",),
     dict(default="1", help="comma-separated traffic seeds")),
    ("--traffic", ("run", "estimate"),
     dict(choices=TRAFFIC_KINDS, default="uniform")),
    ("--traffic", ("experiment",),
     dict(default="uniform",
          help=f"comma-separated traffic kinds "
               f"(options: {', '.join(TRAFFIC_KINDS)})")),
    ("--source", JOB_KINDS,
     dict(type=int, default=9, help="broadcast/hotspot node id")),
    ("--sample", _SIM,
     dict(type=_positive_int, default=1000,
          help="measured packets per point (paper uses 10000)")),
    ("--warmup", _SIM,
     dict(type=_nonneg_int, default=1000,
          help="warm-up cycles per point")),
    ("--seed", ("run",), dict(type=int, default=1)),
    ("--leakage", JOB_KINDS,
     dict(action="store_true", help="add static power (extension)")),
    ("--activity", JOB_KINDS,
     dict(choices=("average", "data"), help="switching-activity mode")),
    ("--topology", ("estimate",),
     dict(choices=("mesh", "torus"),
          help="override the preset's topology")),
    ("--width", ("estimate",), dict(type=int, help="override grid width")),
    ("--height", ("estimate",),
     dict(type=int, help="override grid height")),
    ("--telemetry-window", ("run",),
     dict(type=int, default=0, metavar="CYCLES",
          help="record windowed energy/event/utilization telemetry every "
               "this many cycles (0 disables)")),
    ("--on-stall", _SIM,
     dict(choices=("raise", "finish"),
          help="what a stall does: raise (default) or finish the run "
               "with status='stalled' (deadlock watchdog) or "
               "status='max_cycles' (cycle limit)")),
    ("--processes", ("experiment",),
     dict(type=_positive_int,
          help="worker processes (default: 1 locally, the server's "
               "--job-processes when submitted)")),
    ("--point-timeout", ("experiment",),
     dict(type=_positive_float, metavar="SECONDS",
          help="wall-clock cap per point (runs each point in its own "
               "subprocess; expired points record status='timeout')")),
    ("--retries", ("experiment",),
     dict(type=_nonneg_int,
          help="re-run a point whose worker crashed this many times "
               "before recording status='crashed' (default 0)")),
)

#: Job fields that land in the job's ``options`` rather than its spec.
_OPTION_FIELDS = ("processes", "point_timeout", "retries")


def _add_job_fields(parser: argparse.ArgumentParser, kind: str) -> None:
    for flag, kinds, kwargs in JOB_FIELDS:
        if kind in kinds:
            parser.add_argument(flag, **kwargs)


def _split(text: str) -> List[str]:
    return [part.strip() for part in text.split(",")]


def _job_config(name: str, args):
    """A preset name, or ``{"preset", "overrides"}`` when flags change
    it."""
    overrides = {}
    if args.leakage:
        overrides["include_leakage"] = True
    if args.activity:
        overrides["activity_mode"] = args.activity
    for field in ("topology", "width", "height"):
        if getattr(args, field, None):
            overrides[field] = getattr(args, field)
    return {"preset": name, "overrides": overrides} if overrides else name


def _job_traffic(name: str, args) -> dict:
    """``--source`` feeds broadcast's ``source`` and hotspot's
    ``hotspot``; declared defaults cover the rest (an unknown name is
    left for the decoder to reject)."""
    kind = TRAFFIC_REGISTRY.get(name)
    return {"name": name,
            "params": {param.name: args.source
                       for param in (kind.params if kind else ())
                       if param.name in ("source", "hotspot")}}


def _job_protocol(kind: str, args) -> dict:
    protocol = {"warmup_cycles": args.warmup, "sample_packets": args.sample}
    if kind == "run":
        protocol["seed"] = args.seed
        protocol["telemetry_window"] = args.telemetry_window
    if args.on_stall:
        protocol["on_stall"] = args.on_stall
    return protocol


def job_from_args(kind: str, args) -> dict:
    """The job dict (``{"kind", "spec", "options"}``) one command's
    parsed flags describe: run in-process by ``run``/``experiment``/
    ``estimate``, posted unchanged by ``submit``.  ``--rates auto``
    stays the string ``"auto"`` for :func:`cmd_experiment` to expand."""
    if kind == "experiment":
        rates = args.rates.strip()
        spec = {
            "configs": [[name, _job_config(name, args)]
                        for name in dict.fromkeys(_split(args.presets))],
            "traffics": [_job_traffic(name, args)
                         for name in _split(args.traffic)],
            "rates": rates if rates == "auto"
            else [float(rate) for rate in _split(rates)],
            "seeds": [int(seed) for seed in _split(args.seeds)],
        }
    else:
        spec = {"config": _job_config(args.preset, args),
                "traffic": _job_traffic(args.traffic, args),
                "rate": args.rate}
    if kind == "run":
        spec["label"] = args.preset
    if kind != "estimate":
        spec["protocol"] = _job_protocol(kind, args)
    options = {name: getattr(args, name) for name in _OPTION_FIELDS
               if getattr(args, name, None) is not None}
    return {"kind": kind, "spec": spec, "options": options}


# --- commands -----------------------------------------------------------------

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
    if args.telemetry_window == 0 and (args.telemetry_jsonl
                                       or args.telemetry_csv):
        from repro.telemetry import DEFAULT_WINDOW
        args.telemetry_window = DEFAULT_WINDOW
    (point,), _ = decode_job(job_from_args("run", args))
    cfg = point.config
    result = Orion(cfg).run(
        point.traffic.build(topology_for(cfg), point.rate,
                            point.protocol.seed),
        point.protocol)
    per_node = TRAFFIC_REGISTRY[args.traffic].per_node
    print(f"config:        {args.preset} ({cfg.router.kind})")
    print(f"traffic:       {args.traffic} at {args.rate} pkt/cycle"
          f"{'/node' if per_node else ''}")
    if result.status != "ok":
        print(f"status:        {result.status}")
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


def cmd_experiment(args) -> int:
    from repro.exp import ResultCache, run_experiment

    job = job_from_args("experiment", args)
    if job["spec"]["rates"] == "auto":
        points = _guided_points(job, args.grid_points, quiet=args.quiet)
    else:
        points, _ = decode_job(job)
    options = job["options"]
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

    result = run_experiment(points,
                            processes=options.get("processes", 1),
                            cache=cache,
                            progress=None if args.quiet else show,
                            point_timeout=options.get("point_timeout"),
                            retries=options.get("retries", 0))
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


def _guided_points(job: dict, grid_points: int, quiet: bool = False):
    """Expand ``--rates auto``: one analytic guided rate grid per
    (preset, traffic) curve, rates dense around predicted saturation.
    The grid is decoded at a placeholder rate, then each curve's points
    move onto its own rates."""
    from dataclasses import replace
    from repro.exp import guided_rate_grid

    probes, _ = decode_job(dict(job, spec=dict(job["spec"], rates=[1.0])))
    grids = {}
    points = []
    for probe in probes:
        curve = (probe.label, probe.traffic)
        if curve not in grids:
            grid = grids[curve] = guided_rate_grid(
                probe.config, probe.traffic.name, points=grid_points,
                **dict(probe.traffic.params))
            if not quiet:
                rates = ",".join(f"{r:g}" for r in grid.rates)
                print(f"guided grid {probe.label}/"
                      f"{probe.traffic.describe()}: predicted saturation "
                      f"{grid.prediction.rate:.4f}, rates [{rates}]")
        points.extend(replace(probe, rate=rate)
                      for rate in grids[curve].rates)
    return points


def cmd_estimate(args) -> int:
    from repro.analytic import estimate

    _, spec = decode_job(job_from_args("estimate", args))
    cfg = spec["config"]
    est = estimate(cfg, spec["traffic"], spec["rate"], **spec["params"])
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
    orion = Orion(preset(args.preset))
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
    print(RouterDelayModel(preset(args.preset)).report())
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
    with open(args.batch_file) as f:
        payloads = json.load(f)
    if not isinstance(payloads, list):
        print("error: batch file must hold a JSON list of job payloads",
              file=sys.stderr)
        return 2
    results = client.submit_many(payloads)
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
        state = client.wait(entry["id"], timeout=args.timeout)
        print(f"[{position}] job {entry['id']} {state['status']} "
              f"in {state.get('wall_seconds') or 0.0:.2f}s")
        _print_job_result(state)
        if state["status"] != "done" \
                or (state.get("result") or {}).get("failures"):
            failed += 1
    return 1 if failed or bounced else 0


def cmd_submit(args) -> int:
    """Post one job (or a batch, or a cancellation).  A
    :class:`~repro.serve.ServeError` is a ``RuntimeError``, so
    :func:`main` reports any other server failure as ``error: ...``."""
    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.server, timeout=args.timeout)
    if args.cancel:
        out = client.cancel(args.cancel)
        print(f"job {out['id']} {out['status']}")
        if args.no_wait or out["status"] == "cancelled":
            return 0
        state = client.wait(out["id"], timeout=args.timeout)
        print(f"job {out['id']} {state['status']}")
        return 0 if state["status"] == "cancelled" else 1
    if args.batch_file:
        return _submit_batch(client, args)
    if args.file:
        with open(args.file) as f:
            payload = json.load(f)
    else:
        payload = job_from_args(args.kind, args)
        if payload["spec"].get("rates") == "auto":
            raise ValueError("--rates auto places its grids locally; run "
                             "'repro experiment --rates auto' or submit "
                             "explicit --rates")
        decode_job(payload)  # a malformed job never reaches the server
        if args.priority:
            payload = dict(payload, priority=args.priority)
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
    if args.stream:
        try:
            for event in client.stream(job_id):
                print(json.dumps(event, sort_keys=True), flush=True)
        except ServeError as exc:  # e.g. its shard died mid-stream
            print(f"warning: {exc}; polling instead", file=sys.stderr)
    state = client.wait(job_id, timeout=args.timeout)
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


def build_parser(submit_kind: str = "run") -> argparse.ArgumentParser:
    """The full parser; ``submit`` takes ``submit_kind``'s job fields."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Orion power-performance network simulator "
                    "(MICRO 2002 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("presets", help="list the paper's configurations")
    p.set_defaults(handler=cmd_presets)

    p = sub.add_parser("run", help="run one simulation")
    _add_job_fields(p, "run")
    p.add_argument("--spatial", action="store_true",
                   help="print the per-node power map")
    p.add_argument("--json", metavar="PATH",
                   help="write the result summary as JSON")
    p.add_argument("--csv", metavar="PATH",
                   help="write the per-node power map as CSV")
    p.add_argument("--telemetry-jsonl", metavar="PATH",
                   help="write the telemetry record as JSONL "
                        "(implies a default window if none given)")
    p.add_argument("--telemetry-csv", metavar="PATH",
                   help="write the telemetry record as long-format CSV "
                        "(implies a default window if none given)")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser(
        "experiment",
        help="run a (preset x traffic x rate x seed) grid with "
             "multiprocessing and result caching")
    _add_job_fields(p, "experiment")
    p.add_argument("--grid-points", type=_positive_int, default=8,
                   help="points per guided grid (with --rates auto)")
    p.add_argument("--cache-dir", default="results/.cache",
                   help="result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-point progress lines")
    p.add_argument("--csv", metavar="PATH",
                   help="write all points as CSV")
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser(
        "estimate",
        help="closed-form latency/power/saturation estimate (no "
             "simulation, milliseconds)")
    _add_job_fields(p, "estimate")
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
                   help="default wall-clock cap per simulation point "
                        "or estimate")
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
    p.add_argument("--kind", choices=JOB_KINDS, default="run",
                   help="job kind; the job flags this command takes are "
                        "that kind's command's (see 'repro submit --kind "
                        "K --help')")
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
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first")
    p.add_argument("--timeout", type=_positive_float, default=600.0,
                   help="seconds to wait for the result")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job id and return immediately")
    p.add_argument("--stream", action="store_true",
                   help="follow the NDJSON progress stream instead of "
                        "polling")
    _add_job_fields(p, submit_kind)
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


def _submit_kind(argv: List[str]) -> str:
    """The ``--kind`` of a ``submit`` command line, read ahead of the
    full parse because it decides which job flags ``submit`` takes."""
    if argv[:1] != ["submit"]:
        return "run"
    pre = argparse.ArgumentParser(prog="repro submit", add_help=False)
    pre.add_argument("--kind", choices=JOB_KINDS, default="run")
    return pre.parse_known_args(argv[1:])[0].kind


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(_submit_kind(argv)).parse_args(argv)
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

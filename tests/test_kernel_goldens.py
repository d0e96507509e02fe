"""Recorded goldens for the cycle kernel.

``tests/goldens/kernel.json`` holds, per configuration, what the former
dense reference kernel (every router, every cycle, per-event energy
deposits) produced: cycle and flit counts, a sha256 of the per-packet
latency list, network-wide event counts, and energy per component and
per node.  The one event-sparse kernel must reproduce every entry — the
performance figures bit for bit, the energies to ``REL_TOL`` (the
binding prices integer event counts and switching sums once instead of
adding a float per event, which reorders float arithmetic and nothing
else).

The configurations are the old dense-vs-sparse matrix (paper
presets, router kinds x topologies, traffic patterns x seeds, data
activity, monitor and telemetry rows) plus ``GENERATED`` small
configurations from a fixed-seed generator that reach corners no
hand-written row covers: odd sides, deep and shallow buffers, one to
four VCs, one- to six-flit packets, every arbiter policy.  Every run
audits flit conservation as it goes.

Re-record only when a change is *meant* to alter simulated behaviour
(a routing, allocation or energy-model change), never to absorb an
unexplained diff; figures the kernel still reproduces keep their
recorded values, so appending a case adds one row and rewrites none::

    PYTHONPATH=src python -m tests.test_kernel_goldens
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, NamedTuple, Optional

import pytest

from repro.core.config import (LinkConfig, NetworkConfig, RouterConfig,
                               RunProtocol)
from repro.core.presets import PRESETS
from repro.sim.engine import Simulation
from repro.sim.topology import topology_for
from repro.sim.traffic import TransposeTraffic, UniformRandomTraffic
from tests.conftest import SMALL_LINK, SMALL_TECH, small_config

GOLDENS = Path(__file__).parent / "goldens" / "kernel.json"
REL_TOL = 1e-12
GENERATED = 28
#: Telemetry window the ``monitor`` rows record with; their digest is
#: the same for any window (windows telescope).
MONITOR_WINDOW = 7
KINDS = ("wormhole", "vc", "speculative_vc", "central")
TRAFFICS = {"uniform": UniformRandomTraffic, "transpose": TransposeTraffic}


class Case(NamedTuple):
    config: NetworkConfig
    traffic: str = "uniform"
    rate: float = 0.05
    seed: int = 1
    warmup: int = 60
    sample: int = 40
    #: Digest the run's channel utilisation and buffer occupancy into
    #: the row's ``monitor_sha256``.
    monitor: bool = False
    telemetry_window: int = 0


def _matrix_cases() -> Dict[str, Case]:
    cases = {}
    for name in sorted(PRESETS):
        cases[f"presets_uniform[{name}]"] = Case(
            PRESETS[name](), rate=0.04, warmup=50, sample=30)
    for seed in (1, 2):
        for traffic in ("uniform", "transpose"):
            cases[f"vc16_traffic_and_seeds[{seed}-{traffic}]"] = Case(
                PRESETS["VC16"](), traffic=traffic, rate=0.10, seed=seed,
                warmup=80, sample=60)
    for kind in KINDS:
        for topology in ("torus", "mesh"):
            cases[f"router_kinds_topologies[{topology}-{kind}]"] = Case(
                small_config(kind).with_(topology=topology))
        cases[f"router_kinds_data_mode[{kind}]"] = Case(
            small_config(kind).with_(activity_mode="data"))
        cases[f"monitor[{kind}]"] = Case(
            small_config(kind), rate=0.06, monitor=True)
    cases["monitor_under_load"] = Case(
        PRESETS["VC16"](), traffic="transpose", rate=0.12, seed=2,
        warmup=80, sample=60, monitor=True)
    cases["telemetry"] = Case(PRESETS["VC16"](), rate=0.06,
                              telemetry_window=16)
    # Contested speculative grants (several fresh heads per free
    # output) need a loaded VC16 fabric.
    for traffic, rate in (("uniform", 0.09), ("transpose", 0.12)):
        cases[f"speculative_under_load[{traffic}]"] = Case(
            PRESETS["VC16"]().with_router(kind="speculative_vc"),
            traffic=traffic, rate=rate, seed=3, warmup=200, sample=300)
    # Data mode at the paper's flit widths (256/256/32 bits), and the
    # bus-invert link's min(d, W - d) fold on 256-bit payloads.
    for name in ("VC16", "WH64", "CB"):
        cases[f"data_mode_paper_width[{name}]"] = Case(
            PRESETS[name]().with_(activity_mode="data"), rate=0.04,
            warmup=50, sample=30)
    cases["data_mode_bus_invert[VC16]"] = Case(
        PRESETS["VC16"]().with_(
            activity_mode="data",
            link=LinkConfig(kind="on_chip", encoding="bus_invert")),
        rate=0.04, warmup=50, sample=30)
    return cases


def _generated_cases(count: int = GENERATED, seed: int = 2002) -> \
        Dict[str, Case]:
    """``count`` small random configurations, every router kind in
    turn."""
    rng = random.Random(seed)
    cases = {}
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        num_vcs = rng.randint(1, 4) if kind in ("vc", "speculative_vc") \
            else 1
        topology = rng.choice(("torus", "mesh"))
        router = RouterConfig(
            kind=kind, flit_bits=rng.choice((16, 32)),
            buffer_depth=rng.randint(1, 8), num_vcs=num_vcs,
            arbiter_type=rng.choice(("matrix", "round_robin", "queuing")),
            vc_class_mode="dateline" if num_vcs % 2 == 0 and
            topology == "torus" and rng.random() < 0.5 else "none",
            cb_rows=16, cb_banks=2)
        config = NetworkConfig(
            topology=topology, width=rng.randint(2, 5),
            height=rng.randint(2, 5), router=router, link=SMALL_LINK,
            tech=SMALL_TECH, packet_length_flits=rng.randint(1, 6),
            activity_mode=rng.choice(("average", "data")))
        traffic = rng.choice(tuple(TRAFFICS))
        if config.width != config.height:
            traffic = "uniform"  # transpose needs a square fabric
        cases[f"generated[{i:02d}]"] = Case(
            config, traffic=traffic,
            rate=round(rng.uniform(0.02, 0.10), 3),
            seed=rng.randint(1, 99), warmup=rng.randint(20, 80),
            sample=rng.randint(20, 40))
    return cases


CASES = {**_matrix_cases(), **_generated_cases()}


def _run(case: Case, window: Optional[int] = None):
    """Run one case; ``window`` overrides the telemetry window (the
    ``monitor`` rows default to ``MONITOR_WINDOW``)."""
    if window is None:
        window = case.telemetry_window or (MONITOR_WINDOW if case.monitor
                                           else 0)
    topo = topology_for(case.config)
    traffic = TRAFFICS[case.traffic](topo, case.rate, seed=case.seed)
    protocol = RunProtocol(
        warmup_cycles=case.warmup, sample_packets=case.sample,
        seed=case.seed, audit_every=40,
        telemetry_window=window, watchdog_cycles=20_000, max_cycles=20_000)
    return Simulation(case.config, traffic, protocol).run()


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def monitor_digest(record) -> str:
    """sha256 of the five utilisation/occupancy figures of a run."""
    return _sha([
        record.measured_cycles,
        sorted(record.channel_utilization().items()),
        record.ejected_totals(),
        record.occupancy_means(),
        record.occupancy_peaks(),
    ])


def summarize(case: Case, result) -> dict:
    """The golden entry for one run: exact figures plus energies."""
    acc = result.accountant
    entry = {
        "status": result.status,
        "total_cycles": result.total_cycles,
        "measured_cycles": result.measured_cycles,
        "flits_injected": result.flits_injected,
        "flits_ejected": result.flits_ejected,
        "measured_flits_ejected": result.measured_flits_ejected,
        "packets_delivered": result.packets_delivered,
        "latency_sha256": _sha(result.latency.latencies),
        "events": {e: acc.event_count(e) for e in sorted(
            acc.node_counts(0))},
        "energy_j": acc.breakdown(),
        "node_energy_j": acc.spatial_map(),
    }
    record = result.telemetry
    if case.monitor:
        entry["monitor_sha256"] = monitor_digest(record)
    if case.telemetry_window:
        windows = record.windows
        entry["telemetry_sha256"] = _sha([
            [w.cycle_start, w.cycle_end, w.events, w.injected, w.ejected,
             w.occupancy] for w in windows])
        entry["telemetry_energy_j"] = {
            component: [sum(w.energy_j[component]) for w in windows]
            for component in windows[0].energy_j}
    return entry


def _close(expected: float, actual: float) -> bool:
    return abs(expected - actual) <= REL_TOL * max(abs(expected), 1e-30)


def assert_key_matches(key: str, want, got) -> None:
    if key == "energy_j":
        assert got.keys() == want.keys()
        for component, energy in want.items():
            assert _close(energy, got[component]), (
                f"{component}: golden {energy} vs {got[component]}")
    elif key == "node_energy_j":
        assert len(got) == len(want)
        for node, (w, g) in enumerate(zip(want, got)):
            assert _close(w, g), f"node {node}: golden {w} vs {g}"
    elif key == "telemetry_energy_j":
        assert got.keys() == want.keys()
        for component, series in want.items():
            assert len(got[component]) == len(series)
            for w, g in zip(series, got[component]):
                assert _close(w, g), component
    else:
        assert got == want, key


def assert_matches(expected: dict, actual: dict) -> None:
    assert actual.keys() == expected.keys()
    for key, want in expected.items():
        assert_key_matches(key, want, actual[key])


def _load() -> dict:
    return json.loads(GOLDENS.read_text())


def test_goldens_cover_every_case():
    goldens = _load()
    assert sorted(goldens) == sorted(CASES)
    assert sum(name.startswith("generated") for name in goldens) >= 24
    assert {c.config.router.kind for c in CASES.values()} == set(KINDS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_reproduces_golden(name):
    expected = _load()[name]
    case = CASES[name]
    actual = json.loads(json.dumps(summarize(case, _run(case))))
    assert_matches(expected, actual)
    assert actual["energy_j"] and sum(actual["energy_j"].values()) > 0


@pytest.mark.parametrize("window", [1, 7, 16, 100_000])
def test_monitor_digest_independent_of_window(window):
    """Windows telescope: every window size, down to one cycle and up to
    one longer than the run, reproduces the recorded digest."""
    case = CASES["monitor_under_load"]
    record = _run(case, window).telemetry
    assert record.num_windows == -(-record.measured_cycles // window)
    assert monitor_digest(record) == _load()["monitor_under_load"][
        "monitor_sha256"]


def record() -> None:
    """Re-run every case and rewrite the goldens file.  A recorded
    figure the kernel still reproduces keeps its recorded value, so the
    diff shows only new and changed figures."""
    old = _load() if GOLDENS.exists() else {}
    goldens = {}
    for name, case in sorted(CASES.items()):
        entry = json.loads(json.dumps(summarize(case, _run(case))))
        recorded = old.get(name, {})
        for key, value in entry.items():
            try:
                assert_key_matches(key, recorded[key], value)
                entry[key] = recorded[key]
            except (KeyError, AssertionError):
                pass
        goldens[name] = entry
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} entries to {GOLDENS}")


if __name__ == "__main__":
    record()

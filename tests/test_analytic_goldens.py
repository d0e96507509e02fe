"""Recorded goldens for the analytic estimator.

``tests/goldens/analytic.json`` holds, per (configuration, traffic,
rate), every field of an :func:`repro.analytic.estimate` answer except
its saturation point: latency terms, hop count, throughput, power in
total, per component and per node, and the ``is_saturated`` verdict.
Per (configuration, traffic) it also holds the
:func:`repro.analytic.estimate_saturation` answer.  The estimator must
reproduce every float to ``REL_TOL`` (a change may reorder float
arithmetic, e.g. scale a unit-rate flow matrix instead of routing at
each rate, and nothing else) and ``is_saturated`` exactly.

The estimate's own ``saturation`` is left out on purpose; the
``saturation`` entry records ``estimate_saturation`` instead, which
every estimate of the pair must equal (``tests/test_analytic.py``).

Re-record only when a change is *meant* to alter the analytic model,
never to absorb an unexplained diff::

    PYTHONPATH=src python -m tests.test_analytic_goldens
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, NamedTuple

import pytest

from repro.analytic import estimate, estimate_saturation
from repro.core.config import NetworkConfig
from repro.core.presets import PRESETS

GOLDENS = Path(__file__).parent / "goldens" / "analytic.json"
REL_TOL = 1e-12
#: Rate 0 included: no flow at all, only traffic-insensitive power.
RATES = (0.0, 0.01, 0.05, 0.12, 0.4)
TRAFFICS: Dict[str, Dict] = {
    "uniform": {},
    "transpose": {},
    "bitcomp": {},
    "tornado": {},
    "neighbor": {},
    "hotspot": {"hotspot": 5},
    "broadcast": {"source": 9},
}


def _configs() -> Dict[str, NetworkConfig]:
    configs = {name: make() for name, make in sorted(PRESETS.items())}
    vc16 = PRESETS["VC16"]()
    # Mesh edges change out-degrees (idle link power per node); the
    # speculative router and the leakage/clock extensions reach the
    # remaining event-rate and constant-power branches.
    configs["VC16_mesh"] = vc16.with_(topology="mesh")
    configs["VC16_speculative"] = vc16.with_router(kind="speculative_vc")
    configs["WH64_leak_clock"] = PRESETS["WH64"]().with_(
        include_leakage=True, include_clock=True)
    configs["CB_mesh_6x6"] = PRESETS["CB"]().with_(
        topology="mesh", width=6, height=6)
    return configs


class Case(NamedTuple):
    config: NetworkConfig
    traffic: str
    params: Dict


def _cases() -> Dict[str, Case]:
    cases = {}
    for name, config in _configs().items():
        for traffic, params in TRAFFICS.items():
            cases[f"{name}/{traffic}"] = Case(config, traffic, params)
    return cases


CASES = _cases()


def summarize(case: Case) -> dict:
    """One golden row: the saturation point, then per rate every
    estimate field but the estimate's own saturation."""
    sat = estimate_saturation(case.config, case.traffic, **case.params)
    rows = {}
    for rate in RATES:
        est = estimate(case.config, case.traffic, rate, **case.params)
        rows[repr(rate)] = {
            "avg_latency": est.avg_latency,
            "zero_load_latency": est.latency.zero_load,
            "queueing": est.latency.queueing,
            "max_channel_load": est.latency.max_channel_load,
            "avg_hops": est.avg_hops,
            "throughput_flits_per_cycle": est.throughput_flits_per_cycle,
            "total_power_w": est.total_power_w,
            "power_breakdown_w": dict(est.power_breakdown_w),
            "node_power_w": list(est.node_power_w),
            "is_saturated": est.is_saturated,
        }
    return {
        "saturation": {"rate": sat.rate,
                       "zero_load_latency": sat.zero_load_latency,
                       "throughput_bound": sat.throughput_bound},
        "rates": rows,
    }


def _close(expected: float, actual: float) -> bool:
    if expected == actual:
        return True
    if not (math.isfinite(expected) and math.isfinite(actual)):
        return False
    return abs(expected - actual) <= REL_TOL * max(abs(expected), 1e-30)


def assert_matches(expected, actual, where: str = "") -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict), where
        assert actual.keys() == expected.keys(), where
        for key, want in expected.items():
            assert_matches(want, actual[key], f"{where}/{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), \
            where
        for i, (want, got) in enumerate(zip(expected, actual)):
            assert_matches(want, got, f"{where}[{i}]")
    elif isinstance(expected, bool):
        assert actual is expected, where
    else:
        assert _close(expected, actual), (
            f"{where}: golden {expected!r} vs {actual!r}")


def _load() -> dict:
    return json.loads(GOLDENS.read_text())


def test_goldens_cover_every_case():
    goldens = _load()
    assert sorted(goldens) == sorted(CASES)
    kinds = {case.config.router.kind for case in CASES.values()}
    assert kinds == {"wormhole", "vc", "speculative_vc", "central"}
    assert all(sorted(row["rates"]) == sorted(map(repr, RATES))
               for row in goldens.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimator_reproduces_golden(name):
    actual = json.loads(json.dumps(summarize(CASES[name])))
    assert_matches(_load()[name], actual, name)


def record() -> None:
    """Re-run every case and rewrite the goldens file, one case per
    line."""
    lines = [f"{json.dumps(name)}: "
             f"{json.dumps(summarize(case), sort_keys=True)}"
             for name, case in sorted(CASES.items())]
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} entries to {GOLDENS}")


if __name__ == "__main__":
    record()

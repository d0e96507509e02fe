"""Each traffic pattern's declared flow table against its own generator.

``TrafficPattern.flows()`` is what the analytic estimator routes, so it
must be the expectation of what ``packets_at`` injects.  Every
registered kind is run on four topologies (a ring of two, an odd side
and a mesh included) and each ``(src, dst)`` count is checked against
``rate * flows()`` with a bound derived from the sample size.
"""

import math

import pytest

from repro.analytic import flow_matrix
from repro.core.presets import preset
from repro.sim.topology import Mesh, Torus
from repro.sim.traffic import make_traffic, traffic_names

TOPOLOGIES = {
    "torus4x4": Torus(4, 4),
    "torus2x4": Torus(2, 4),
    "torus3x3": Torus(3, 3),
    "mesh4x4": Mesh(4, 4),
}

#: Required parameters (node 5 exists on every topology above).
PARAMS = {"broadcast": {"source": 5}, "hotspot": {"hotspot": 5}}

#: Bursty's default duty cycle of 0.25 caps its average rate there.
RATE = {"bursty": 0.25}
DEFAULT_RATE = 0.5

SEEDS = (1, 2)
CYCLES = 15_000  # per seed

#: Standard deviations a count may stray from its expectation.  About
#: 5,000 pairs are checked, so a correct table crosses this bound by
#: chance with probability below 0.3 %.
Z = 5.0

#: Bursty arrivals are correlated over bursts (mean ON length 10
#: cycles), so its variance comes from batch means instead: batches
#: this long are independent to a good approximation.
BATCH_CYCLES = 500


def build(name, topo, rate, seed):
    return make_traffic(name, topo, rate, seed=seed, **PARAMS.get(name, {}))


def cases():
    for name in traffic_names():
        for label, topo in TOPOLOGIES.items():
            try:
                build(name, topo, 0.0, 1)
            except ValueError as exc:
                marks = pytest.mark.skip(reason=str(exc))
            else:
                marks = ()
            yield pytest.param(name, topo, id=f"{name}-{label}",
                               marks=marks)


def batch_counts(pattern, batches, length):
    """Per-pair packet counts of each consecutive ``length``-cycle
    batch: ``{pair: [count in batch 0, 1, ...]}``."""
    counts = {}
    for cycle in range(batches * length):
        for pair in pattern.packets_at(cycle):
            counts.setdefault(pair, [0] * batches)[cycle // length] += 1
    return counts


def binomial_misses(name, topo, rate):
    """Pairs whose total count strays more than ``Z`` binomial standard
    deviations from ``rate * flows()``.  Each source draws at most one
    packet per cycle, so a pair's count over ``n`` cycles is
    Binomial(n, rate * share)."""
    cycles = CYCLES * len(SEEDS)
    seen = {}
    for seed in SEEDS:
        for pair, row in batch_counts(build(name, topo, rate, seed),
                                      1, CYCLES).items():
            seen[pair] = seen.get(pair, 0) + row[0]
    table = build(name, topo, rate, SEEDS[0]).flows()
    misses = []
    for pair in set(seen) | set(table):
        p = rate * table.get(pair, 0.0)
        bound = Z * math.sqrt(cycles * p * (1.0 - p))
        if abs(seen.get(pair, 0) - cycles * p) > bound:
            misses.append((pair, seen.get(pair, 0), cycles * p, bound))
    return misses


def batch_mean_misses(name, topo, rate):
    """Pairs whose per-cycle mean strays more than ``Z`` standard errors
    from ``rate * flows()``, the standard error estimated from the
    spread of independent batch means."""
    batches = CYCLES // BATCH_CYCLES
    rows = {}
    for seed in SEEDS:
        counts = batch_counts(build(name, topo, rate, seed), batches,
                              BATCH_CYCLES)
        for pair in set(rows) | set(counts):
            rows[pair] = rows.get(pair, []) + counts.get(pair, [0] * batches)
    table = build(name, topo, rate, SEEDS[0]).flows()
    total = batches * len(SEEDS)
    misses = []
    for pair in set(rows) | set(table):
        means = [count / BATCH_CYCLES
                 for count in rows.get(pair, [0] * total)]
        mean = sum(means) / total
        spread = sum((m - mean) ** 2 for m in means) / (total - 1)
        expected = rate * table.get(pair, 0.0)
        if pair not in table or \
                abs(mean - expected) > Z * math.sqrt(spread / total):
            misses.append((pair, mean, expected))
    return misses


@pytest.mark.parametrize("name, topo", cases())
def test_generator_matches_its_flow_table(name, topo):
    rate = RATE.get(name, DEFAULT_RATE)
    check = batch_mean_misses if name == "bursty" else binomial_misses
    misses = check(name, topo, rate)
    assert not misses, misses[:5]


def test_flow_tables_are_per_unit_rate():
    """The table does not depend on the rate the pattern was built at."""
    topo = TOPOLOGIES["torus4x4"]
    for name in traffic_names():
        assert build(name, topo, 0.0, 1).flows() == \
            build(name, topo, 0.2, 1).flows(), name


def test_neighbor_load_on_a_ring_of_two():
    """On a 2x4 torus east and west are the same node: the analytic
    load still counts both draws, as the generator does."""
    config = preset("VC16").with_(width=2, height=4)
    flows = flow_matrix(config, "neighbor", 0.2)
    assert flows.injection_packets == pytest.approx(1.6)

"""Ablation: packet length.

The paper fixes packets at 5 flits ("a head flit leading 4 data
flits").  This bench varies packet length at a fixed *flit* injection
rate: longer packets amortise per-packet overheads (route computation,
VC/switch acquisition) over more flits but serialise longer at the
destination.
"""

import pytest

from repro import Orion, preset

from conftest import PROTOCOL, SAMPLE

LENGTHS = (1, 3, 5, 9)
FLIT_RATE = 0.4  # flits/cycle/node, held constant across lengths


def test_packet_length_tradeoff(benchmark):
    def collect():
        results = {}
        for length in LENGTHS:
            cfg = preset("VC16").with_(packet_length_flits=length)
            rate = FLIT_RATE / length
            results[length] = Orion(cfg).run_uniform(
                rate, PROTOCOL.with_(sample_packets=min(SAMPLE, 400)))
        return results

    results = benchmark.pedantic(collect, rounds=1, iterations=1)
    print("\n== Ablation: packet length at constant flit load ==")
    print(f"{'flits':>6} {'latency':>9} {'power':>9} {'thruput':>9}")
    for length, result in results.items():
        print(f"{length:>6} {result.avg_latency:>9.2f} "
              f"{result.total_power_w:>9.2f} "
              f"{result.throughput_flits_per_cycle:>9.2f}")
    # Longer packets take longer end-to-end (serialization) ...
    assert results[9].avg_latency > results[1].avg_latency
    # ... but power per delivered flit stays within a band: the
    # dominant per-flit datapath energies are length-independent.
    per_flit = {
        length: r.total_power_w / r.throughput_flits_per_cycle
        for length, r in results.items()
    }
    values = list(per_flit.values())
    assert max(values) < 1.6 * min(values)

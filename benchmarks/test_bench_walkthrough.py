"""Section 3.3 walkthrough: per-flit energy through a wormhole router.

Regenerates ``E_flit = E_wrt + E_arb + E_read + E_xb + E_link`` for the
walkthrough router (5 ports, 4-flit buffers, 32-bit flits, 5x5 crossbar,
4:1 arbiters) and benchmarks the power-model evaluation itself — the
hot path every simulation event takes.
"""

from repro import Orion
from repro.core.presets import walkthrough_router


def test_walkthrough_flit_energy(benchmark):
    orion = Orion(walkthrough_router())
    energies = benchmark(orion.flit_energy_walkthrough)
    print("\n== Section 3.3: head flit energy decomposition ==")
    for name, joules in energies.items():
        print(f"  {name:<8} {joules * 1e12:10.4f} pJ")
    parts = ("E_wrt", "E_arb", "E_read", "E_xb", "E_link")
    assert abs(energies["E_flit"] - sum(energies[p] for p in parts)) < 1e-18
    assert energies["E_arb"] < 0.01 * energies["E_flit"]


def test_event_energy_lookup(benchmark):
    """Per-event counting — the inner loop of power simulation (the
    counters are priced once, at flush time)."""
    orion = Orion(walkthrough_router())
    binding = orion.power_models()

    def one_flit_of_events():
        binding.buffer_write(0, 0, None)
        binding.arbitration(0, "switch", 2)
        binding.buffer_read(0)
        binding.xbar_traversal(0, 1, None)
        binding.link_traversal(0, 1, None)

    benchmark(one_flit_of_events)

"""Unit tests for the event-to-energy binding.

Routers record an event by bumping the binding's per-node counter list
and, when the flit carries a payload, handing it to ``observe()``;
``record`` below does exactly that.  The binding prices the counters
only at flush time, so these tests read energy through
``telemetry_view()`` (or the accountant after ``finalize()``).
"""

import pytest

from repro.core import events as ev
from repro.core.events import EnergyAccountant
from repro.core.config import LinkConfig
from repro.core.power_binding import NullBinding, PowerBinding

from tests.conftest import small_config


def binding(kind="wormhole", **kwargs):
    cfg = small_config(kind, **kwargs) if "activity_mode" not in kwargs \
        else small_config(kind).with_(activity_mode=kwargs["activity_mode"])
    acc = EnergyAccountant(cfg.num_nodes)
    return PowerBinding(cfg, acc), acc


#: The counter list each event bumps.
COUNTERS = {ev.BUFFER_WRITE: "n_buf_write", ev.BUFFER_READ: "n_buf_read",
            ev.XBAR_TRAVERSAL: "n_xbar", ev.LINK_TRAVERSAL: "n_link",
            ev.CB_WRITE: "n_cb_write", ev.CB_READ: "n_cb_read"}


def record(b, event, node, port=0, payload=None):
    """One event as a router records it."""
    getattr(b, COUNTERS[event])[node] += 1
    if payload is not None:
        b.observe(node, event, port, payload)


def energy(b, component):
    """Network-wide energy of one component, priced from the counters."""
    energies, _ = b.telemetry_view()
    return sum(node[component] for node in energies)


def close(value):
    """Relative comparison: energies are picojoules, far below
    ``pytest.approx``'s default absolute tolerance."""
    return pytest.approx(value, rel=1e-9, abs=0.0)


def count(b, event, node=None):
    """Occurrences of one event, network-wide or at one node."""
    _, counts = b.telemetry_view()
    if node is not None:
        return counts[node][event]
    return sum(c[event] for c in counts)


class TestAverageMode:
    def test_buffer_write_deposits_constant_energy(self):
        b, acc = binding()
        record(b, ev.BUFFER_WRITE, 3, 0)
        record(b, ev.BUFFER_WRITE, 3, 1)
        expected = 2 * b.buffer_model.write_energy()
        assert energy(b, ev.INPUT_BUFFER) == close(expected)
        assert count(b, ev.BUFFER_WRITE, node=3) == 2
        b.finalize(0, [4] * 16)
        assert acc.component_energy(ev.INPUT_BUFFER) == close(
            expected)
        assert acc.event_count(ev.BUFFER_WRITE, node=3) == 2

    def test_buffer_read_energy(self):
        b, _ = binding()
        record(b, ev.BUFFER_READ, 0)
        assert energy(b, ev.INPUT_BUFFER) == close(
            b.buffer_model.read_energy())

    def test_xbar_traversal(self):
        b, _ = binding()
        record(b, ev.XBAR_TRAVERSAL, 0, 2)
        assert energy(b, ev.CROSSBAR) == close(
            b.crossbar_model.traversal_energy())

    def test_arbitration_kinds_use_their_tables(self):
        b, _ = binding("vc")
        b.n_arb["switch"][0][3] += 1
        switch = energy(b, ev.ARBITER)
        assert switch == close(
            b.switch_arbiter_model.arbitration_energy(3))
        b.n_arb["vc"][0][2] += 1
        b.n_arb["local"][0][1] += 1
        assert count(b, ev.ARBITRATION) == 3

    def test_switch_arbitration_includes_crossbar_control(self):
        b, _ = binding()
        assert b.switch_arbiter_model.xbar_control_energy > 0
        assert b.vc_arbiter_model.xbar_control_energy == 0

    def test_unknown_arbitration_kind(self):
        """Only the router's arbiter kinds have counters: bumping any
        other kind fails loudly instead of going unpriced."""
        b, _ = binding()
        assert sorted(b.n_arb) == ["local", "switch", "vc"]
        with pytest.raises(KeyError):
            b.n_arb["psychic"][0][1] += 1

    def test_link_traversal_on_chip(self):
        b, _ = binding()
        record(b, ev.LINK_TRAVERSAL, 0, 1)
        assert energy(b, ev.LINK) == close(
            b.link_model.traversal_energy())

    def test_cb_events_only_for_central(self):
        b, _ = binding("central")
        record(b, ev.CB_WRITE, 0)
        record(b, ev.CB_READ, 0)
        expected = b.central_model.write_energy() + \
            b.central_model.read_energy()
        assert energy(b, ev.CENTRAL_BUFFER) == close(expected)

    def test_non_central_config_has_no_cb_model(self):
        b, _ = binding("wormhole")
        assert b.central_model is None


class TestDataMode:
    def test_buffer_write_uses_hamming_history(self):
        b, _ = binding(activity_mode="data")
        record(b, ev.BUFFER_WRITE, 0, 0, 0b1111)
        first = energy(b, ev.INPUT_BUFFER)
        assert first == close(b.buffer_model.write_energy())
        # Identical payload: wordline only.
        record(b, ev.BUFFER_WRITE, 0, 0, 0b1111)
        second = energy(b, ev.INPUT_BUFFER) - first
        assert second < first
        assert second == close(b.buffer_model.write_energy(1, 1))
        record(b, ev.BUFFER_WRITE, 0, 0, 0b0101)  # two bits flip
        third = energy(b, ev.INPUT_BUFFER) - first - second
        assert third == close(
            b.buffer_model.write_energy(0b1111, 0b0101))

    def test_histories_are_per_port(self):
        b, _ = binding(activity_mode="data")
        record(b, ev.BUFFER_WRITE, 0, 0, 0xFF)
        before = energy(b, ev.INPUT_BUFFER)
        # Different port: no history, falls back to its own first write.
        record(b, ev.BUFFER_WRITE, 0, 1, 0xFF)
        after = energy(b, ev.INPUT_BUFFER)
        # Same port, same data: cheap.
        record(b, ev.BUFFER_WRITE, 0, 0, 0xFF)
        cheap = energy(b, ev.INPUT_BUFFER) - after
        assert cheap < after - before

    def test_link_payload_tracking(self):
        b, _ = binding(activity_mode="data")
        record(b, ev.LINK_TRAVERSAL, 0, 1, 0b1010)
        first = energy(b, ev.LINK)
        record(b, ev.LINK_TRAVERSAL, 0, 1, 0b1010)
        # Identical payload: no wire toggles, the second flit is free.
        assert energy(b, ev.LINK) == close(first)

    def test_reset_keeps_payload_history(self):
        """The end-of-warm-up reset zeroes the counters but keeps the
        last payload on each wire: the first measured write is priced
        against it, not as a first sighting."""
        b, _ = binding(activity_mode="data")
        record(b, ev.BUFFER_WRITE, 0, 0, 0xAB)
        b.reset()
        assert energy(b, ev.INPUT_BUFFER) == 0.0
        record(b, ev.BUFFER_WRITE, 0, 0, 0xAB)
        assert energy(b, ev.INPUT_BUFFER) == close(
            b.buffer_model.write_energy(0xAB, 0xAB))

    def test_reset_run_drops_payload_history(self):
        """A brand-new run starts with empty wires: the first write is a
        first sighting, priced at the average-mode constant."""
        b, _ = binding(activity_mode="data")
        record(b, ev.BUFFER_WRITE, 0, 0, 0xAB)
        b.reset_run()
        assert energy(b, ev.INPUT_BUFFER) == 0.0
        record(b, ev.BUFFER_WRITE, 0, 0, 0xAB)
        assert energy(b, ev.INPUT_BUFFER) == close(
            b.buffer_model.write_energy())


class TestFinalize:
    def test_on_chip_finalize_adds_nothing(self):
        b, acc = binding()
        b.finalize(1000, [4] * 16)
        assert acc.total_energy() == 0.0

    def test_chip_to_chip_finalize_charges_constant_link_power(self):
        cfg = small_config("wormhole").with_(
            link=LinkConfig(kind="chip_to_chip", power_watts=3.0))
        acc = EnergyAccountant(cfg.num_nodes)
        b = PowerBinding(cfg, acc)
        cycles = 1000
        b.finalize(cycles, [4] * 16)
        per_node = 4 * 3.0 / cfg.tech.frequency_hz * cycles
        assert acc.node_energy(0)[ev.LINK] == close(per_node)
        assert acc.total_energy() == close(16 * per_node)

    def test_finalize_rejects_negative_cycles(self):
        b, _ = binding()
        with pytest.raises(ValueError):
            b.finalize(-1, [4] * 16)


class TestNullBinding:
    def test_all_methods_are_noops(self):
        cfg = small_config("central")
        nb = NullBinding(cfg)
        record(nb, ev.BUFFER_WRITE, 0, 0)
        record(nb, ev.BUFFER_READ, 0)
        record(nb, ev.XBAR_TRAVERSAL, 0, 0, 5)
        nb.n_arb["switch"][0][1] += 1
        record(nb, ev.LINK_TRAVERSAL, 0, 0)
        record(nb, ev.CB_WRITE, 0)
        record(nb, ev.CB_READ, 0)
        nb.finalize(100, [4])
        assert nb.telemetry_view() == (None, None)

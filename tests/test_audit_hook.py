"""The periodic ``audit()`` hook and the O(1) maintained counters.

``RunProtocol.audit_every`` wires :meth:`Network.audit` into the engine
loop every N cycles.  It is off by default (zero); when enabled it must
pass silently on a healthy network and raise on a genuine bookkeeping
violation — these tests corrupt a live network mid-run and check the
next audit catches it.
"""

import pytest

from repro.core.config import RunProtocol
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.topology import topology_for
from repro.sim.traffic import UniformRandomTraffic
from tests.conftest import small_config

def _simulation(audit_every, kind="vc"):
    config = small_config(kind)
    traffic = UniformRandomTraffic(topology_for(config), 0.05, seed=3)
    protocol = RunProtocol(warmup_cycles=40, sample_packets=25,
                           audit_every=audit_every)
    return Simulation(config, traffic, protocol)


def test_audit_off_by_default():
    assert RunProtocol().audit_every == 0


def test_audit_clean_run():
    result = _simulation(audit_every=5).run()
    assert result.packets_delivered > 0


def test_audit_catches_occupancy_corruption():
    """Desynchronising a router's O(1) occupancy counter from its
    buffers must be caught by the next periodic audit."""
    sim = _simulation(audit_every=1)
    network = sim.network
    original_step = network.step

    def corrupting_step():
        moved = original_step()
        if network.cycle == 30:
            network.routers[0]._buffered += 1
        return moved

    network.step = corrupting_step
    with pytest.raises(RuntimeError, match="occupancy counter"):
        sim.run()


def test_audit_catches_awaiting_counter_corruption():
    sim = _simulation(audit_every=1)
    network = sim.network
    original_step = network.step

    def corrupting_step():
        moved = original_step()
        if network.cycle == 30:
            network._awaiting += 1
        return moved

    network.step = corrupting_step
    with pytest.raises(RuntimeError, match="awaiting-injection"):
        sim.run()


def test_audit_catches_active_set_corruption():
    """A router holding buffered flits must stay enrolled in the active
    set; audit flags one evicted behind the kernel's back."""
    sim = _simulation(audit_every=1)
    network = sim.network
    original_step = network.step

    def corrupting_step():
        moved = original_step()
        if network.cycle >= 30:
            for node in sorted(network._active):
                if network.routers[node]._buffered:
                    network._active.discard(node)
                    break
        return moved

    network.step = corrupting_step
    with pytest.raises(RuntimeError, match="active set"):
        sim.run()


@pytest.mark.parametrize("kind", ["vc", "speculative_vc"])
def test_audit_catches_conflicting_switch_grants(kind):
    """Pending switch grants must form a matching: a second grant to an
    output already granted this cycle is caught by the next audit."""
    sim = _simulation(audit_every=1, kind=kind)
    network = sim.network
    original_step = network.step
    planted = []

    def corrupting_step():
        moved = original_step()
        if not planted and network.cycle >= 30:
            for router in network.routers:
                if router._st_grants:
                    in_port, in_vc, out_port, out_vc = router._st_grants[0]
                    router._st_grants.append(
                        ((in_port + 1) % router.PORTS, in_vc, out_port,
                         out_vc))
                    planted.append(router.node)
                    break
        return moved

    network.step = corrupting_step
    with pytest.raises(RuntimeError, match="not a matching"):
        sim.run()
    assert planted


def test_audit_not_called_when_disabled():
    sim = _simulation(audit_every=0)
    calls = []
    network = sim.network
    network.audit = lambda: calls.append(network.cycle)
    sim.run()
    assert calls == []


def test_awaiting_counter_tracks_queues():
    """``flits_awaiting_injection`` is a maintained O(1) counter; it must
    equal the actual source-queue population at every cycle."""
    config = small_config("wormhole")
    network = Network(config)
    traffic = UniformRandomTraffic(topology_for(config), 0.2, seed=9)
    for cycle in range(120):
        for src, dst in traffic.packets_at(cycle):
            network.create_packet(src, dst, cycle)
        network.step()
        assert network.flits_awaiting_injection == \
            sum(len(q) for q in network.source_queues)
    network.audit()

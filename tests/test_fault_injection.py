"""Failure-injection tests: the simulator's integrity guards must catch
tampering rather than silently mis-simulate."""

import pytest

from repro.core.config import RunProtocol
from repro.sim.engine import DeadlockError, Simulation
from repro.sim.message import Packet
from repro.sim.network import Network
from repro.sim.topology import LOCAL, NORTH, Torus
from repro.sim.traffic import UniformRandomTraffic

from tests.conftest import small_config

KINDS = ["wormhole", "vc", "central"]


class TestBufferIntegrity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_forged_credit_caught(self, kind):
        """A credit that was never earned, drained off the wire, must
        trip the credit-overflow guard."""
        net = Network(small_config(kind))
        router = net.routers[0]
        wire = router.out_channels[NORTH]
        with pytest.raises(RuntimeError, match="credit"):
            for cycle in range(net.config.router.buffer_depth + 1):
                wire.send_credit(0)
                router.arrival_phase(cycle)

    @pytest.mark.parametrize("kind", KINDS)
    def test_buffer_overflow_caught(self, kind):
        """Forcing flits past the buffer depth must raise, not corrupt."""
        net = Network(small_config(kind))
        router = net.routers[0]
        packet = Packet(packet_id=0, src=0, dst=4, length_flits=1,
                        creation_cycle=0, route=[NORTH, LOCAL])
        wire = router.in_channels[NORTH]
        depth = net.config.router.buffer_depth
        with pytest.raises(RuntimeError, match="overflow"):
            for cycle in range(depth * net.config.router.num_vcs + 1):
                (flit,) = packet.make_flits()
                wire.send_flit(flit)
                router.arrival_phase(cycle)


class TestOrderingIntegrity:
    def test_wormhole_rejects_headless_stream(self):
        """A body flit at the head of an unconnected input is a protocol
        violation the router must detect."""
        net = Network(small_config("wormhole"))
        router = net.routers[0]
        packet = Packet(packet_id=0, src=0, dst=4, length_flits=3,
                        creation_cycle=0, route=[NORTH, LOCAL])
        body = packet.make_flits()[1]
        router.in_channels[NORTH].send_flit(body)
        router.arrival_phase(4)
        with pytest.raises(RuntimeError, match="headed by"):
            router.work_phase(5)

    def test_vc_rejects_headless_stream(self):
        net = Network(small_config("vc"))
        router = net.routers[0]
        packet = Packet(packet_id=0, src=0, dst=4, length_flits=3,
                        creation_cycle=0, route=[NORTH, LOCAL])
        body = packet.make_flits()[1]
        router.in_channels[NORTH].send_flit(body)
        router.arrival_phase(4)  # lands on VC 0, awaiting VA
        with pytest.raises(RuntimeError, match="headed by"):
            router.work_phase(5)


class TestConservationAudit:
    @pytest.mark.parametrize("kind", KINDS)
    def test_vanished_flit_caught_by_audit(self, kind):
        """Deleting a buffered flit mid-flight must fail the audit."""
        net = Network(small_config(kind))
        net.create_packet(0, 8, 0)
        for _ in range(4):
            net.step()
        victim = None
        for router in net.routers:
            if router.buffered_flits() > 0:
                victim = router
                break
        assert victim is not None
        if kind == "vc":
            for port in victim.vcs:
                for vc in port:
                    if vc.fifo:
                        vc.fifo.popleft()
                        break
                else:
                    continue
                break
        else:
            for fifo in victim.fifos:
                if fifo:
                    fifo.popleft()
                    break
        with pytest.raises(RuntimeError, match="conservation"):
            net.audit()

    def test_duplicated_flit_caught_by_audit(self):
        net = Network(small_config("wormhole"))
        net.create_packet(0, 8, 0)
        for _ in range(4):
            net.step()
        for router in net.routers:
            for fifo in router.fifos:
                if fifo:
                    fifo.append(fifo[0])  # duplicate
                    with pytest.raises(RuntimeError,
                                       match="conservation"):
                        net.audit()
                    return
        pytest.fail("no buffered flit found to duplicate")


class TestStallDetection:
    def test_frozen_output_port_trips_watchdog(self):
        """Freezing every router's traversal machinery (a modelled hard
        fault: no downstream credit left, so no flit ever leaves a
        buffer and no credit ever comes back) is detected as a deadlock
        instead of hanging."""
        cfg = small_config("wormhole")
        traffic = UniformRandomTraffic(Torus(4), 0.05, seed=1)
        sim = Simulation(cfg, traffic, RunProtocol(
            warmup_cycles=0, sample_packets=5, watchdog_cycles=60))
        for router in sim.network.routers:
            router.out_credits = [0 if c is not None else None
                                  for c in router.out_credits]
        with pytest.raises(DeadlockError):
            sim.run()

"""Simulation engine implementing the paper's measurement protocol.

Section 4.1: "Each simulation is run for a warm-up phase of 1000 cycles
with 10,000 packets injected thereafter and the simulation continued at
the prescribed packet injection rate till these packets in the sample
space have all been received, and their average latency calculated. ...
The simulator records energy consumption of each component ... over the
entire simulation excluding the first 1000 cycles.  Average power is then
computed by multiplying the total energy by frequency and then dividing by
total simulation cycles."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import NetworkConfig, RunProtocol
from repro.core.events import EnergyAccountant
from repro.core.power_binding import NullBinding, PowerBinding
from repro.sim.network import Network
from repro.sim.stats import LatencyStats
from repro.sim.traffic import TrafficPattern


class DeadlockError(RuntimeError):
    """No flit moved for the watchdog window while traffic was pending."""


class SimulationTimeout(RuntimeError):
    """The run exceeded ``max_cycles`` before the sample drained."""


@dataclass
class SimulationResult:
    """Everything one run produces."""

    config: NetworkConfig
    avg_latency: float
    latency: LatencyStats
    sample_packets: int
    warmup_cycles: int
    measured_cycles: int
    total_cycles: int
    flits_injected: int
    flits_ejected: int
    measured_flits_ejected: int
    packets_delivered: int
    accountant: Optional[EnergyAccountant]
    #: Windowed :class:`~repro.telemetry.recorder.TelemetryRecord` —
    #: energy, traffic, channel utilisation and buffer occupancy — when
    #: the protocol's ``telemetry_window`` is non-zero.
    telemetry: Optional[object] = None
    #: How the run ended: "ok" (sample drained), or — under
    #: ``RunProtocol.on_stall="finish"`` — "stalled" (deadlock
    #: watchdog fired) or "max_cycles" (cycle limit hit).  With the
    #: default ``on_stall="raise"`` those conditions raise instead.
    status: str = "ok"

    @property
    def throughput_flits_per_cycle(self) -> float:
        """Network-wide accepted flit rate over the measured window."""
        if self.measured_cycles == 0:
            return 0.0
        return self.measured_flits_ejected / self.measured_cycles

    @property
    def total_energy_j(self) -> float:
        if self.accountant is None:
            raise ValueError("run had power collection disabled")
        return self.accountant.total_energy()

    @property
    def total_power_w(self) -> float:
        """Average network power over the measured window."""
        if self.measured_cycles == 0:
            return 0.0
        frequency = self.config.tech.frequency_hz
        return self.total_energy_j * frequency / self.measured_cycles

    def power_breakdown_w(self) -> Dict[str, float]:
        """Average power per component category (W)."""
        if self.accountant is None:
            raise ValueError("run had power collection disabled")
        if self.measured_cycles == 0:
            return {c: 0.0 for c in self.accountant.breakdown()}
        frequency = self.config.tech.frequency_hz
        scale = frequency / self.measured_cycles
        return {component: energy * scale
                for component, energy in self.accountant.breakdown().items()}

    def node_power_w(self) -> List[float]:
        """Average power per node (W) — Figure 6's spatial data."""
        if self.accountant is None:
            raise ValueError("run had power collection disabled")
        if self.measured_cycles == 0:
            return [0.0] * self.config.num_nodes
        frequency = self.config.tech.frequency_hz
        scale = frequency / self.measured_cycles
        return [energy * scale for energy in self.accountant.spatial_map()]


class SimulationContext:
    """A constructed network + power binding, reusable across runs.

    Construction of the simulation graph — topology wiring, router and
    arbiter allocation, technology and power-model precomputation — is a
    fixed cost independent of the workload.  Grid points that differ
    only in injection rate, seed or traffic pattern can therefore share
    one constructed graph: build a context once per
    :func:`structural_key` and pass it to :class:`Simulation` for each
    point.  The context resets itself (:meth:`Network.reset`) before
    every run after the first, which is bit-identical to fresh
    construction (pinned by tests/test_pool.py).

    Not safe for callers that keep ``result.accountant``: it is the
    context's live accountant, zeroed by the next reuse — such points
    must construct fresh (the worker pool gates them out).  The
    telemetry record is a plain value and survives reuse.
    """

    def __init__(self, config: NetworkConfig,
                 protocol: RunProtocol) -> None:
        self.config = config
        self.key = structural_key(config, protocol)
        self.accountant, self.binding = _power_binding(config, protocol)
        self.network = Network(config, self.binding)
        self._used = False

    def acquire(self) -> "SimulationContext":
        """Hand the context to one run, resetting first when reused."""
        if self._used:
            self.network.reset()
        self._used = True
        return self


def structural_key(config: NetworkConfig, protocol: RunProtocol) -> tuple:
    """The parts of (config, protocol) that determine graph construction.

    Everything else — seed, rate, traffic, warm-up/sample lengths,
    watchdogs, telemetry — only parameterises the run, so
    points agreeing on this key can share one
    :class:`SimulationContext`.
    """
    return (config, protocol.collect_power)


def _power_binding(config: NetworkConfig, protocol: RunProtocol):
    """The ``(accountant, binding)`` pair a run accounts energy through.

    One counting :class:`PowerBinding` serves both activity modes: it
    keeps integer event counts (plus, in data mode, observed switching
    sums) and prices them into the accountant at flush time.  Without
    power collection there is no accountant and the binding only counts.
    """
    if not protocol.collect_power:
        return None, NullBinding(config)
    accountant = EnergyAccountant(config.num_nodes)
    return accountant, PowerBinding(config, accountant)


class Simulation:
    """One network + one workload, run to the paper's completion rule."""

    def __init__(self, config: NetworkConfig, traffic: TrafficPattern,
                 protocol: Optional[RunProtocol] = None,
                 context: Optional[SimulationContext] = None) -> None:
        """``protocol`` defaults to the paper's :class:`RunProtocol`.
        ``context`` supplies a prebuilt (and reusable) network/binding
        graph in place of fresh construction; it must have been built
        for a matching :func:`structural_key`."""
        protocol = protocol or RunProtocol()
        self.protocol = protocol
        self.traffic = traffic
        self.warmup_cycles = protocol.warmup_cycles
        self.sample_packets = protocol.sample_packets
        self.max_cycles = protocol.max_cycles
        self.watchdog_cycles = protocol.watchdog_cycles
        self.audit_every = protocol.audit_every
        if context is None:
            context = SimulationContext(config, protocol)
        elif context.key != structural_key(config, protocol):
            raise ValueError(
                "simulation context was built for a different "
                "structural (config, protocol) pair"
            )
        context.acquire()
        self.accountant = context.accountant
        self.binding = context.binding
        self.network = context.network
        self.config = config
        if protocol.telemetry_window:
            from repro.telemetry import TelemetryRecorder
            self.recorder = TelemetryRecorder(
                self.network, self.binding, protocol.telemetry_window)
        else:
            self.recorder = None

    def run(self) -> SimulationResult:
        """Execute the full warm-up / sample / drain protocol."""
        network = self.network
        stats = LatencyStats()
        sample_tagged = 0
        sample_done = 0

        def on_delivered(packet) -> None:
            nonlocal sample_done
            if packet.in_sample:
                sample_done += 1
                stats.record(packet)

        network.on_packet_delivered = on_delivered
        status = "ok"
        on_stall = self.protocol.on_stall
        idle_streak = 0
        ejected_at_warmup = 0
        recorder = self.recorder
        # Wall-clock phase spans are profiled only when telemetry is on:
        # the disabled path stays free of perf_counter calls.
        profiling = recorder is not None
        span_inject = span_step = span_observe = 0.0
        if profiling:
            from time import perf_counter
        while True:
            cycle = network.cycle
            if cycle == self.warmup_cycles:
                ejected_at_warmup = network.flits_ejected
                if self.accountant is not None:
                    self.binding.reset()
                if recorder is not None:
                    recorder.begin(cycle)
            if profiling:
                t0 = perf_counter()
            for src, dst in self.traffic.packets_at(cycle):
                in_sample = (cycle >= self.warmup_cycles
                             and sample_tagged < self.sample_packets)
                if in_sample:
                    sample_tagged += 1
                network.create_packet(src, dst, cycle, in_sample)
            if profiling:
                t1 = perf_counter()
                span_inject += t1 - t0
            moved = network.step()
            if profiling:
                t2 = perf_counter()
                span_step += t2 - t1
            if self.audit_every and network.cycle % self.audit_every == 0:
                network.audit()
            if recorder is not None and cycle >= self.warmup_cycles:
                recorder.on_cycle(network.cycle)
            if profiling:
                span_observe += perf_counter() - t2
            if sample_tagged >= self.sample_packets and \
                    sample_done >= self.sample_packets:
                break
            if moved == 0 and (network.flits_in_flight > 0
                               or network.flits_awaiting_injection > 0):
                idle_streak += 1
                if idle_streak >= self.watchdog_cycles:
                    if on_stall == "raise":
                        raise DeadlockError(
                            f"no flit moved for {idle_streak} cycles at "
                            f"cycle {network.cycle} with "
                            f"{network.flits_in_flight} flits in flight"
                        )
                    status = "stalled"
                    break
            else:
                idle_streak = 0
            if network.cycle >= self.max_cycles:
                if on_stall == "raise":
                    raise SimulationTimeout(
                        f"exceeded {self.max_cycles} cycles with "
                        f"{sample_done}/{self.sample_packets} sample "
                        f"packets delivered"
                    )
                status = "max_cycles"
                break
        # Drop the delivery closure: it holds this run's state, and the
        # network stays a plain, picklable object graph.
        network.on_packet_delivered = None
        total_cycles = network.cycle
        # A stall can terminate inside warm-up; clamp so downstream
        # power math never sees a negative window.
        measured = max(0, total_cycles - self.warmup_cycles)
        if profiling:
            t0 = perf_counter()
        if self.accountant is not None:
            self.binding.finalize(measured, network.links_per_node())
        if recorder is not None:
            recorder.finalize(total_cycles)
            recorder.add_span("inject", span_inject)
            recorder.add_span("router_step", span_step)
            recorder.add_span("observe", span_observe)
            recorder.add_span("finalize", perf_counter() - t0)
        return SimulationResult(
            config=self.config,
            avg_latency=stats.average,
            latency=stats,
            sample_packets=sample_done,
            warmup_cycles=self.warmup_cycles,
            measured_cycles=measured,
            total_cycles=total_cycles,
            flits_injected=network.flits_injected,
            flits_ejected=network.flits_ejected,
            measured_flits_ejected=network.flits_ejected - ejected_at_warmup,
            packets_delivered=network.packets_delivered,
            accountant=self.accountant,
            telemetry=recorder.record if recorder is not None else None,
            status=status,
        )

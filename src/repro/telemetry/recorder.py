"""The windowed telemetry recorder and its data model.

:class:`TelemetryRecorder` is driven by the simulation engine: once at
the end of warm-up (:meth:`~TelemetryRecorder.begin`), once per
measured cycle (:meth:`~TelemetryRecorder.on_cycle`), and once at run
end (:meth:`~TelemetryRecorder.finalize`, after the power binding
deposits its traffic-insensitive energy).  At each window boundary it
reads the binding's cumulative per-node energy/event view, the
network's per-node injection/ejection counters and every channel's send
counter, and stores the deltas since the previous boundary — O(nodes +
channels) *per window* — so summed windows telescope back to the
run-end totals exactly (up to float re-summation for energies).

The only per-cycle work is buffer occupancy: each measured cycle adds
the routers' O(1) maintained ``_buffered`` counters into the window's
per-node sum and peak, visiting only the network's active set (retired
routers hold zero flits, an audited invariant).  A flit sent during
cycle *t* is exactly the flit a post-step busy scan would see after
cycle *t* (single-cycle channels drain at *t*+1), so send-count deltas
over the measured cycles are the channels' busy cycles, and channel
utilisation needs no per-cycle scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import events as ev
from repro.sim.topology import PORT_NAMES

#: Window size the CLI uses when telemetry output is requested without
#: an explicit ``--telemetry-window``.
DEFAULT_WINDOW = 100

#: Engine phases profiled into :attr:`TelemetryRecord.spans_s`.  The
#: router-step span covers the whole network step (arrival/channel
#: drain, traversal, allocation and injection are fused per cycle).
SPAN_NAMES = ("inject", "router_step", "observe", "finalize")


@dataclass
class TelemetryWindow:
    """One window's deltas: per-router × per-component/per-event.

    ``energy_j`` and ``events`` are column-major — component (or event
    kind) to a per-node list — and carry only columns with at least one
    non-zero entry.  ``occupancy`` is the flits buffered per router at
    the instant the window closed; ``occupancy_sum`` and
    ``occupancy_peak`` cover every cycle of the window.
    """

    index: int
    #: Absolute simulation cycles spanned: [cycle_start, cycle_end).
    cycle_start: int
    cycle_end: int
    energy_j: Dict[str, List[float]] = field(default_factory=dict)
    events: Dict[str, List[int]] = field(default_factory=dict)
    injected: List[int] = field(default_factory=list)
    ejected: List[int] = field(default_factory=list)
    occupancy: List[int] = field(default_factory=list)
    #: Flits sent per channel, aligned with :attr:`TelemetryRecord.channels`
    #: (empty in records written before JSONL schema 4, as are the two
    #: per-cycle occupancy columns below).
    sent: List[int] = field(default_factory=list)
    #: Per-node flits buffered, summed over the window's cycles.
    occupancy_sum: List[int] = field(default_factory=list)
    #: Per-node most flits buffered at the end of any window cycle.
    occupancy_peak: List[int] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        return self.cycle_end - self.cycle_start

    def total_energy_j(self) -> float:
        return sum(sum(col) for col in self.energy_j.values())

    def node_energy_j(self) -> List[float]:
        """Per-node energy (J) in this window."""
        n = len(self.occupancy)
        out = [0.0] * n
        for col in self.energy_j.values():
            for node, energy in enumerate(col):
                out[node] += energy
        return out


@dataclass
class TelemetryRecord:
    """A recorded run: window series plus metadata and phase spans."""

    window: int
    num_nodes: int
    width: int
    height: int
    frequency_hz: float
    warmup_cycles: int
    router_kind: str = ""
    activity_mode: str = "average"
    windows: List[TelemetryWindow] = field(default_factory=list)
    #: Wall-clock seconds per engine phase (see ``SPAN_NAMES``).
    spans_s: Dict[str, float] = field(default_factory=dict)
    #: Every channel as ``(src_node, out_port)``, in the order of the
    #: windows' ``sent`` column; ``None`` for records written before
    #: JSONL schema 4, which carry no channel or per-cycle occupancy
    #: columns.
    channels: Optional[List[Tuple[int, int]]] = None

    # --- aggregate queries (must reproduce the run-end accounting) ----------

    @property
    def num_windows(self) -> int:
        return len(self.windows)

    @property
    def measured_cycles(self) -> int:
        """Cycles covered by the recorded windows."""
        if not self.windows:
            return 0
        return self.windows[-1].cycle_end - self.windows[0].cycle_start

    def component_energy_totals(self) -> Dict[str, float]:
        """Network-wide energy (J) per component, summed over windows —
        the Figure 5c data, reproducing the accountant's breakdown."""
        totals = dict.fromkeys(ev.COMPONENTS, 0.0)
        for window in self.windows:
            for component, col in window.energy_j.items():
                totals[component] += sum(col)
        return totals

    def node_energy_totals(self) -> List[float]:
        """Per-node energy (J) summed over windows — the Figure 6 data,
        reproducing the accountant's spatial map."""
        totals = [0.0] * self.num_nodes
        for window in self.windows:
            for col in window.energy_j.values():
                for node, energy in enumerate(col):
                    totals[node] += energy
        return totals

    def event_totals(self) -> Dict[str, int]:
        """Network-wide event counts summed over windows."""
        totals = dict.fromkeys(ev.EVENT_TYPES, 0)
        for window in self.windows:
            for event, col in window.events.items():
                totals[event] += sum(col)
        return totals

    def total_energy_j(self) -> float:
        return sum(self.component_energy_totals().values())

    def power_breakdown_w(self) -> Dict[str, float]:
        """Average power per component (W) over the measured window."""
        cycles = self.measured_cycles
        if cycles == 0:
            return dict.fromkeys(ev.COMPONENTS, 0.0)
        scale = self.frequency_hz / cycles
        return {component: energy * scale for component, energy
                in self.component_energy_totals().items()}

    def total_power_w(self) -> float:
        return sum(self.power_breakdown_w().values())

    def node_power_w(self) -> List[float]:
        """Average power per node (W) over the measured window."""
        cycles = self.measured_cycles
        if cycles == 0:
            return [0.0] * self.num_nodes
        scale = self.frequency_hz / cycles
        return [energy * scale for energy in self.node_energy_totals()]

    # --- time series ---------------------------------------------------------

    def window_power_w(self) -> List[float]:
        """Total network power (W) per window — the time series."""
        out = []
        for window in self.windows:
            cycles = window.cycles
            out.append(window.total_energy_j() * self.frequency_hz / cycles
                       if cycles else 0.0)
        return out

    def _column_sums(self, name: str, width: int) -> List[int]:
        """One per-window integer column summed over the windows."""
        totals = [0] * width
        for window in self.windows:
            for i, count in enumerate(getattr(window, name)):
                totals[i] += count
        return totals

    def injected_totals(self) -> List[int]:
        """Per-node flits injected over the measured window."""
        return self._column_sums("injected", self.num_nodes)

    def ejected_totals(self) -> List[int]:
        """Per-node flits ejected over the measured window."""
        return self._column_sums("ejected", self.num_nodes)

    # --- utilisation and occupancy -------------------------------------------

    def _measured(self) -> int:
        """Measured cycles, checked to carry the per-cycle columns."""
        if self.channels is None:
            raise ValueError(
                "telemetry record has no channel or occupancy columns "
                "(written before JSONL schema 4); re-record the run")
        cycles = self.measured_cycles
        if cycles == 0:
            raise ValueError("no measured cycles recorded")
        return cycles

    def channel_utilization(self) -> Dict[Tuple[int, int], float]:
        """``(src_node, out_port) -> busy fraction`` for every channel
        over the measured cycles."""
        cycles = self._measured()
        sent = self._column_sums("sent", len(self.channels))
        return {channel: count / cycles
                for channel, count in zip(self.channels, sent)}

    def max_channel_utilization(self) -> float:
        """Utilisation of the most loaded channel (the bottleneck)."""
        return max(self.channel_utilization().values())

    def mean_channel_utilization(self) -> float:
        """Average utilisation across all channels."""
        utils = self.channel_utilization()
        return sum(utils.values()) / len(utils)

    def hottest_channels(self, count: int = 5) -> List[Tuple[str, float]]:
        """The ``count`` most utilised channels, labelled for humans."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        ranked = sorted(self.channel_utilization().items(),
                        key=lambda kv: -kv[1])[:count]
        return [(f"({node % self.width},{node // self.width}) "
                 f"{PORT_NAMES[port]}", util)
                for (node, port), util in ranked]

    def occupancy_means(self) -> List[float]:
        """Per-router mean flits buffered over the measured cycles."""
        cycles = self._measured()
        return [total / cycles for total
                in self._column_sums("occupancy_sum", self.num_nodes)]

    def occupancy_peaks(self) -> List[int]:
        """Per-router most flits buffered at the end of any measured
        cycle."""
        self._measured()
        peaks = [0] * self.num_nodes
        for window in self.windows:
            for node, buffered in enumerate(window.occupancy_peak):
                if buffered > peaks[node]:
                    peaks[node] = buffered
        return peaks


class TelemetryRecorder:
    """Accumulates a :class:`TelemetryRecord` for one simulation run."""

    def __init__(self, network, binding, window: int) -> None:
        if window < 1:
            raise ValueError(f"telemetry window must be >= 1, got {window}")
        self.network = network
        self.binding = binding
        self.window = window
        # Both live for the network's lifetime (reset clears in place).
        self._routers = network.routers
        self._active = network._active
        self._channels = [channel for router in network.routers
                          for channel in router.out_channels
                          if channel is not None]
        config = network.config
        self.record = TelemetryRecord(
            window=window,
            num_nodes=config.num_nodes,
            width=config.width,
            height=config.height,
            frequency_hz=config.tech.frequency_hz,
            warmup_cycles=0,
            router_kind=config.router.kind,
            activity_mode=config.activity_mode,
            channels=[(channel.src_node, channel.src_port)
                      for channel in self._channels],
        )
        self.spans = dict.fromkeys(SPAN_NAMES, 0.0)
        self._started = False
        self._window_start = 0
        self._prev_energy: Optional[List[Dict[str, float]]] = None
        self._prev_counts: Optional[List[Dict[str, int]]] = None
        self._prev_counters: Dict[str, List[int]] = {}
        self._occupancy_sum = [0] * config.num_nodes
        self._occupancy_peak = [0] * config.num_nodes

    # --- engine hooks --------------------------------------------------------

    def begin(self, cycle: int) -> None:
        """Start recording at the end of warm-up (after the binding
        reset, so the first window's deltas exclude warm-up energy)."""
        self._started = True
        self._window_start = cycle
        self.record.warmup_cycles = cycle
        self._prev_energy, self._prev_counts = \
            self.binding.telemetry_view()
        self._prev_counters = self._counters()

    def on_cycle(self, now: int) -> None:
        """Called once per measured cycle, after the network stepped;
        ``now`` is the count of completed cycles."""
        routers = self._routers
        occupancy_sum = self._occupancy_sum
        occupancy_peak = self._occupancy_peak
        for node in self._active:
            buffered = routers[node]._buffered
            occupancy_sum[node] += buffered
            if buffered > occupancy_peak[node]:
                occupancy_peak[node] = buffered
        if now - self._window_start >= self.window:
            self._close(now)

    def finalize(self, total_cycles: int) -> None:
        """Close the residual window after the binding's finalization
        deposits, so constant energy (idle links, leakage, clock) lands
        in the series and summed windows equal the run totals.  A run
        that ended inside warm-up keeps a record of zero windows."""
        if not self._started:
            self.record.spans_s = dict(self.spans)
            return
        if total_cycles > self._window_start or not self.record.windows:
            self._close(total_cycles)
            return
        # The last window closed exactly at run end: fold the
        # finalization deposits into it rather than emitting a
        # zero-cycle window.
        window = self.record.windows[-1]
        delta = self._delta(total_cycles, total_cycles)
        for component, col in delta.energy_j.items():
            have = window.energy_j.get(component)
            if have is None:
                window.energy_j[component] = col
            else:
                for node, energy in enumerate(col):
                    have[node] += energy
        for event, col in delta.events.items():
            have = window.events.get(event)
            if have is None:
                window.events[event] = col
            else:
                for node, count in enumerate(col):
                    have[node] += count
        self.record.spans_s = dict(self.spans)

    def add_span(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock time into one engine phase span and
        publish the spans onto the record."""
        self.spans[name] = self.spans.get(name, 0.0) + seconds
        self.record.spans_s = dict(self.spans)

    # --- window assembly -----------------------------------------------------

    def _counters(self) -> Dict[str, List[int]]:
        """Snapshot of the cumulative integer counters, by window
        column."""
        network = self.network
        return {
            "injected": list(network.node_flits_injected),
            "ejected": list(network.node_flits_ejected),
            "sent": [channel.flits_sent for channel in self._channels],
        }

    def _delta(self, start: int, end: int) -> TelemetryWindow:
        """Snapshot the cumulative views and diff against the previous
        boundary; advances the previous-snapshot state and hands the
        window's occupancy accumulators over."""
        n = self.record.num_nodes
        window = TelemetryWindow(
            index=len(self.record.windows),
            cycle_start=start,
            cycle_end=end,
        )
        energy, counts = self.binding.telemetry_view()
        if energy is not None:
            prev = self._prev_energy
            for component in ev.COMPONENTS:
                col = [energy[node].get(component, 0.0)
                       - prev[node].get(component, 0.0)
                       for node in range(n)]
                if any(col):
                    window.energy_j[component] = col
            self._prev_energy = energy
        if counts is not None:
            prev = self._prev_counts
            for event in ev.EVENT_TYPES:
                col = [counts[node].get(event, 0)
                       - prev[node].get(event, 0)
                       for node in range(n)]
                if any(col):
                    window.events[event] = col
            self._prev_counts = counts
        counters = self._counters()
        for column, now in counters.items():
            setattr(window, column, [count - base for count, base
                                     in zip(now, self._prev_counters[column])])
        self._prev_counters = counters
        window.occupancy = [router._buffered for router in self._routers]
        window.occupancy_sum = self._occupancy_sum
        window.occupancy_peak = self._occupancy_peak
        self._occupancy_sum = [0] * n
        self._occupancy_peak = [0] * n
        return window

    def _close(self, now: int) -> None:
        self.record.windows.append(self._delta(self._window_start, now))
        self._window_start = now
        self.record.spans_s = dict(self.spans)

"""Binding between simulator events and component power models.

A :class:`PowerBinding` is constructed from a :class:`NetworkConfig`: it
instantiates the right component power models, precomputes per-event
energies (for the "average" switching-activity mode), and exposes one
method per event type.  Routers call these methods as events occur; the
binding deposits joules into the shared
:class:`repro.core.events.EnergyAccountant`.

In ``activity_mode="data"`` the binding additionally tracks the last
payload seen at each buffer port, crossbar output and link, so switching
activity is the exact Hamming distance between consecutive values — the
paper's "switching activity factors delta_x are monitored and calculated
through simulation".

:class:`CounterBinding` is the fast-path variant for average mode: it
counts events per node on the hot path and converts counts to joules
once at finalization (the engine's choice whenever
``activity_mode="average"``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core import events as ev
from repro.core.config import NetworkConfig
from repro.core.events import EnergyAccountant
from repro.power.arbiter import (
    MatrixArbiterPower,
    QueuingArbiterPower,
    RoundRobinArbiterPower,
)
from repro.power.buffer import FIFOBufferPower
from repro.power.central_buffer import CentralBufferPower
from repro.power.crossbar import MatrixCrossbarPower, MuxTreeCrossbarPower
from repro.power.link import (
    BusInvertLinkPower,
    ChipToChipLinkPower,
    OnChipLinkPower,
)

_ARBITER_POWER_CLASSES = {
    "matrix": MatrixArbiterPower,
    "round_robin": RoundRobinArbiterPower,
    "queuing": QueuingArbiterPower,
}


def _arb_table(model, size: int) -> List[float]:
    """Per-arbitration energy indexed by number of active requests."""
    return [model.arbitration_energy(n) for n in range(size + 1)]


class PowerBinding:
    """Event-to-energy conversion for one network configuration."""

    def __init__(self, config: NetworkConfig,
                 accountant: EnergyAccountant) -> None:
        self.config = config
        self.accountant = accountant
        self.tech = config.tech.build()
        self.data_mode = config.activity_mode == "data"
        self._last: Dict[Tuple, Optional[int]] = {}
        rc = config.router
        ports = 5
        # --- input buffer model (one SRAM array per port) ---
        self.buffer_model = FIFOBufferPower(
            self.tech,
            depth_flits=rc.buffer_flits_per_port,
            flit_bits=rc.flit_bits,
        )
        self._e_buf_read = self.buffer_model.read_energy()
        self._e_buf_write = self.buffer_model.write_energy()
        # --- crossbar (wormhole / VC routers) ---
        if rc.crossbar_type == "matrix":
            self.crossbar_model = MatrixCrossbarPower(
                self.tech, inputs=ports, outputs=ports,
                width_bits=rc.flit_bits)
        else:
            self.crossbar_model = MuxTreeCrossbarPower(
                self.tech, inputs=ports, outputs=ports,
                width_bits=rc.flit_bits)
        self._e_xbar = self.crossbar_model.traversal_energy()
        xb_ctrl = self.crossbar_model.control_line_energy
        # --- arbiters ---
        arb_cls = _ARBITER_POWER_CLASSES[rc.arbiter_type]
        # Switch (output-port) arbiter: P-1 requesters, no u-turns.
        self.switch_arbiter_model = arb_cls(
            self.tech, requesters=ports - 1, xbar_control_energy=xb_ctrl)
        self._switch_arb = _arb_table(self.switch_arbiter_model, ports - 1)
        # VC allocator: one arbiter per output VC over (P-1)*V input VCs;
        # grants drive no crossbar control lines.
        vc_req = max(1, (ports - 1) * rc.num_vcs)
        self.vc_arbiter_model = arb_cls(
            self.tech, requesters=vc_req, xbar_control_energy=0.0)
        self._vc_arb = _arb_table(self.vc_arbiter_model, vc_req)
        # Per-input V:1 switch-allocation stage (VC routers).
        self.local_arbiter_model = arb_cls(
            self.tech, requesters=max(1, rc.num_vcs),
            xbar_control_energy=0.0)
        self._local_arb = _arb_table(self.local_arbiter_model,
                                     max(1, rc.num_vcs))
        # --- central buffer (central routers) ---
        if rc.kind == "central":
            self.central_model = CentralBufferPower(
                self.tech,
                rows=rc.cb_rows,
                banks=rc.cb_banks,
                flit_bits=rc.flit_bits,
                read_ports=rc.cb_read_ports,
                write_ports=rc.cb_write_ports,
                router_ports=ports,
            )
            self._e_cb_read = self.central_model.read_energy()
            self._e_cb_write = self.central_model.write_energy()
            # CB fabric arbiters: all P ports compete for the shared
            # memory's read/write ports.
            self.cb_arbiter_model = arb_cls(
                self.tech, requesters=ports,
                xbar_control_energy=(
                    self.central_model.input_crossbar.control_line_energy))
            self._cb_arb = _arb_table(self.cb_arbiter_model, ports)
        else:
            self.central_model = None
            self._e_cb_read = 0.0
            self._e_cb_write = 0.0
            self.cb_arbiter_model = None
            self._cb_arb = []
        # --- link ---
        if config.link.kind == "on_chip":
            link_cls = BusInvertLinkPower \
                if config.link.encoding == "bus_invert" else OnChipLinkPower
            self.link_model = link_cls(
                self.tech,
                length_mm=config.link.length_mm,
                width_bits=rc.flit_bits,
            )
        else:
            self.link_model = ChipToChipLinkPower(
                self.tech,
                power_watts=config.link.power_watts,
                width_bits=rc.flit_bits,
            )
        self._e_link = self.link_model.traversal_energy()
        self._e_link_idle = self.link_model.idle_energy_per_cycle()
        # --- static power (optional extension) ---
        if config.include_leakage:
            self._static_w = self._static_power_per_node()
        else:
            self._static_w = {}
        # --- clock power (optional extension) ---
        if config.include_clock:
            self.clock_model = self._build_clock_model()
            self._e_clock_cycle = self.clock_model.energy_per_cycle()
        else:
            self.clock_model = None
            self._e_clock_cycle = 0.0

    # --- measurement control -----------------------------------------------------

    def reset(self) -> None:
        """Zero the measurement state (called at the end of warm-up).

        Payload-tracking history (``data`` mode) survives on purpose:
        switching activity depends on the previous value on each wire,
        which the warm-up established.
        """
        self.accountant.reset()

    def reset_run(self) -> None:
        """Restore construction-time state for a brand-new run
        (simulation-context reuse): unlike :meth:`reset`, the payload
        history is dropped too — a fresh binding starts with empty
        wires."""
        self._last.clear()
        self.accountant.reset()

    # --- event sinks -----------------------------------------------------------
    # Each takes the node id plus enough context for activity tracking.

    def buffer_write(self, node: int, port: int,
                     payload: Optional[int]) -> None:
        """A flit written into an input buffer."""
        if self.data_mode and payload is not None:
            key = (node, "buf", port)
            energy = self.buffer_model.write_energy(self._last.get(key),
                                                    payload)
            self._last[key] = payload
        else:
            energy = self._e_buf_write
        self.accountant.add(node, ev.INPUT_BUFFER, ev.BUFFER_WRITE, energy)

    def buffer_read(self, node: int) -> None:
        """A flit read out of an input buffer (reads drive the full row)."""
        self.accountant.add(node, ev.INPUT_BUFFER, ev.BUFFER_READ,
                            self._e_buf_read)

    def xbar_traversal(self, node: int, out_port: int,
                       payload: Optional[int]) -> None:
        """A flit crossing the router's switch fabric."""
        if self.data_mode and payload is not None:
            key = (node, "xb", out_port)
            energy = self.crossbar_model.traversal_energy(
                self._last.get(key), payload)
            self._last[key] = payload
        else:
            energy = self._e_xbar
        self.accountant.add(node, ev.CROSSBAR, ev.XBAR_TRAVERSAL, energy)

    def arbitration(self, node: int, kind: str, num_requests: int,
                    granted: bool = True) -> None:
        """An arbitration round.

        ``kind`` selects the arbiter: ``"switch"`` (output-port switch
        arbiter, includes crossbar control energy), ``"vc"`` (VC
        allocator), ``"local"`` (per-input V:1 stage) or ``"cb"``
        (central-buffer fabric ports).
        """
        if kind == "switch":
            table, model = self._switch_arb, self.switch_arbiter_model
        elif kind == "vc":
            table, model = self._vc_arb, self.vc_arbiter_model
        elif kind == "local":
            table, model = self._local_arb, self.local_arbiter_model
        elif kind == "cb":
            table, model = self._cb_arb, self.cb_arbiter_model
        else:
            raise ValueError(f"unknown arbitration kind {kind!r}")
        if granted:
            energy = table[num_requests]
        else:
            energy = model.arbitration_energy(num_requests, granted=False)
        self.accountant.add(node, ev.ARBITER, ev.ARBITRATION, energy)

    def link_traversal(self, node: int, out_port: int,
                       payload: Optional[int]) -> None:
        """A flit leaving on an inter-router link (charged to the sender)."""
        if self.data_mode and payload is not None and \
                self.link_model.is_traffic_sensitive:
            key = (node, "link", out_port)
            energy = self.link_model.traversal_energy(
                self._last.get(key), payload)
            self._last[key] = payload
        else:
            energy = self._e_link
        self.accountant.add(node, ev.LINK, ev.LINK_TRAVERSAL, energy)

    def cb_write(self, node: int, payload: Optional[int]) -> None:
        """A flit moved into the central buffer."""
        if self.data_mode and payload is not None:
            key = (node, "cbw")
            energy = self.central_model.write_energy(self._last.get(key),
                                                     payload)
            self._last[key] = payload
        else:
            energy = self._e_cb_write
        self.accountant.add(node, ev.CENTRAL_BUFFER, ev.CB_WRITE, energy)

    def cb_read(self, node: int, payload: Optional[int]) -> None:
        """A flit moved out of the central buffer."""
        if self.data_mode and payload is not None:
            key = (node, "cbr")
            energy = self.central_model.read_energy(self._last.get(key),
                                                    payload)
            self._last[key] = payload
        else:
            energy = self._e_cb_read
        self.accountant.add(node, ev.CENTRAL_BUFFER, ev.CB_READ, energy)

    # --- telemetry access --------------------------------------------------------

    def telemetry_view(self):
        """Cumulative per-node (energies, counts) since the last reset —
        the accountant's tables here; :class:`CounterBinding` adds its
        not-yet-flushed counters.  Windowed telemetry diffs consecutive
        views, so summed windows telescope to the run totals."""
        return self.accountant.snapshot()

    # --- analytic access ---------------------------------------------------------

    def event_energies(self, requests: int = 1) -> Dict[str, float]:
        """Average-mode energy per event (joules), keyed by event kind.

        Arbitration energies are read at ``requests`` active requesters
        (1 = the uncontended case analytic models assume at low load).
        The analytic estimator multiplies these by predicted event rates
        instead of depositing them through the accountant.
        """
        def arb(table: List[float]) -> float:
            if not table:
                return 0.0
            return table[min(requests, len(table) - 1)]

        return {
            "buffer_write": self._e_buf_write,
            "buffer_read": self._e_buf_read,
            "xbar_traversal": self._e_xbar,
            "link_traversal": self._e_link,
            "switch_arb": arb(self._switch_arb),
            "vc_arb": arb(self._vc_arb),
            "local_arb": arb(self._local_arb),
            "cb_arb": arb(self._cb_arb),
            "cb_write": self._e_cb_write,
            "cb_read": self._e_cb_read,
        }

    def constant_power_w(self, links_per_node: List[int]) -> Dict[str, float]:
        """Traffic-insensitive power (watts) by component, network-wide —
        the closed-form equivalent of :meth:`finalize`: idle link power
        on every outgoing link, optional leakage, optional clock."""
        freq = self.tech.frequency_hz
        num_nodes = len(links_per_node)
        constant: Dict[str, float] = {}
        if self._e_link_idle > 0.0:
            constant[ev.LINK] = (self._e_link_idle * freq *
                                 sum(links_per_node))
        for component, watts in self._static_w.items():
            if watts > 0.0:
                constant[component] = (constant.get(component, 0.0) +
                                       watts * num_nodes)
        if self._e_clock_cycle > 0.0:
            constant[ev.CLOCK] = self._e_clock_cycle * freq * num_nodes
        return constant

    # --- static power (optional extension) ---------------------------------------

    def _static_power_per_node(self) -> Dict[str, float]:
        """Per-node leakage power (W) by component category."""
        from repro.power import leakage
        ports = 5
        rc = self.config.router
        static = {}
        buffers = ports * leakage.buffer_width_um(self.buffer_model)
        static[ev.INPUT_BUFFER] = leakage.static_power(self.tech, buffers)
        if rc.kind == "central":
            static[ev.CENTRAL_BUFFER] = leakage.static_power(
                self.tech,
                leakage.central_buffer_width_um(self.central_model))
            arb_width = 2 * leakage.arbiter_width_um(self.cb_arbiter_model)
            static[ev.CROSSBAR] = 0.0
        else:
            static[ev.CROSSBAR] = leakage.static_power(
                self.tech, leakage.crossbar_width_um(self.crossbar_model))
            arb_width = ports * leakage.arbiter_width_um(
                self.switch_arbiter_model)
            if rc.is_vc_kind:
                arb_width += ports * rc.num_vcs * \
                    leakage.arbiter_width_um(self.vc_arbiter_model)
                arb_width += ports * leakage.arbiter_width_um(
                    self.local_arbiter_model)
            static[ev.CENTRAL_BUFFER] = 0.0
        static[ev.ARBITER] = leakage.static_power(self.tech, arb_width)
        return static

    # --- clock power (optional extension) -----------------------------------------

    def _build_clock_model(self):
        """Per-router clock model: pipeline-register bits plus arbiter
        state over the router's silicon area."""
        from repro.power import area
        from repro.power.clock import ClockPower
        rc = self.config.router
        ports = 5
        stages = {"wormhole": 2, "vc": 3, "speculative_vc": 2,
                  "central": 3}[rc.kind]
        bits = ports * rc.flit_bits * stages
        bits += ports * self.switch_arbiter_model.requesters ** 2 // 2
        if rc.is_vc_kind:
            bits += ports * rc.num_vcs  # allocator state, coarse
        if rc.kind == "central":
            router_area = area.cb_router_area_um2(
                self.central_model, self.buffer_model, ports)
        else:
            router_area = area.xb_router_area_um2(
                self.buffer_model, self.crossbar_model, ports)
        return ClockPower(self.tech, registered_bits=bits,
                          area_um2=router_area)

    # --- finalization ------------------------------------------------------------

    def finalize(self, measured_cycles: int,
                 links_per_node: List[int]) -> None:
        """Deposit traffic-insensitive energy for the measured window.

        Chip-to-chip links burn constant power whether or not flits
        flow; each node is charged for its outgoing links.  When leakage
        accounting is enabled, every component is additionally charged
        its static power over the window.
        """
        if measured_cycles < 0:
            raise ValueError(
                f"measured_cycles must be >= 0, got {measured_cycles}"
            )
        window_s = measured_cycles / self.tech.frequency_hz
        if self._e_link_idle > 0.0:
            for node, degree in enumerate(links_per_node):
                energy = degree * self._e_link_idle * measured_cycles
                self.accountant.add(node, ev.LINK, ev.LINK_TRAVERSAL,
                                    energy, count=0)
        if self._static_w:
            for node in range(len(links_per_node)):
                for component, watts in self._static_w.items():
                    if watts > 0.0:
                        self.accountant.add(
                            node, component, ev.BUFFER_WRITE,
                            watts * window_s, count=0)
        if self._e_clock_cycle > 0.0:
            energy = self._e_clock_cycle * measured_cycles
            for node in range(len(links_per_node)):
                self.accountant.add(node, ev.CLOCK, ev.BUFFER_WRITE,
                                    energy, count=0)


class CounterBinding(PowerBinding):
    """Counter-based energy accounting for ``activity_mode="average"``.

    In average mode every event of one kind at one node costs the same
    precomputed energy (arbitrations vary only with the number of active
    requesters), so depositing a float per event through the accountant
    is pure overhead.  This binding instead bumps per-node integer
    counters on the hot path — arbitrations bucketed by request count
    against the precomputed per-kind tables — and converts counts to
    joules in one pass at :meth:`finalize`.

    Totals match the per-event path to within float reassociation
    (``count * e`` versus ``e`` added ``count`` times — the counter form
    is the more accurate of the two), and the accountant's event counts
    are preserved exactly.  ``data`` mode must keep the per-event path:
    its energies depend on consecutive payload Hamming distances, which
    cannot be counted ahead of time.
    """

    def __init__(self, config: NetworkConfig,
                 accountant: EnergyAccountant) -> None:
        if config.activity_mode == "data":
            raise ValueError(
                "counter-based accounting requires activity_mode="
                "'average'; data mode needs per-event payload tracking"
            )
        super().__init__(config, accountant)
        self._zero_counters()

    def _zero_counters(self) -> None:
        n = self.config.num_nodes
        if not hasattr(self, "n_buf_write"):
            # First call: allocate.  The lists are public and zeroed in
            # place afterwards so routers' hot loops may cache
            # references and bump them directly, bypassing the sink
            # method calls (see VCRouter.__init__).
            self.n_buf_write = [0] * n
            self.n_buf_read = [0] * n
            self.n_xbar = [0] * n
            self.n_link = [0] * n
            self.n_cb_write = [0] * n
            self.n_cb_read = [0] * n
            #: kind -> per-node buckets indexed by active-request count.
            self.n_arb = {
                kind: [[0] * len(table) for _ in range(n)]
                for kind, table in (("switch", self._switch_arb),
                                    ("vc", self._vc_arb),
                                    ("local", self._local_arb),
                                    ("cb", self._cb_arb))
                if table
            }
        else:
            zero = [0] * n
            self.n_buf_write[:] = zero
            self.n_buf_read[:] = zero
            self.n_xbar[:] = zero
            self.n_link[:] = zero
            self.n_cb_write[:] = zero
            self.n_cb_read[:] = zero
            for per_node in self.n_arb.values():
                for buckets in per_node:
                    for i in range(len(buckets)):
                        buckets[i] = 0
        #: Energy/count of ungranted arbitration rounds (not constant
        #: per request count in every arbiter model, so accumulated as
        #: floats — rare enough that exactness costs nothing).
        self._e_arb_other = [0.0] * n
        self._n_arb_other = [0] * n

    def reset(self) -> None:
        self._zero_counters()
        self.accountant.reset()

    def reset_run(self) -> None:
        # _zero_counters zeroes the public lists IN PLACE — router hot
        # loops hold direct references to them across resets.
        self._zero_counters()
        self._last.clear()
        self.accountant.reset()

    # --- event sinks: one integer bump each ------------------------------------

    def buffer_write(self, node: int, port: int,
                     payload: Optional[int]) -> None:
        self.n_buf_write[node] += 1

    def buffer_read(self, node: int) -> None:
        self.n_buf_read[node] += 1

    def xbar_traversal(self, node: int, out_port: int,
                       payload: Optional[int]) -> None:
        self.n_xbar[node] += 1

    def link_traversal(self, node: int, out_port: int,
                       payload: Optional[int]) -> None:
        self.n_link[node] += 1

    def cb_write(self, node: int, payload: Optional[int]) -> None:
        self.n_cb_write[node] += 1

    def cb_read(self, node: int, payload: Optional[int]) -> None:
        self.n_cb_read[node] += 1

    def arbitration(self, node: int, kind: str, num_requests: int,
                    granted: bool = True) -> None:
        if granted:
            self.n_arb[kind][node][num_requests] += 1
            return
        if kind == "switch":
            model = self.switch_arbiter_model
        elif kind == "vc":
            model = self.vc_arbiter_model
        elif kind == "local":
            model = self.local_arbiter_model
        elif kind == "cb":
            model = self.cb_arbiter_model
        else:
            raise ValueError(f"unknown arbitration kind {kind!r}")
        self._e_arb_other[node] += model.arbitration_energy(
            num_requests, granted=False)
        self._n_arb_other[node] += 1

    # --- telemetry access --------------------------------------------------------

    def _counter_contributions(self):
        """Yield ``(node, component, event, energy_j, count)`` for the
        accumulated, not-yet-flushed counters — the joule conversion
        shared by :meth:`_flush` and :meth:`telemetry_view`."""
        per_event = (
            (self.n_buf_write, ev.BUFFER_WRITE, self._e_buf_write),
            (self.n_buf_read, ev.BUFFER_READ, self._e_buf_read),
            (self.n_xbar, ev.XBAR_TRAVERSAL, self._e_xbar),
            (self.n_link, ev.LINK_TRAVERSAL, self._e_link),
            (self.n_cb_write, ev.CB_WRITE, self._e_cb_write),
            (self.n_cb_read, ev.CB_READ, self._e_cb_read),
        )
        for counts, event, energy in per_event:
            component = ev.EVENT_COMPONENT[event]
            for node, count in enumerate(counts):
                if count:
                    yield node, component, event, count * energy, count
        tables = {"switch": self._switch_arb, "vc": self._vc_arb,
                  "local": self._local_arb, "cb": self._cb_arb}
        for kind, per_node in self.n_arb.items():
            table = tables[kind]
            for node, buckets in enumerate(per_node):
                count = sum(buckets)
                if not count:
                    continue
                energy = sum(c * table[i]
                             for i, c in enumerate(buckets) if c)
                yield node, ev.ARBITER, ev.ARBITRATION, energy, count
        for node, count in enumerate(self._n_arb_other):
            if count:
                yield (node, ev.ARBITER, ev.ARBITRATION,
                       self._e_arb_other[node], count)

    def telemetry_view(self):
        """Accountant tables plus the pending counters — so windowed
        snapshots see counter-mode energy mid-run, before finalization
        flushes it."""
        energies, counts = self.accountant.snapshot()
        for node, component, event, energy, count in \
                self._counter_contributions():
            energies[node][component] += energy
            counts[node][event] += count
        return energies, counts

    # --- finalization -----------------------------------------------------------

    def _flush(self) -> None:
        """Convert the accumulated counters into accountant deposits."""
        add = self.accountant.add
        for node, component, event, energy, count in \
                self._counter_contributions():
            add(node, component, event, energy, count=count)
        self._zero_counters()

    def finalize(self, measured_cycles: int,
                 links_per_node: List[int]) -> None:
        self._flush()
        super().finalize(measured_cycles, links_per_node)


class NullBinding:
    """No-op binding for pure-performance simulation."""

    data_mode = False

    def reset(self) -> None:
        pass

    def reset_run(self) -> None:
        pass

    def buffer_write(self, node: int, port: int, payload) -> None:
        pass

    def buffer_read(self, node: int) -> None:
        pass

    def xbar_traversal(self, node: int, out_port: int, payload) -> None:
        pass

    def arbitration(self, node: int, kind: str, num_requests: int,
                    granted: bool = True) -> None:
        pass

    def link_traversal(self, node: int, out_port: int, payload) -> None:
        pass

    def cb_write(self, node: int, payload) -> None:
        pass

    def cb_read(self, node: int, payload) -> None:
        pass

    def finalize(self, measured_cycles: int, links_per_node) -> None:
        pass

    def telemetry_view(self):
        """No energy model: telemetry records traffic columns only."""
        return None, None

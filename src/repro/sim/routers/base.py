"""Shared router machinery: ports, channels and the phase protocol.

Routers are cycle-driven.  Each simulated cycle the network runs, on
every *active* router (one holding flits or with undrained channel
work) in ascending node order:

1. ``arrival_phase(cycle)`` — drain the data/credit channels written
   last cycle;
2. ``work_phase(cycle)`` — on routers holding flits: execute the switch
   traversals granted last cycle (the ST pipeline stage), then arbitrate
   for next cycle (SA, and VA for VC routers).  It returns the number
   of flits it moved (the deadlock watchdog's signal);

followed by source injection (``inject_flit``) handled by the network.
This ordering gives each pipeline stage a one-cycle latency: a grant
issued during allocation in cycle *t* is acted on during traversal in
cycle *t+1*, matching the 2-stage wormhole and 3-stage virtual-channel
pipelines of the paper (section 4.2, per the Peh-Dally router delay
model).

Every router kind moves flits and credits the same way, with no call
per flit or per event:

* arrival reads ``Channel._flit`` / ``Channel._credits`` directly and
  appends to the input buffer (:class:`FifoRouter` for the wormhole and
  central-buffer routers' one FIFO per port; the VC router keeps its own
  arrival for its allocation masks);
* traversal writes the downstream channel's ``_flit`` and the upstream
  channel's ``_credits`` directly, marking the far router's pending
  bitmask and enrolling it in the active set (what
  :meth:`Channel.send_flit` / :meth:`Channel.send_credit` spell out);
* ejection bumps the network's counters directly;
* event counts are direct bumps of the binding's counter lists
  (``n_buf_write[node] += 1``, ``n_arb[kind][node][requests] += 1``);
  only a flit carrying a payload (data mode) costs a
  ``binding.observe`` call;
* an uncontended matrix-arbiter grant is the ``_fstamp`` restamp, and a
  contended one the minimum stamp (:class:`repro.sim.arbiters.Arbiter`).

Every integrity guard stays on that path: buffer and credit overflow, a
channel already carrying a flit, u-turns, a non-head flit at an idle
input, route exhaustion and the destination check at ejection.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.core.config import NetworkConfig
from repro.core.events import BUFFER_WRITE
from repro.sim.message import Flit
from repro.sim.topology import LOCAL


class Channel:
    """A unidirectional inter-router channel with one-cycle propagation,
    plus the reverse credit wire (also one cycle, per section 4.1).

    Placing a flit (credit) on the wire marks the downstream (upstream)
    router's pending bitmask and enrols it in the network's ``active``
    set for the next cycle.  Routers do this with inline field writes;
    :meth:`send_flit` and :meth:`send_credit` are the same writes as
    methods, for callers outside the cycle loop."""

    def __init__(self, upstream: "BaseRouter", src_port: int,
                 downstream: "BaseRouter", dst_port: int,
                 active: set) -> None:
        self.src_node = upstream.node
        self.src_port = src_port
        self.dst_node = downstream.node
        self.dst_port = dst_port
        self._flit: Optional[Flit] = None
        self._credits: List[int] = []
        #: Lifetime flits placed on this wire.  A flit sent during cycle
        #: t is exactly the flit a post-step ``busy`` scan observes after
        #: cycle t (drained at t+1), so send counts reproduce per-cycle
        #: utilization scans without scanning (see TelemetryRecorder).
        self.flits_sent = 0
        self.flit_router = downstream
        self.flit_bit = 1 << dst_port
        self.credit_router = upstream
        self.credit_bit = 1 << src_port
        self.active_set = active

    def send_flit(self, flit: Flit) -> None:
        """Place a flit on the wire (at most one per cycle)."""
        if self._flit is not None:
            raise RuntimeError(
                f"channel {self.src_node}:{self.src_port}->"
                f"{self.dst_node}:{self.dst_port} already carries a flit"
            )
        self._flit = flit
        self.flits_sent += 1
        router = self.flit_router
        router._pending_in |= self.flit_bit
        self.active_set.add(router.node)

    def send_credit(self, vc: int) -> None:
        """Return one credit upstream for the given VC."""
        self._credits.append(vc)
        router = self.credit_router
        router._pending_credit |= self.credit_bit
        self.active_set.add(router.node)

    @property
    def busy(self) -> bool:
        """Whether a flit is currently in flight."""
        return self._flit is not None

    def reset(self) -> None:
        """Drop in-flight traffic and zero lifetime counters, leaving
        the notifier wiring intact (simulation-context reuse)."""
        self._flit = None
        self._credits = []
        self.flits_sent = 0


class BaseRouter:
    """Common state and wiring for all router microarchitectures."""

    PORTS = 5

    def __init__(self, node: int, config: NetworkConfig, binding) -> None:
        self.node = node
        self.config = config
        self.binding = binding
        #: Incoming channels by input port (None where no neighbour).
        self.in_channels: List[Optional[Channel]] = [None] * self.PORTS
        #: Outgoing channels by output port (None for LOCAL / no
        #: neighbour).
        self.out_channels: List[Optional[Channel]] = [None] * self.PORTS
        #: The network this router ejects into, installed at wiring.
        self.network = None
        #: Current cycle, updated at the start of each arrival phase and
        #: stamped onto arriving flits for stage-eligibility checks.
        self.now = 0
        #: Bitmask of input ports whose channel carries an undrained flit.
        self._pending_in = 0
        #: Bitmask of output ports whose channel holds undrained credits.
        self._pending_credit = 0
        #: Flits currently buffered in this router, maintained O(1) —
        #: must always equal :meth:`buffered_flits` (audited).
        self._buffered = 0
        # The binding's per-node event counters (stable, zeroed in
        # place), bumped directly by the hot loops.
        self._c_buf_write = binding.n_buf_write
        self._c_buf_read = binding.n_buf_read
        self._c_xbar = binding.n_xbar
        self._c_link = binding.n_link

    # --- wiring (done by the network) ---------------------------------------

    def connect_in(self, port: int, channel: Channel) -> None:
        if self.in_channels[port] is not None:
            raise RuntimeError(f"node {self.node} input {port} already wired")
        self.in_channels[port] = channel

    def connect_out(self, port: int, channel: Channel) -> None:
        if self.out_channels[port] is not None:
            raise RuntimeError(f"node {self.node} output {port} already wired")
        self.out_channels[port] = channel

    def set_downstream_depth(self, port: int, flits: int,
                             num_vcs: int = 1) -> None:
        """Initialise credit counters for the buffer at the far end of
        output ``port``.  Subclasses override to store the counters."""
        raise NotImplementedError

    @property
    def out_degree(self) -> int:
        """Number of outgoing inter-router links (for constant-power link
        accounting)."""
        return sum(1 for c in self.out_channels if c is not None)

    # --- the phase protocol ---------------------------------------------------

    def arrival_phase(self, cycle: int) -> None:
        """Drain channels: incoming flits into buffers, credits back."""
        raise NotImplementedError

    def work_phase(self, cycle: int) -> int:
        """Traversal then allocation; returns the flits moved."""
        raise NotImplementedError

    # --- injection (called by the network's source processes) ----------------

    def injection_space(self) -> int:
        """Free flit slots at the injection (LOCAL) input port."""
        raise NotImplementedError

    def inject_flit(self, flit: Flit) -> bool:
        """Offer one flit to the injection port; returns acceptance."""
        raise NotImplementedError

    # --- introspection ---------------------------------------------------------

    def buffered_flits(self) -> int:
        """Total flits currently buffered in this router."""
        raise NotImplementedError

    def check_invariants(self) -> None:
        """Verify maintained fast-path state against the structures it
        shadows (called by :meth:`repro.sim.network.Network.audit`).
        Subclasses with extra maintained state override and raise on
        mismatch."""

    def reset(self) -> None:
        """Restore construction-time dynamic state in place, keeping all
        wiring (channels, network and counter-list aliases).

        Subclasses extend this with their buffer/allocator state; after
        ``reset()`` the router must behave cycle-for-cycle like a freshly
        constructed one (the contract :meth:`Network.reset` builds on).
        """
        self.now = 0
        self._pending_in = 0
        self._pending_credit = 0
        self._buffered = 0


class FifoRouter(BaseRouter):
    """A router with one input FIFO per port and one credit counter per
    output — the wormhole and central-buffer routers' shared arrival,
    injection and credit mechanics."""

    def __init__(self, node: int, config: NetworkConfig, binding) -> None:
        super().__init__(node, config, binding)
        self.depth = config.router.buffer_depth
        self.fifos: List[Deque[Flit]] = [deque() for _ in range(self.PORTS)]
        #: Bitmask of input ports with a non-empty FIFO, maintained O(1).
        self._fifo_mask = 0
        #: Credits available at the downstream buffer of each output.
        #: ``None`` means unlimited (the ejection port) or un-wired.
        self.out_credits: List[Optional[int]] = [None] * self.PORTS

    def set_downstream_depth(self, port: int, flits: int,
                             num_vcs: int = 1) -> None:
        if port == LOCAL:
            raise ValueError("ejection port has unlimited credits")
        self.out_credits[port] = flits

    def arrival_phase(self, cycle: int) -> None:
        """Drain the channels the notifiers marked, in ascending port
        order, flits before credits (each port's buffer and credit
        counter are disjoint)."""
        self.now = cycle
        pending = self._pending_in
        if pending:
            self._pending_in = 0
            in_channels = self.in_channels
            fifos = self.fifos
            depth = self.depth
            node = self.node
            arrived = 0
            port = 0
            while pending:
                if pending & 1:
                    channel = in_channels[port]
                    flit = channel._flit
                    if flit is not None:
                        channel._flit = None
                        fifo = fifos[port]
                        if len(fifo) >= depth:
                            raise RuntimeError(
                                f"node {node} port {port}: buffer overflow "
                                f"— credit accounting is broken"
                            )
                        flit.arrived_cycle = cycle
                        fifo.append(flit)
                        arrived |= 1 << port
                        self._c_buf_write[node] += 1
                        if flit.payload is not None:
                            self.binding.observe(node, BUFFER_WRITE, port,
                                                 flit.payload)
                pending >>= 1
                port += 1
            if arrived:
                self._fifo_mask |= arrived
                self._buffered += arrived.bit_count()
        pending = self._pending_credit
        if pending:
            self._pending_credit = 0
            out_channels = self.out_channels
            out_credits = self.out_credits
            port = 0
            while pending:
                if pending & 1:
                    channel = out_channels[port]
                    returned = channel._credits
                    if returned:
                        channel._credits = []
                        credits = out_credits[port] + len(returned)
                        if credits > self.depth:
                            raise RuntimeError(
                                f"node {self.node} output {port}: credit "
                                f"overflow"
                            )
                        out_credits[port] = credits
                pending >>= 1
                port += 1

    def injection_space(self) -> int:
        return self.depth - len(self.fifos[LOCAL])

    def inject_flit(self, flit: Flit) -> bool:
        fifo = self.fifos[LOCAL]
        if len(fifo) >= self.depth:
            return False
        flit.arrived_cycle = self.now
        fifo.append(flit)
        self._fifo_mask |= 1 << LOCAL
        self._buffered += 1
        self._c_buf_write[self.node] += 1
        if flit.payload is not None:
            self.binding.observe(self.node, BUFFER_WRITE, LOCAL,
                                 flit.payload)
        return True

    def buffered_flits(self) -> int:
        return sum(len(f) for f in self.fifos)

    def check_invariants(self) -> None:
        mask = sum(1 << port for port, fifo in enumerate(self.fifos)
                   if fifo)
        if self._fifo_mask != mask:
            raise RuntimeError(
                f"node {self.node}: FIFO mask {self._fifo_mask:#x} "
                f"disagrees with the FIFOs ({mask:#x})")

    def reset(self) -> None:
        super().reset()
        for fifo in self.fifos:
            fifo.clear()
        self._fifo_mask = 0
        for port in range(self.PORTS):
            if self.out_credits[port] is not None:
                self.out_credits[port] = self.depth

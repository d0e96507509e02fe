"""Shared router machinery: ports, channels and the phase protocol.

Routers are cycle-driven.  Each simulated cycle the network runs, on
every *active* router (one holding flits or with undrained channel
work) in ascending node order:

1. ``arrival_phase``   — drain data/credit channels written last cycle;
2. ``work_phase``, i.e. ``traversal_phase`` — execute switch traversals
   granted last cycle (the ST pipeline stage) — then
   ``allocation_phase`` — arbitrate for next cycle (SA, and VA for VC
   routers);

followed by source injection handled by the network.  This ordering gives
each pipeline stage a one-cycle latency: a grant issued during allocation
in cycle *t* is acted on during traversal in cycle *t+1*, matching the
2-stage wormhole and 3-stage virtual-channel pipelines of the paper
(section 4.2, per the Peh-Dally router delay model).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.config import NetworkConfig
from repro.core.events import LINK_TRAVERSAL
from repro.sim.message import Flit
from repro.sim.topology import LOCAL


class Channel:
    """A unidirectional inter-router channel with one-cycle propagation,
    plus the reverse credit wire (also one cycle, per section 4.1).

    Placing a flit (credit) on the wire marks the downstream (upstream)
    router's pending bitmask and enrols it in the network's ``active``
    set for the next cycle.  Inline fields rather than a callback hook:
    the notification fires once per flit and once per credit, so the
    per-event cost is kept to a few attribute operations."""

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

    def take_flit(self) -> Optional[Flit]:
        """Remove and return the in-flight flit (receiver side)."""
        flit, self._flit = self._flit, None
        return flit

    def send_credit(self, vc: int) -> None:
        """Return one credit upstream for the given VC."""
        self._credits.append(vc)
        router = self.credit_router
        router._pending_credit |= self.credit_bit
        self.active_set.add(router.node)

    def take_credits(self) -> List[int]:
        """Drain pending credits (sender side)."""
        credits, self._credits = self._credits, []
        return credits

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
        #: Ejection callback installed by the network: ``eject(flit)``.
        self.eject: Callable[[Flit], None] = _unwired_eject
        #: Count of flits that moved this cycle (deadlock watchdog food).
        self.moved_flits = 0
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
        #: The binding's per-node link-event counters, bumped directly
        #: in ``_send`` instead of a sink-method call.
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
        """Drain channels: incoming flits into buffers, credits back.

        The channel notifiers recorded exactly which ports have work, so
        only those are touched, in ascending port order, flits before
        credits (each port's buffers and credit counters are
        disjoint)."""
        self.now = cycle
        pending = self._pending_in
        if pending:
            self._pending_in = 0
            in_channels = self.in_channels
            port = 0
            while pending:
                if pending & 1:
                    flit = in_channels[port].take_flit()
                    if flit is not None:
                        self.accept_flit(port, flit)
                pending >>= 1
                port += 1
        pending = self._pending_credit
        if pending:
            self._pending_credit = 0
            out_channels = self.out_channels
            port = 0
            while pending:
                if pending & 1:
                    for vc in out_channels[port].take_credits():
                        self.credit_return(port, vc)
                pending >>= 1
                port += 1

    def accept_flit(self, port: int, flit: Flit) -> None:
        """Store an arriving flit into the input buffer at ``port``."""
        raise NotImplementedError

    def credit_return(self, port: int, vc: int) -> None:
        """A downstream buffer slot freed up on output ``port``."""
        raise NotImplementedError

    def traversal_phase(self, cycle: int) -> None:
        """Execute the switch traversals granted last cycle."""
        raise NotImplementedError

    def allocation_phase(self, cycle: int) -> None:
        """Arbitrate resources for next cycle."""
        raise NotImplementedError

    def work_phase(self, cycle: int) -> None:
        """Traversal then allocation — the per-router work pass of the
        network's cycle loop."""
        self.traversal_phase(cycle)
        self.allocation_phase(cycle)

    # --- injection (called by the network's source processes) ----------------

    def injection_space(self) -> int:
        """Free flit slots at the injection (LOCAL) input port."""
        raise NotImplementedError

    def inject_flit(self, flit: Flit) -> bool:
        """Offer one flit to the injection port; returns acceptance."""
        if self.injection_space() <= 0:
            return False
        self.accept_flit(LOCAL, flit)
        return True

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
        wiring (channels, eject and counter-list aliases).

        Subclasses extend this with their buffer/allocator state; after
        ``reset()`` the router must behave cycle-for-cycle like a freshly
        constructed one (the contract :meth:`Network.reset` builds on).
        """
        self.moved_flits = 0
        self.now = 0
        self._pending_in = 0
        self._pending_credit = 0
        self._buffered = 0

    def _send(self, out_port: int, flit: Flit) -> None:
        """Ship a flit: eject locally or launch onto the outgoing link,
        emitting the link-traversal event."""
        self.moved_flits += 1
        if out_port == LOCAL:
            self.eject(flit)
            return
        if flit.is_head:
            flit.route_idx += 1
        channel = self.out_channels[out_port]
        if channel is None:
            raise RuntimeError(
                f"node {self.node}: no channel on output port {out_port}"
            )
        self._c_link[self.node] += 1
        if flit.payload is not None:
            self.binding.observe(self.node, LINK_TRAVERSAL, out_port,
                                 flit.payload)
        channel.send_flit(flit)


def _unwired_eject(flit: Flit) -> None:
    raise RuntimeError("router ejection callback not wired to a network")


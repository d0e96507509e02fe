"""Network assembly: routers, channels, sources and sinks.

Builds the paper's experimental fabric (section 4.1): a grid of routers
with five bidirectional ports each, single-cycle data and credit channels,
credit-based flow control, unbounded source queues at the injection ports
(source queuing counts toward latency) and immediate ejection at the
LOCAL ports.

The cycle loop is event-sparse: only routers that can do work are
stepped (see :meth:`Network.step`).  Routers eject into the network's
counters directly (see :mod:`repro.sim.routers.base`).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, List, Optional

from repro.core.config import NetworkConfig
from repro.core.power_binding import NullBinding
from repro.sim.message import Flit, Packet
from repro.sim.routers import ROUTER_CLASSES, Channel
from repro.sim.routing import RouteTable
from repro.sim.topology import OPPOSITE, Mesh, Torus


class Network:
    """A simulatable interconnection network instance."""

    def __init__(self, config: NetworkConfig, binding=None,
                 payload_seed: int = 7) -> None:
        self.config = config
        self.binding = binding if binding is not None \
            else NullBinding(config)
        if config.topology == "torus":
            self.topo = Torus(config.width, config.height)
        else:
            self.topo = Mesh(config.width, config.height)
        #: Every route of this fabric, from tables built once (they
        #: survive :meth:`reset`).
        self.routes = RouteTable(self.topo, config.tie_break)
        router_cls = ROUTER_CLASSES[config.router.kind]
        self.routers = [
            router_cls(node, config, self.binding)
            for node in range(self.topo.num_nodes)
        ]
        #: Routers that may do work next cycle.  Routers
        #: enrol via channel notifiers / injection and retire once their
        #: buffers and pending channel work drain.
        self._active: set = set()
        #: Nodes whose source queue may be non-empty (superset).
        self._pending_src: set = set()
        #: Flits sitting in source queues, maintained O(1).
        self._awaiting = 0
        self._wire()
        self.source_queues: List[Deque[Flit]] = [
            deque() for _ in range(self.topo.num_nodes)
        ]
        self.cycle = 0
        self._packet_counter = 0
        self.flits_injected = 0
        self.flits_ejected = 0
        #: Per-node injection/ejection counters (telemetry reads these;
        #: sums shadow the scalars above — see audit()).
        self.node_flits_injected: List[int] = [0] * self.topo.num_nodes
        self.node_flits_ejected: List[int] = [0] * self.topo.num_nodes
        self.packets_created = 0
        self.packets_delivered = 0
        #: Installed by the engine: called with each completed packet.
        self.on_packet_delivered: Optional[Callable[[Packet], None]] = None
        self._payload_rng = random.Random(payload_seed)
        self._track_payloads = config.activity_mode == "data"

    # --- construction -----------------------------------------------------------

    def _wire(self) -> None:
        """Create data+credit channels and initialise credit counters."""
        rc = self.config.router
        routers = self.routers
        for src, out_port, dst in self.topo.channels():
            in_port = OPPOSITE[out_port]
            channel = Channel(routers[src], out_port, routers[dst], in_port,
                              self._active)
            routers[src].connect_out(out_port, channel)
            routers[dst].connect_in(in_port, channel)
            routers[src].set_downstream_depth(
                out_port, rc.buffer_depth, rc.num_vcs)
        for router in self.routers:
            router.network = self
            # VC routers need the topology for dateline tracking.
            if hasattr(router, "topo"):
                router.topo = self.topo

    # --- simulation-context reuse ------------------------------------------------

    def reset(self, payload_seed: int = 7) -> None:
        """Restore the network to its just-constructed state in place.

        Construction of a network — wiring, router/arbiter allocation,
        technology and power-model precomputation — dominates short-run
        cost, so warm worker processes reuse one constructed graph across
        grid points.  ``reset()`` clears every piece of dynamic state
        (buffers, channels, credits, arbiter priorities, counters,
        payload RNG) while keeping all wiring and cached
        references intact; after it, a run is bit-identical to one on a
        freshly constructed network (pinned by tests/test_pool.py).
        """
        for router in self.routers:
            router.reset()
            for channel in router.out_channels:
                if channel is not None:
                    channel.reset()
        self._active.clear()
        self._pending_src.clear()
        self._awaiting = 0
        for queue in self.source_queues:
            queue.clear()
        self.cycle = 0
        self._packet_counter = 0
        self.flits_injected = 0
        self.flits_ejected = 0
        n = self.topo.num_nodes
        self.node_flits_injected[:] = [0] * n
        self.node_flits_ejected[:] = [0] * n
        self.packets_created = 0
        self.packets_delivered = 0
        self.on_packet_delivered = None
        self._payload_rng = random.Random(payload_seed)
        self.binding.reset_run()

    def deliver(self, packet: Packet) -> None:
        """Record a packet whose tail flit a router just ejected (the
        routers bump the per-flit ejection counters themselves)."""
        packet.eject_cycle = self.cycle
        self.packets_delivered += 1
        if self.on_packet_delivered is not None:
            self.on_packet_delivered(packet)

    # --- packet creation -----------------------------------------------------------

    def create_packet(self, src: int, dst: int, cycle: int,
                      in_sample: bool = False) -> Packet:
        """Create a packet, segment it and queue its flits at the source."""
        route = self.routes.route(src, dst)
        packet = Packet(
            packet_id=self._packet_counter,
            src=src,
            dst=dst,
            length_flits=self.config.packet_length_flits,
            creation_cycle=cycle,
            route=route,
            in_sample=in_sample,
        )
        self._packet_counter += 1
        self.packets_created += 1
        payloads = None
        if self._track_payloads:
            bits = self.config.router.flit_bits
            payloads = [self._payload_rng.getrandbits(bits)
                        for _ in range(packet.length_flits)]
        self.source_queues[src].extend(packet.make_flits(payloads))
        self._awaiting += packet.length_flits
        self._pending_src.add(src)
        return packet

    # --- simulation step ---------------------------------------------------------------

    def step(self) -> int:
        """Advance one cycle; returns the number of flits that moved
        (traversals plus injections — the deadlock watchdog's signal).

        Only the active set is stepped, in ascending node order.
        Routers enrol through channel notifiers (a neighbour sent a flit
        or returned a credit) and through injection; they retire once
        their buffers and pending channel work are drained, and are
        skipped entirely until something arrives for them again.
        """
        cycle = self.cycle
        routers = self.routers
        active = self._active
        stepped = [routers[node] for node in sorted(active)]
        for router in stepped:
            router.arrival_phase(cycle)
        # Traversal and allocation share one pass (``work_phase``):
        # neither stage reads any state another router's other stage
        # writes within a cycle (traversal output lands on channels
        # drained at next cycle's arrival; allocation reads only
        # router-local state; event counters and payload sites are keyed
        # by the emitting node), so per-router traverse-then-allocate
        # observes exactly what an all-traversals-then-all-allocations
        # order would.  Routers that merely drained credits this cycle
        # skip both stages.  A router retires as soon as it holds no
        # work: a later router's flit or credit re-enrols it through the
        # channel notifier, so the set ends the cycle exactly as a
        # separate retire pass would leave it.
        moved = 0
        for router in stepped:
            if router._buffered:
                moved += router.work_phase(cycle)
                if router._buffered:
                    continue
            if not (router._pending_in or router._pending_credit):
                active.discard(router.node)
        moved += self._injection_phase(cycle)
        self.cycle = cycle + 1
        return moved

    def _injection_phase(self, cycle: int) -> int:
        """Move at most one flit per node from its source queue into the
        router's injection port (one-flit-per-cycle injection channel)."""
        pending = self._pending_src
        if not pending:
            return 0
        queues = self.source_queues
        routers = self.routers
        per_node = self.node_flits_injected
        active = self._active
        injected = 0
        for node in sorted(pending):
            queue = queues[node]
            if not queue:
                pending.discard(node)
                continue
            router = routers[node]
            # Sleeping routers never ran arrival this cycle, so refresh
            # the clock before the flit is timestamped.
            router.now = cycle
            if router.inject_flit(queue[0]):
                queue.popleft()
                per_node[node] += 1
                injected += 1
                active.add(node)
                if not queue:
                    pending.discard(node)
        self.flits_injected += injected
        self._awaiting -= injected
        return injected

    # --- accounting ------------------------------------------------------------------------

    @property
    def flits_in_flight(self) -> int:
        """Flits injected into routers but not yet ejected."""
        return self.flits_injected - self.flits_ejected

    @property
    def flits_awaiting_injection(self) -> int:
        """Flits sitting in source queues — an O(1) maintained counter
        (cross-checked against the queues by :meth:`audit`)."""
        return self._awaiting

    def links_per_node(self) -> List[int]:
        """Outgoing inter-router link count per node (for constant-power
        link accounting)."""
        return [router.out_degree for router in self.routers]

    def audit(self) -> None:
        """Flit-conservation check: every injected flit is buffered, in
        flight on a channel, or ejected; the maintained counters match
        the structures they shadow; and no router holding work has
        retired from the active set.  Raises on violation."""
        buffered = sum(r.buffered_flits() for r in self.routers)
        on_wire = sum(
            1 for r in self.routers for c in r.out_channels
            if c is not None and c.busy
        )
        accounted = buffered + on_wire + self.flits_ejected
        if accounted != self.flits_injected:
            raise RuntimeError(
                f"flit conservation violated: {self.flits_injected} "
                f"injected but {accounted} accounted for "
                f"({buffered} buffered, {on_wire} on wire, "
                f"{self.flits_ejected} ejected)"
            )
        if sum(self.node_flits_injected) != self.flits_injected:
            raise RuntimeError(
                f"flit conservation violated: per-node injection counters "
                f"sum to {sum(self.node_flits_injected)} but "
                f"{self.flits_injected} flits were injected"
            )
        if sum(self.node_flits_ejected) != self.flits_ejected:
            raise RuntimeError(
                f"flit conservation violated: per-node ejection counters "
                f"sum to {sum(self.node_flits_ejected)} but "
                f"{self.flits_ejected} flits were ejected"
            )
        queued = sum(len(q) for q in self.source_queues)
        if queued != self._awaiting:
            raise RuntimeError(
                f"flit conservation violated: awaiting-injection counter "
                f"says {self._awaiting} but source queues hold {queued}"
            )
        for router in self.routers:
            actual = router.buffered_flits()
            if router._buffered != actual:
                raise RuntimeError(
                    f"flit conservation violated: node {router.node} "
                    f"occupancy counter says {router._buffered} but "
                    f"buffers hold {actual}"
                )
            router.check_invariants()
        for node, queue in enumerate(self.source_queues):
            if queue and node not in self._pending_src:
                raise RuntimeError(
                    f"active-set invariant violated: node {node} has "
                    f"queued source flits but is not pending injection"
                )
        for router in self.routers:
            if router.node in self._active:
                continue
            if (router._buffered or router._pending_in
                    or router._pending_credit):
                raise RuntimeError(
                    f"active-set invariant violated: node {router.node} "
                    f"holds work but retired from the active set"
                )

"""Wormhole router: one FIFO per input port, 2-stage pipeline (SA, ST).

This is the router of the paper's section 3.3 walkthrough and the WH64
configuration of section 4.2: a head flit arbitrates for its output port
(switch arbitration, one 4:1 arbiter per output port — no u-turns); once
granted, the input holds the output until the tail flit passes, and flits
stream through the crossbar one per cycle as downstream credits allow.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import NetworkConfig
from repro.core.events import LINK_TRAVERSAL, XBAR_TRAVERSAL
from repro.sim.arbiters import make_arbiter
from repro.sim.routers.base import FifoRouter
from repro.sim.topology import LOCAL


class WormholeRouter(FifoRouter):
    """Input-buffered wormhole router."""

    def __init__(self, node: int, config: NetworkConfig, binding) -> None:
        super().__init__(node, config, binding)
        #: Input port currently owning each output port (None = free).
        self.out_owner: List[Optional[int]] = [None] * self.PORTS
        #: Output port each input is connected to (None = idle).
        self.in_conn: List[Optional[int]] = [None] * self.PORTS
        #: Bitmasks shadowing ``out_owner`` (owned outputs) and
        #: ``in_conn`` (connected inputs), maintained O(1) so the work
        #: phase visits only live connections and waiting heads.
        self._owned = 0
        self._connected = 0
        self.arbiters = [
            make_arbiter(config.router.arbiter_type, self.PORTS)
            for _ in range(self.PORTS)
        ]
        self._c_arb_switch = binding.n_arb["switch"][node]

    def work_phase(self, cycle: int) -> int:
        """ST: stream one flit per established connection, credits
        permitting; then SA: head flits at the FIFO heads of idle inputs
        arbitrate for free output ports."""
        moved = 0
        fifos = self.fifos
        node = self.node
        owned = self._owned
        if owned:
            out_owner = self.out_owner
            out_credits = self.out_credits
            binding = self.binding
            mask = owned
            out_port = 0
            while mask:
                if mask & 1:
                    in_port = out_owner[out_port]
                    fifo = fifos[in_port]
                    credits = out_credits[out_port]
                    if fifo and fifo[0].arrived_cycle < cycle and (
                            credits is None or credits > 0):
                        if credits is not None:
                            out_credits[out_port] = credits - 1
                        flit = fifo.popleft()
                        if not fifo:
                            self._fifo_mask &= ~(1 << in_port)
                        self._buffered -= 1
                        self._c_buf_read[node] += 1
                        self._c_xbar[node] += 1
                        payload = flit.payload
                        if payload is not None:
                            binding.observe(node, XBAR_TRAVERSAL, out_port,
                                            payload)
                        channel = self.in_channels[in_port]
                        if channel is not None:
                            channel._credits.append(0)
                            upstream = channel.credit_router
                            upstream._pending_credit |= channel.credit_bit
                            channel.active_set.add(upstream.node)
                        if flit.is_tail:
                            out_owner[out_port] = None
                            self.in_conn[in_port] = None
                            owned &= ~(1 << out_port)
                            self._connected &= ~(1 << in_port)
                        moved += 1
                        if out_port == LOCAL:
                            packet = flit.packet
                            if packet.dst != node:
                                raise RuntimeError(
                                    f"flit of packet {packet.packet_id} "
                                    f"ejected at node {node}, destination "
                                    f"is {packet.dst}"
                                )
                            network = self.network
                            network.flits_ejected += 1
                            network.node_flits_ejected[node] += 1
                            if flit.is_tail:
                                network.deliver(packet)
                        else:
                            if flit.is_head:
                                flit.route_idx += 1
                            channel = self.out_channels[out_port]
                            self._c_link[node] += 1
                            if payload is not None:
                                binding.observe(node, LINK_TRAVERSAL,
                                                out_port, payload)
                            if channel._flit is not None:
                                raise RuntimeError(
                                    f"channel {channel.src_node}:"
                                    f"{channel.src_port}->{channel.dst_node}"
                                    f":{channel.dst_port} already carries "
                                    f"a flit"
                                )
                            channel._flit = flit
                            channel.flits_sent += 1
                            downstream = channel.flit_router
                            downstream._pending_in |= channel.flit_bit
                            channel.active_set.add(downstream.node)
                mask >>= 1
                out_port += 1
            self._owned = owned
        waiting = self._fifo_mask & ~self._connected
        if waiting:
            self._switch_allocation(cycle, waiting, owned)
        return moved

    def _switch_allocation(self, cycle: int, waiting: int,
                           owned: int) -> None:
        """Grant free outputs to the heads of the ``waiting`` inputs
        (idle, non-empty), one 4:1 arbitration per requested output."""
        fifos = self.fifos
        requests = None
        in_port = 0
        while waiting:
            if waiting & 1:
                head = fifos[in_port][0]
                if head.arrived_cycle < cycle:
                    if not head.is_head:
                        raise RuntimeError(
                            f"node {self.node} port {in_port}: unconnected "
                            f"input headed by a {head.ftype.name} flit"
                        )
                    try:
                        out_port = head.packet.route[head.route_idx]
                    except IndexError:
                        # Raises the route-exhaustion error.
                        out_port = head.next_output_port()
                    if out_port == in_port:
                        raise RuntimeError(
                            f"node {self.node}: u-turn on port {in_port}"
                        )
                    if not owned >> out_port & 1:
                        if requests is None:
                            requests = {out_port: [in_port]}
                        else:
                            requests.setdefault(out_port, []).append(
                                in_port)
            waiting >>= 1
            in_port += 1
        if requests is None:
            return
        for out_port, reqs in requests.items():
            arb = self.arbiters[out_port]
            st = arb._fstamp
            if st is None:
                winner = arb.grant(reqs) if len(reqs) > 1 \
                    else arb.grant_single(reqs[0])
            else:
                winner = reqs[0] if len(reqs) == 1 \
                    else min(reqs, key=st.__getitem__)
                st[winner] = arb._next
                arb._next += 1
            self._c_arb_switch[len(reqs)] += 1
            self.out_owner[out_port] = winner
            self.in_conn[winner] = out_port
            owned |= 1 << out_port
            self._connected |= 1 << winner
        self._owned = owned

    def check_invariants(self) -> None:
        super().check_invariants()
        owned = sum(1 << p for p, i in enumerate(self.out_owner)
                    if i is not None)
        connected = sum(1 << p for p, o in enumerate(self.in_conn)
                        if o is not None)
        if self._owned != owned or self._connected != connected:
            raise RuntimeError(
                f"node {self.node}: connection masks (owned="
                f"{self._owned:#x}, connected={self._connected:#x}) "
                f"disagree with the connections (owned={owned:#x}, "
                f"connected={connected:#x})")

    def reset(self) -> None:
        super().reset()
        for port in range(self.PORTS):
            self.out_owner[port] = None
            self.in_conn[port] = None
        self._owned = 0
        self._connected = 0
        for arbiter in self.arbiters:
            arbiter.reset()

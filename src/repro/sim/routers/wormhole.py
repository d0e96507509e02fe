"""Wormhole router: one FIFO per input port, 2-stage pipeline (SA, ST).

This is the router of the paper's section 3.3 walkthrough and the WH64
configuration of section 4.2: a head flit arbitrates for its output port
(switch arbitration, one 4:1 arbiter per output port — no u-turns); once
granted, the input holds the output until the tail flit passes, and flits
stream through the crossbar one per cycle as downstream credits allow.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.core.config import NetworkConfig
from repro.sim.arbiters import make_arbiter
from repro.sim.message import Flit
from repro.sim.routers.base import BaseRouter
from repro.sim.topology import LOCAL


class WormholeRouter(BaseRouter):
    """Input-buffered wormhole router."""

    def __init__(self, node: int, config: NetworkConfig, binding) -> None:
        super().__init__(node, config, binding)
        depth = config.router.buffer_depth
        self.fifos: List[Deque[Flit]] = [deque() for _ in range(self.PORTS)]
        self.depth = depth
        #: Input port currently owning each output port (None = free).
        self.out_owner: List[Optional[int]] = [None] * self.PORTS
        #: Output port each input is connected to (None = idle).
        self.in_conn: List[Optional[int]] = [None] * self.PORTS
        #: Credits available at the downstream buffer of each output.
        #: ``None`` means unlimited (the ejection port).
        self.out_credits: List[Optional[int]] = [None] * self.PORTS
        self.arbiters = [
            make_arbiter(config.router.arbiter_type, self.PORTS)
            for _ in range(self.PORTS)
        ]

    # --- wiring ------------------------------------------------------------

    def set_downstream_depth(self, port: int, flits: int,
                             num_vcs: int = 1) -> None:
        if port == LOCAL:
            raise ValueError("ejection port has unlimited credits")
        self.out_credits[port] = flits

    # --- arrivals ------------------------------------------------------------

    def accept_flit(self, port: int, flit: Flit) -> None:
        fifo = self.fifos[port]
        if len(fifo) >= self.depth:
            raise RuntimeError(
                f"node {self.node} port {port}: buffer overflow — credit "
                f"accounting is broken"
            )
        flit.arrived_cycle = self.now
        fifo.append(flit)
        self._buffered += 1
        self.binding.buffer_write(self.node, port, flit.payload)

    def credit_return(self, port: int, vc: int) -> None:
        if self.out_credits[port] is None:
            raise RuntimeError(
                f"node {self.node}: credit on un-wired output {port}"
            )
        self.out_credits[port] += 1
        if self.out_credits[port] > self.depth:
            raise RuntimeError(
                f"node {self.node} output {port}: credit overflow"
            )

    # --- pipeline stages ---------------------------------------------------------

    def traversal_phase(self, cycle: int) -> None:
        """ST: stream one flit per established connection, credits
        permitting."""
        for out_port in range(self.PORTS):
            in_port = self.out_owner[out_port]
            if in_port is None:
                continue
            fifo = self.fifos[in_port]
            if not fifo or fifo[0].arrived_cycle >= cycle:
                continue
            credits = self.out_credits[out_port]
            if out_port != LOCAL and credits is not None and credits <= 0:
                continue
            flit = fifo.popleft()
            self._buffered -= 1
            self.binding.buffer_read(self.node)
            self.binding.xbar_traversal(self.node, out_port, flit.payload)
            if out_port != LOCAL and credits is not None:
                self.out_credits[out_port] = credits - 1
            channel = self.in_channels[in_port]
            if channel is not None:
                channel.send_credit(0)
            if flit.is_tail:
                self.out_owner[out_port] = None
                self.in_conn[in_port] = None
            self._send(out_port, flit)

    def allocation_phase(self, cycle: int) -> None:
        """SA: head flits at FIFO heads arbitrate for free output ports."""
        # Gather requests per free output port.
        requests: List[List[int]] = [[] for _ in range(self.PORTS)]
        for in_port in range(self.PORTS):
            if self.in_conn[in_port] is not None:
                continue
            fifo = self.fifos[in_port]
            if not fifo or fifo[0].arrived_cycle >= cycle:
                continue
            head = fifo[0]
            if not head.is_head:
                raise RuntimeError(
                    f"node {self.node} port {in_port}: unconnected input "
                    f"headed by a {head.ftype.name} flit"
                )
            out_port = head.next_output_port()
            if out_port == in_port:
                raise RuntimeError(
                    f"node {self.node}: u-turn on port {in_port}"
                )
            if self.out_owner[out_port] is None:
                requests[out_port].append(in_port)
        for out_port, reqs in enumerate(requests):
            if not reqs:
                continue
            if len(reqs) == 1:
                winner = self.arbiters[out_port].grant_single(reqs[0])
            else:
                winner = self.arbiters[out_port].grant(reqs)
            self.binding.arbitration(self.node, "switch", len(reqs))
            self.out_owner[out_port] = winner
            self.in_conn[winner] = out_port

    # --- injection / introspection -------------------------------------------------

    def injection_space(self) -> int:
        return self.depth - len(self.fifos[LOCAL])

    def buffered_flits(self) -> int:
        return sum(len(f) for f in self.fifos)

    def reset(self) -> None:
        super().reset()
        for fifo in self.fifos:
            fifo.clear()
        for port in range(self.PORTS):
            self.out_owner[port] = None
            self.in_conn[port] = None
            if self.out_credits[port] is not None:
                self.out_credits[port] = self.depth
        for arbiter in self.arbiters:
            arbiter.reset()

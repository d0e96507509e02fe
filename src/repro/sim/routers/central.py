"""Central-buffered router (paper section 4.4).

A shared central buffer forwards flits between input and output ports, as
in the IBM SP/2 and InfiniBand switches [19, 8].  Flits drain from
per-port input FIFOs through an input crossbar into the shared memory
(limited by its write ports), queue there per output port, and leave
through an output crossbar (limited by its read ports).  Because flits
rest in per-output queues rather than a single input FIFO, packets from
the same input port "need not line up behind one another if they are
destined for different output ports" — no head-of-line blocking — at the
cost of a fabric with fewer ports (2 read + 2 write versus the crossbar's
5).

Pipeline: write allocation -> central-buffer write -> read allocation ->
central-buffer read, with allocations overlapped so a flit spends three
cycles in an empty router — the same depth as the VC router's three
stages, keeping the section 4.4 comparison fair.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.core.config import NetworkConfig
from repro.core.events import CB_READ, CB_WRITE, LINK_TRAVERSAL
from repro.sim.arbiters import make_arbiter
from repro.sim.message import Flit
from repro.sim.routers.base import FifoRouter
from repro.sim.topology import LOCAL


class CentralBufferRouter(FifoRouter):
    """Shared-memory (central-buffered) router."""

    def __init__(self, node: int, config: NetworkConfig, binding) -> None:
        super().__init__(node, config, binding)
        rc = config.router
        self.capacity = rc.cb_capacity_flits
        self.write_ports = rc.cb_write_ports
        self.read_ports = rc.cb_read_ports
        #: Per-output queues of packet records inside the central buffer;
        #: a record is the deque of one packet's flits written so far and
        #: not yet read, and leaves its queue when its tail is read.
        self.out_queues: List[Deque[Deque[Flit]]] = [
            deque() for _ in range(self.PORTS)
        ]
        #: Bitmask of outputs with a non-empty queue, maintained O(1).
        self._queued = 0
        #: Per input port, the record still awaiting its packet's tail.
        #: A packet's flits cross one link contiguously (every upstream
        #: router holds an output for a whole packet), so one open
        #: record per input suffices.
        self._open: List[Optional[Deque[Flit]]] = [None] * self.PORTS
        self.occupancy = 0
        self.write_arbiter = make_arbiter(rc.arbiter_type, self.PORTS)
        self.read_arbiter = make_arbiter(rc.arbiter_type, self.PORTS)
        self._write_grants: List[int] = []
        self._read_grants: List[int] = []
        self._c_cb_write = binding.n_cb_write
        self._c_cb_read = binding.n_cb_read
        self._c_arb_cb = binding.n_arb["cb"][node]

    def work_phase(self, cycle: int) -> int:
        """Execute last cycle's read and write grants, then grant next
        cycle's."""
        moved = 0
        node = self.node
        binding = self.binding
        reads = self._read_grants
        if reads:
            self._read_grants = []
            out_queues = self.out_queues
            for out_port in reads:
                queue = out_queues[out_port]
                flit = queue[0].popleft()
                self.occupancy -= 1
                self._buffered -= 1
                self._c_cb_read[node] += 1
                payload = flit.payload
                if payload is not None:
                    binding.observe(node, CB_READ, 0, payload)
                if flit.is_tail:
                    queue.popleft()
                    if not queue:
                        self._queued &= ~(1 << out_port)
                moved += 1
                if out_port == LOCAL:
                    packet = flit.packet
                    if packet.dst != node:
                        raise RuntimeError(
                            f"flit of packet {packet.packet_id} ejected at "
                            f"node {node}, destination is {packet.dst}"
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
                        binding.observe(node, LINK_TRAVERSAL, out_port,
                                        payload)
                    if channel._flit is not None:
                        raise RuntimeError(
                            f"channel {channel.src_node}:{channel.src_port}"
                            f"->{channel.dst_node}:{channel.dst_port} "
                            f"already carries a flit"
                        )
                    channel._flit = flit
                    channel.flits_sent += 1
                    downstream = channel.flit_router
                    downstream._pending_in |= channel.flit_bit
                    channel.active_set.add(downstream.node)
        writes = self._write_grants
        if writes:
            self._write_grants = []
            fifos = self.fifos
            opened = self._open
            for in_port in writes:
                fifo = fifos[in_port]
                flit = fifo.popleft()
                if not fifo:
                    self._fifo_mask &= ~(1 << in_port)
                self._c_buf_read[node] += 1
                self._c_cb_write[node] += 1
                if flit.payload is not None:
                    binding.observe(node, CB_WRITE, 0, flit.payload)
                self.occupancy += 1
                moved += 1
                channel = self.in_channels[in_port]
                if channel is not None:
                    channel._credits.append(0)
                    upstream = channel.credit_router
                    upstream._pending_credit |= channel.credit_bit
                    channel.active_set.add(upstream.node)
                if flit.is_head:
                    try:
                        out_port = flit.packet.route[flit.route_idx]
                    except IndexError:
                        # Raises the route-exhaustion error.
                        out_port = flit.next_output_port()
                    record = deque()
                    self.out_queues[out_port].append(record)
                    self._queued |= 1 << out_port
                    if not flit.is_tail:
                        opened[in_port] = record
                else:
                    record = opened[in_port]
                    if flit.is_tail:
                        opened[in_port] = None
                record.append(flit)
        # Grant next cycle's reads (at most one flit per output,
        # ``read_ports`` in all, credits permitting) and writes (at most
        # one flit per input, ``write_ports`` in all, capacity
        # permitting).
        queued = self._queued
        if queued:
            out_queues = self.out_queues
            out_credits = self.out_credits
            candidates = []
            out_port = 0
            while queued:
                if queued & 1 and out_queues[out_port][0]:
                    credits = out_credits[out_port]
                    if credits is None or credits > 0:
                        candidates.append(out_port)
                queued >>= 1
                out_port += 1
            if candidates:
                arb = self.read_arbiter
                st = arb._fstamp
                for _ in range(self.read_ports):
                    if st is None:
                        winner = arb.grant(candidates) \
                            if len(candidates) > 1 \
                            else arb.grant_single(candidates[0])
                    else:
                        winner = candidates[0] if len(candidates) == 1 \
                            else min(candidates, key=st.__getitem__)
                        st[winner] = arb._next
                        arb._next += 1
                    self._c_arb_cb[len(candidates)] += 1
                    candidates.remove(winner)
                    credits = out_credits[winner]
                    if credits is not None:
                        out_credits[winner] = credits - 1
                    self._read_grants.append(winner)
                    if not candidates:
                        break
        budget = self.capacity - self.occupancy
        waiting = self._fifo_mask
        if waiting and budget > 0:
            fifos = self.fifos
            candidates = []
            in_port = 0
            while waiting:
                if waiting & 1 and fifos[in_port][0].arrived_cycle < cycle:
                    candidates.append(in_port)
                waiting >>= 1
                in_port += 1
            if candidates:
                arb = self.write_arbiter
                st = arb._fstamp
                for _ in range(self.write_ports):
                    if st is None:
                        winner = arb.grant(candidates) \
                            if len(candidates) > 1 \
                            else arb.grant_single(candidates[0])
                    else:
                        winner = candidates[0] if len(candidates) == 1 \
                            else min(candidates, key=st.__getitem__)
                        st[winner] = arb._next
                        arb._next += 1
                    self._c_arb_cb[len(candidates)] += 1
                    candidates.remove(winner)
                    self._write_grants.append(winner)
                    budget -= 1
                    if not candidates or budget <= 0:
                        break
        return moved

    def buffered_flits(self) -> int:
        return super().buffered_flits() + self.occupancy

    def check_invariants(self) -> None:
        super().check_invariants()
        queued = sum(1 << p for p, q in enumerate(self.out_queues) if q)
        if self._queued != queued:
            raise RuntimeError(
                f"node {self.node}: queued-output mask {self._queued:#x} "
                f"disagrees with the output queues ({queued:#x})")

    def reset(self) -> None:
        super().reset()
        for queue in self.out_queues:
            queue.clear()
        self._queued = 0
        for port in range(self.PORTS):
            self._open[port] = None
        self.occupancy = 0
        self.write_arbiter.reset()
        self.read_arbiter.reset()
        self._write_grants = []
        self._read_grants = []

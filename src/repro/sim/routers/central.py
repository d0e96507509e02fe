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
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.config import NetworkConfig
from repro.sim.arbiters import make_arbiter
from repro.sim.message import Flit
from repro.sim.routers.base import BaseRouter
from repro.sim.topology import LOCAL


class _PacketRecord:
    """A packet's flits resting in the central buffer for one output."""

    __slots__ = ("flits", "tail_seen")

    def __init__(self) -> None:
        self.flits: Deque[Flit] = deque()
        self.tail_seen = False


class CentralBufferRouter(BaseRouter):
    """Shared-memory (central-buffered) router."""

    def __init__(self, node: int, config: NetworkConfig, binding) -> None:
        super().__init__(node, config, binding)
        rc = config.router
        self.depth = rc.buffer_depth
        self.capacity = rc.cb_capacity_flits
        self.write_ports = rc.cb_write_ports
        self.read_ports = rc.cb_read_ports
        self.fifos: List[Deque[Flit]] = [deque() for _ in range(self.PORTS)]
        #: Per-output queues of packet records inside the central buffer.
        self.out_queues: List[Deque[_PacketRecord]] = [
            deque() for _ in range(self.PORTS)
        ]
        #: Open records (tail not yet written), by packet id.
        self._open_records: Dict[int, _PacketRecord] = {}
        self.occupancy = 0
        self.out_credits: List[Optional[int]] = [None] * self.PORTS
        self.write_arbiter = make_arbiter(rc.arbiter_type, self.PORTS)
        self.read_arbiter = make_arbiter(rc.arbiter_type, self.PORTS)
        self._write_grants: List[int] = []
        self._read_grants: List[int] = []

    # --- wiring ---------------------------------------------------------------

    def set_downstream_depth(self, port: int, flits: int,
                             num_vcs: int = 1) -> None:
        if port == LOCAL:
            raise ValueError("ejection port has unlimited credits")
        self.out_credits[port] = flits

    # --- arrivals ----------------------------------------------------------------

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

    # --- pipeline ----------------------------------------------------------------

    def traversal_phase(self, cycle: int) -> None:
        """Execute last cycle's read and write grants."""
        reads, self._read_grants = self._read_grants, []
        for out_port in reads:
            queue = self.out_queues[out_port]
            record = queue[0]
            flit = record.flits.popleft()
            self.occupancy -= 1
            self._buffered -= 1
            self.binding.cb_read(self.node, flit.payload)
            if flit.is_tail:
                queue.popleft()
            self._send(out_port, flit)
        writes, self._write_grants = self._write_grants, []
        for in_port in writes:
            fifo = self.fifos[in_port]
            flit = fifo.popleft()
            self.binding.buffer_read(self.node)
            self.binding.cb_write(self.node, flit.payload)
            self.occupancy += 1
            self.moved_flits += 1
            channel = self.in_channels[in_port]
            if channel is not None:
                channel.send_credit(0)
            pid = flit.packet.packet_id
            if flit.is_head:
                record = _PacketRecord()
                out_port = flit.next_output_port()
                self.out_queues[out_port].append(record)
                if not flit.is_tail:
                    self._open_records[pid] = record
            else:
                record = self._open_records[pid]
            record.flits.append(flit)
            if flit.is_tail:
                record.tail_seen = True
                self._open_records.pop(pid, None)

    def allocation_phase(self, cycle: int) -> None:
        """Grant next cycle's central-buffer reads and writes."""
        # Read allocation: at most one flit per output port, at most
        # read_ports flits total, credits permitting.
        candidates = []
        for out_port in range(self.PORTS):
            queue = self.out_queues[out_port]
            if not queue or not queue[0].flits:
                continue
            credits = self.out_credits[out_port]
            if out_port != LOCAL and credits is not None and credits <= 0:
                continue
            candidates.append(out_port)
        for _ in range(self.read_ports):
            if not candidates:
                break
            if len(candidates) == 1:
                winner = self.read_arbiter.grant_single(candidates[0])
            else:
                winner = self.read_arbiter.grant(candidates)
            self.binding.arbitration(self.node, "cb", len(candidates))
            candidates.remove(winner)
            credits = self.out_credits[winner]
            if winner != LOCAL and credits is not None:
                self.out_credits[winner] = credits - 1
            self._read_grants.append(winner)
        # Write allocation: at most one flit per input port, at most
        # write_ports flits total, capacity permitting.
        budget = self.capacity - self.occupancy
        candidates = [p for p in range(self.PORTS)
                      if self.fifos[p]
                      and self.fifos[p][0].arrived_cycle < cycle]
        for _ in range(self.write_ports):
            if not candidates or budget <= 0:
                break
            if len(candidates) == 1:
                winner = self.write_arbiter.grant_single(candidates[0])
            else:
                winner = self.write_arbiter.grant(candidates)
            self.binding.arbitration(self.node, "cb", len(candidates))
            candidates.remove(winner)
            budget -= 1
            self._write_grants.append(winner)

    # --- injection / introspection ----------------------------------------------------

    def injection_space(self) -> int:
        return self.depth - len(self.fifos[LOCAL])

    def buffered_flits(self) -> int:
        return sum(len(f) for f in self.fifos) + self.occupancy

    def reset(self) -> None:
        super().reset()
        for fifo in self.fifos:
            fifo.clear()
        for queue in self.out_queues:
            queue.clear()
        self._open_records.clear()
        self.occupancy = 0
        for port in range(self.PORTS):
            if self.out_credits[port] is not None:
                self.out_credits[port] = self.depth
        self.write_arbiter.reset()
        self.read_arbiter.reset()
        self._write_grants = []
        self._read_grants = []

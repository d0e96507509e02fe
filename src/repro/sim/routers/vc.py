"""Virtual-channel router: 3-stage pipeline (VA, SA, ST).

The VC16/VC64/VC128 configurations of section 4.2 and the XB router of
section 4.4.  Each input port holds ``num_vcs`` virtual channels of
``buffer_depth`` flits, all stored in one SRAM array per port (so buffer
power follows the *total* per-port flit count).  Head flits first acquire
an output virtual channel (VA), then flits compete cycle-by-cycle for the
crossbar in two separable stages (a V:1 stage per input port and a 4:1
stage per output port), and finally traverse the switch (ST) — the
three-stage pipeline prescribed by the Peh-Dally delay model [15].

Deadlock freedom on tori comes either from the routing tie-break (see
:mod:`repro.sim.routing`) or, for ``vc_class_mode="dateline"``, from
splitting the VCs of each ring channel into before/after-dateline
classes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.config import NetworkConfig
from repro.core.events import BUFFER_WRITE, LINK_TRAVERSAL, XBAR_TRAVERSAL
from repro.sim.arbiters import make_arbiter
from repro.sim.message import Flit
from repro.sim.routers.base import BaseRouter
from repro.sim.topology import LOCAL, NORTH, SOUTH


_LOWBIT_TABLES: Dict[int, List[int]] = {}


def _lowbit_table(num_vcs: int) -> List[int]:
    """Shared table mapping an isolated low bit (``mask & -mask``) to its
    index — one C-level list index instead of an ``int.bit_length`` call
    in the allocation scans' inner loops."""
    table = _LOWBIT_TABLES.get(num_vcs)
    if table is None:
        table = [0] * (1 << num_vcs)
        for i in range(num_vcs):
            table[1 << i] = i
        _LOWBIT_TABLES[num_vcs] = table
    return table


class _InputVC:
    """State of one virtual channel at one input port."""

    __slots__ = ("fifo", "active", "out_port", "out_vc")

    def __init__(self) -> None:
        self.fifo: Deque[Flit] = deque()
        self.active = False
        self.out_port: Optional[int] = None
        self.out_vc: Optional[int] = None


class VCRouter(BaseRouter):
    """Input-buffered virtual-channel router."""

    def __init__(self, node: int, config: NetworkConfig, binding) -> None:
        super().__init__(node, config, binding)
        rc = config.router
        self.num_vcs = rc.num_vcs
        self.vc_depth = rc.buffer_depth
        self.vcs: List[List[_InputVC]] = [
            [_InputVC() for _ in range(self.num_vcs)]
            for _ in range(self.PORTS)
        ]
        #: Per-input-port bitmasks over VC indices, maintained O(1) so
        #: the allocation scans visit only live VCs:
        #: ``_sa_mask`` — active (output VC held) and non-empty, the only
        #: VCs that can request the switch; ``_va_mask`` — idle and
        #: non-empty, the only VCs that can request an output VC.
        self._sa_mask: List[int] = [0] * self.PORTS
        self._va_mask: List[int] = [0] * self.PORTS
        #: Bitmasks over input ports with a nonzero ``_sa_mask`` /
        #: ``_va_mask`` entry — let allocation skip dead ports (and
        #: whole calls) outright.
        self._sa_ports = 0
        self._va_ports = 0
        self._low5 = _lowbit_table(self.PORTS)
        self._lowbit = _lowbit_table(self.num_vcs)
        #: (in_port, in_vc) owning each output VC, or None.
        self.out_vc_owner: List[List[Optional[Tuple[int, int]]]] = [
            [None] * self.num_vcs for _ in range(self.PORTS)
        ]
        #: Per-output-VC downstream credits; None = unlimited (ejection).
        self.out_credits: List[Optional[List[int]]] = [None] * self.PORTS
        self.switch_arbiters = [
            make_arbiter(rc.arbiter_type, self.PORTS)
            for _ in range(self.PORTS)
        ]
        self.local_arbiters = [
            make_arbiter(rc.arbiter_type, self.num_vcs)
            for _ in range(self.PORTS)
        ]
        self.vc_arbiters = [
            [make_arbiter(rc.arbiter_type, self.PORTS * self.num_vcs)
             for _ in range(self.num_vcs)]
            for _ in range(self.PORTS)
        ]
        #: Switch grants executed next traversal phase:
        #: (in_port, in_vc, out_port, out_vc) tuples.
        self._st_grants: List[Tuple[int, int, int, int]] = []
        self.dateline = rc.vc_class_mode == "dateline"
        #: Topology reference, installed by the network (needed for
        #: dateline wrap-edge detection).
        self.topo = None
        # Injection bookkeeping: VC receiving the in-progress packet.
        self._inject_vc: Optional[int] = None
        self._inject_rr = 0
        # The binding's per-node event counters (stable, zeroed in
        # place): the hot loops bump them directly instead of paying a
        # sink-method call per event.
        arb_counts = binding.n_arb
        self._c_arb_local = arb_counts["local"][node]
        self._c_arb_switch = arb_counts["switch"][node]
        self._c_arb_vc = arb_counts["vc"][node]
        self._c_buf_write = binding.n_buf_write
        self._c_buf_read = binding.n_buf_read
        self._c_xbar = binding.n_xbar

    # --- wiring -----------------------------------------------------------------

    def set_downstream_depth(self, port: int, flits: int,
                             num_vcs: int = 1) -> None:
        if port == LOCAL:
            raise ValueError("ejection port has unlimited credits")
        if num_vcs != self.num_vcs:
            raise ValueError(
                f"node {self.node}: neighbour has {num_vcs} VCs, expected "
                f"{self.num_vcs} (heterogeneous VC counts not supported)"
            )
        self.out_credits[port] = [flits] * num_vcs

    # --- arrivals ------------------------------------------------------------------

    def accept_flit(self, port: int, flit: Flit) -> None:
        vc = self.vcs[port][flit.vc]
        if len(vc.fifo) >= self.vc_depth:
            raise RuntimeError(
                f"node {self.node} port {port} vc {flit.vc}: buffer "
                f"overflow — credit accounting is broken"
            )
        flit.arrived_cycle = self.now
        vc.fifo.append(flit)
        self._buffered += 1
        if vc.active:
            self._sa_mask[port] |= 1 << flit.vc
            self._sa_ports |= 1 << port
        else:
            self._va_mask[port] |= 1 << flit.vc
            self._va_ports |= 1 << port
        self._c_buf_write[self.node] += 1
        if flit.payload is not None:
            self.binding.observe(self.node, BUFFER_WRITE, port, flit.payload)

    def credit_return(self, port: int, vc: int) -> None:
        credits = self.out_credits[port]
        if credits is None:
            raise RuntimeError(
                f"node {self.node}: credit on un-wired output {port}"
            )
        credits[vc] += 1
        if credits[vc] > self.vc_depth:
            raise RuntimeError(
                f"node {self.node} output {port} vc {vc}: credit overflow"
            )

    def arrival_phase(self, cycle: int) -> None:
        """Event-driven channel drain (see the base class), with
        :meth:`accept_flit` / :meth:`credit_return` and the channel
        accessors inlined — identical mutations and event counts, only
        the call frames elided."""
        self.now = cycle
        pending = self._pending_in
        if pending:
            self._pending_in = 0
            in_channels = self.in_channels
            vcs = self.vcs
            vc_depth = self.vc_depth
            c_buf_write = self._c_buf_write
            node = self.node
            port = 0
            while pending:
                if pending & 1:
                    channel = in_channels[port]
                    flit = channel._flit
                    if flit is not None:
                        channel._flit = None
                        fv = flit.vc
                        vc = vcs[port][fv]
                        if len(vc.fifo) >= vc_depth:
                            raise RuntimeError(
                                f"node {node} port {port} vc {fv}: buffer "
                                f"overflow — credit accounting is broken"
                            )
                        flit.arrived_cycle = cycle
                        vc.fifo.append(flit)
                        self._buffered += 1
                        if vc.active:
                            self._sa_mask[port] |= 1 << fv
                            self._sa_ports |= 1 << port
                        else:
                            self._va_mask[port] |= 1 << fv
                            self._va_ports |= 1 << port
                        c_buf_write[node] += 1
                        if flit.payload is not None:
                            self.binding.observe(node, BUFFER_WRITE, port,
                                                 flit.payload)
                pending >>= 1
                port += 1
        pending = self._pending_credit
        if pending:
            self._pending_credit = 0
            out_channels = self.out_channels
            out_credits = self.out_credits
            vc_depth = self.vc_depth
            port = 0
            while pending:
                if pending & 1:
                    channel = out_channels[port]
                    returned = channel._credits
                    if returned:
                        channel._credits = []
                        credits = out_credits[port]
                        for v in returned:
                            credits[v] += 1
                            if credits[v] > vc_depth:
                                raise RuntimeError(
                                    f"node {self.node} output {port} vc "
                                    f"{v}: credit overflow"
                                )
                pending >>= 1
                port += 1

    # --- pipeline stages ------------------------------------------------------------

    def traversal_phase(self, cycle: int) -> None:
        """ST: execute last cycle's switch grants.

        The per-flit helpers (``_send``, ``Channel.send_flit``,
        ``Channel.send_credit``) are inlined — the same state mutations,
        event counts and channel notifications, only the call frames
        elided."""
        grants = self._st_grants
        if not grants:
            return
        self._st_grants = []
        vcs = self.vcs
        sa_mask = self._sa_mask
        in_channels = self.in_channels
        out_channels = self.out_channels
        binding = self.binding
        c_buf_read = self._c_buf_read
        c_xbar = self._c_xbar
        c_link = self._c_link
        node = self.node
        dateline = self.dateline
        eject = self.eject
        moved = 0
        for in_port, in_vc, out_port, out_vc in grants:
            vc = vcs[in_port][in_vc]
            flit = vc.fifo.popleft()
            self._buffered -= 1
            if not vc.fifo:
                masked = sa_mask[in_port] & ~(1 << in_vc)
                sa_mask[in_port] = masked
                if not masked:
                    self._sa_ports &= ~(1 << in_port)
            c_buf_read[node] += 1
            c_xbar[node] += 1
            payload = flit.payload
            if payload is not None:
                binding.observe(node, XBAR_TRAVERSAL, out_port, payload)
            channel = in_channels[in_port]
            if channel is not None:
                channel._credits.append(in_vc)
                upstream = channel.credit_router
                upstream._pending_credit |= channel.credit_bit
                channel.active_set.add(upstream.node)
            if dateline and flit.is_head:
                self._update_dateline(flit, out_port)
            if flit.is_tail:
                self.out_vc_owner[out_port][out_vc] = None
                vc.active = False
                vc.out_port = None
                vc.out_vc = None
                masked = sa_mask[in_port] & ~(1 << in_vc)
                sa_mask[in_port] = masked
                if not masked:
                    self._sa_ports &= ~(1 << in_port)
                if vc.fifo:
                    self._va_mask[in_port] |= 1 << in_vc
                    self._va_ports |= 1 << in_port
            flit.vc = out_vc
            moved += 1
            if out_port == LOCAL:
                eject(flit)
            else:
                if flit.is_head:
                    flit.route_idx += 1
                channel = out_channels[out_port]
                c_link[node] += 1
                if payload is not None:
                    binding.observe(node, LINK_TRAVERSAL, out_port, payload)
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
        self.moved_flits = moved

    def allocation_phase(self, cycle: int) -> None:
        """SA then VA (so VA grants become SA-visible next cycle)."""
        self._switch_allocation(cycle)
        if self._va_ports:
            self._vc_allocation(cycle)

    #: Allocation iterations per cycle.  A single pass of a separable
    #: allocator wastes input slots (a stage-1 winner that loses the
    #: output stage idles its whole port); two iterations recover most
    #: of the matching quality, as in iSLIP.
    SA_ITERATIONS = 2

    def _switch_allocation(self, cycle: int) -> Tuple[int, int]:
        """Iterative two-stage separable switch allocation.

        Stage 1 picks one VC per input port (V:1 local arbiter), stage 2
        one input per output port (switch arbiter).  The stage-1 scan
        walks the ``_sa_mask`` bitmasks (active non-empty VCs,
        ascending), and the iterations stop early once no stage-1 winner
        lost stage 2: the next iteration would then find no candidates
        (candidate sets only shrink as outputs match and credits drain),
        touch no arbiter and emit no event.

        Returns the matched input and output ports as bitmasks (the
        speculative subclass fills the slots left free).
        """
        pmask = self._sa_ports
        if not pmask:
            return 0, 0
        sa_mask = self._sa_mask
        vcs = self.vcs
        out_credits = self.out_credits
        lowbit = self._lowbit
        if not (pmask & (pmask - 1)):
            # Single requesting port — the dominant shape at paper
            # operating points.  Stage 2 is uncontended for whichever VC
            # wins stage 1, only one grant can issue (the port is then
            # matched), and a second iteration finds no candidates, so
            # the whole allocation collapses to one local pick plus one
            # uncontended switch grant — or to nothing when no head is
            # eligible.
            in_port = self._low5[pmask]
            mask = sa_mask[in_port]
            port_vcs = vcs[in_port]
            first = -1
            extras = None
            while mask:
                v = lowbit[mask & -mask]
                mask &= mask - 1
                vc = port_vcs[v]
                if vc.fifo[0].arrived_cycle >= cycle:
                    continue
                credits = out_credits[vc.out_port]
                if credits is not None and credits[vc.out_vc] <= 0:
                    continue
                if first < 0:
                    first = v
                elif extras is None:
                    extras = [first, v]
                else:
                    extras.append(v)
            if first < 0:
                return 0, 0
            arb = self.local_arbiters[in_port]
            st = arb._fstamp
            if extras is None:
                winner = first
                n_req = 1
                if st is not None:
                    st[winner] = arb._next
                    arb._next += 1
                else:
                    arb.grant_single(winner)
            else:
                n_req = len(extras)
                if st is not None and n_req == 2:
                    # Two candidates: the matrix winner is simply
                    # the lower stamp (stamps are unique), restamped —
                    # grant() minus the bounds check and min machinery.
                    a, b = extras
                    winner = a if st[a] < st[b] else b
                    st[winner] = arb._next
                    arb._next += 1
                else:
                    winner = arb.grant(extras)
            vc = port_vcs[winner]
            out_port = vc.out_port
            arb = self.switch_arbiters[out_port]
            st = arb._fstamp
            if st is not None:
                st[in_port] = arb._next
                arb._next += 1
            else:
                arb.grant_single(in_port)
            self._c_arb_local[n_req] += 1
            self._c_arb_switch[1] += 1
            credits = out_credits[out_port]
            if credits is not None:
                credits[vc.out_vc] -= 1
            self._st_grants.append((in_port, winner, out_port, vc.out_vc))
            return 1 << in_port, 1 << out_port
        matched_in = 0
        matched_out = 0
        local_arbiters = self.local_arbiters
        switch_arbiters = self.switch_arbiters
        c_local = self._c_arb_local
        c_switch = self._c_arb_switch
        st_grants = self._st_grants
        low5 = self._low5
        for _ in range(self.SA_ITERATIONS):
            stage1: List[Tuple[int, int]] = []
            out_seen = 0
            out_contested = 0
            pm = pmask & ~matched_in
            while pm:
                in_port = low5[pm & -pm]
                pm &= pm - 1
                mask = sa_mask[in_port]
                port_vcs = vcs[in_port]
                first = -1
                extras = None
                while mask:
                    v = lowbit[mask & -mask]
                    mask &= mask - 1
                    vc = port_vcs[v]
                    if vc.fifo[0].arrived_cycle >= cycle:
                        continue
                    if matched_out >> vc.out_port & 1:
                        continue
                    credits = out_credits[vc.out_port]
                    if credits is not None and credits[vc.out_vc] <= 0:
                        continue
                    if first < 0:
                        first = v
                    elif extras is None:
                        extras = [first, v]
                    else:
                        extras.append(v)
                if first < 0:
                    continue
                arb = local_arbiters[in_port]
                st = arb._fstamp
                if extras is None:
                    winner = first
                    if st is not None:
                        st[first] = arb._next
                        arb._next += 1
                    else:
                        arb.grant_single(first)
                    c_local[1] += 1
                else:
                    if st is not None and len(extras) == 2:
                        a, b = extras
                        winner = a if st[a] < st[b] else b
                        st[winner] = arb._next
                        arb._next += 1
                    else:
                        winner = arb.grant(extras)
                    c_local[len(extras)] += 1
                stage1.append((in_port, winner))
                bit = 1 << port_vcs[winner].out_port
                if out_seen & bit:
                    out_contested |= bit
                else:
                    out_seen |= bit
            if not stage1:
                break
            if not out_contested:
                # Common case: every stage-1 winner targets a distinct
                # output, so each wins stage 2 uncontested.
                for in_port, v in stage1:
                    vc = vcs[in_port][v]
                    out_port = vc.out_port
                    arb = switch_arbiters[out_port]
                    st = arb._fstamp
                    if st is not None:
                        st[in_port] = arb._next
                        arb._next += 1
                    else:
                        arb.grant_single(in_port)
                    c_switch[1] += 1
                    credits = out_credits[out_port]
                    if credits is not None:
                        credits[vc.out_vc] -= 1
                    matched_in |= 1 << in_port
                    matched_out |= 1 << out_port
                    st_grants.append((in_port, v, out_port, vc.out_vc))
                # No stage-1 winner lost, so the next iteration would
                # find no candidates, touch no arbiter and emit no
                # event: stop here.
                break
            by_output: Dict[int, List[Tuple[int, int]]] = {}
            for in_port, v in stage1:
                out_port = vcs[in_port][v].out_port
                by_output.setdefault(out_port, []).append((in_port, v))
            for out_port, contenders in by_output.items():
                arb = switch_arbiters[out_port]
                st = arb._fstamp
                if len(contenders) == 1:
                    winner_port, winner_vc = contenders[0]
                    if st is not None:
                        st[winner_port] = arb._next
                        arb._next += 1
                    else:
                        arb.grant_single(winner_port)
                    c_switch[1] += 1
                else:
                    ports = [p for p, _ in contenders]
                    if st is not None and len(ports) == 2:
                        a, b = ports
                        winner_port = a if st[a] < st[b] else b
                        st[winner_port] = arb._next
                        arb._next += 1
                    else:
                        winner_port = arb.grant(ports)
                    c_switch[len(ports)] += 1
                    winner_vc = next(v for p, v in contenders
                                     if p == winner_port)
                vc = vcs[winner_port][winner_vc]
                credits = out_credits[out_port]
                if credits is not None:
                    credits[vc.out_vc] -= 1
                matched_in |= 1 << winner_port
                matched_out |= 1 << out_port
                st_grants.append(
                    (winner_port, winner_vc, out_port, vc.out_vc))
            if len(stage1) == len(by_output):
                # Every stage-1 winner was matched: unmatched ports had
                # no candidates this iteration and cannot gain any, so
                # the next iteration is a no-op scan.
                break
        return matched_in, matched_out

    def _vc_allocation(self, cycle: int) -> List[Tuple[int, int]]:
        """Heads of idle VCs request one candidate output VC each.

        The request scan walks the ``_va_mask`` bitmasks (idle non-empty
        VCs, ascending), which are almost always empty since a VC
        requests only between packets.  Returns the input VCs granted an
        output VC this cycle, as ``(in_port, vc)`` pairs (used by the
        speculative subclass)."""
        va_mask = self._va_mask
        vcs = self.vcs
        lowbit = self._lowbit
        requests: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for in_port in range(self.PORTS):
            mask = va_mask[in_port]
            if not mask:
                continue
            port_vcs = vcs[in_port]
            while mask:
                v = lowbit[mask & -mask]
                mask &= mask - 1
                vc = port_vcs[v]
                head = vc.fifo[0]
                if head.arrived_cycle >= cycle:
                    continue
                if not head.is_head:
                    raise RuntimeError(
                        f"node {self.node} port {in_port} vc {v}: idle VC "
                        f"headed by a {head.ftype.name} flit"
                    )
                out_port = head.next_output_port()
                candidate = self._pick_output_vc(head, out_port)
                if candidate is None:
                    continue
                requests.setdefault((out_port, candidate), []).append(
                    (in_port, v))
        granted: List[Tuple[int, int]] = []
        num_vcs = self.num_vcs
        c_vc = self._c_arb_vc
        for (out_port, out_vc), reqs in requests.items():
            arb = self.vc_arbiters[out_port][out_vc]
            st = arb._fstamp
            if len(reqs) == 1:
                in_port, v = reqs[0]
                if st is not None:
                    st[in_port * num_vcs + v] = arb._next
                    arb._next += 1
                else:
                    arb.grant_single(in_port * num_vcs + v)
                c_vc[1] += 1
            else:
                ids = [p * num_vcs + v for p, v in reqs]
                if st is not None and len(ids) == 2:
                    a, b = ids
                    winner_id = a if st[a] < st[b] else b
                    st[winner_id] = arb._next
                    arb._next += 1
                else:
                    winner_id = arb.grant(ids)
                c_vc[len(ids)] += 1
                in_port, v = divmod(winner_id, num_vcs)
            vc = self.vcs[in_port][v]
            vc.active = True
            vc.out_port = out_port
            vc.out_vc = out_vc
            self.out_vc_owner[out_port][out_vc] = (in_port, v)
            masked = va_mask[in_port] & ~(1 << v)
            va_mask[in_port] = masked
            if not masked:
                self._va_ports &= ~(1 << in_port)
            self._sa_mask[in_port] |= 1 << v
            self._sa_ports |= 1 << in_port
            granted.append((in_port, v))
        return granted

    def _pick_output_vc(self, head: Flit, out_port: int) -> Optional[int]:
        """First free output VC in the head's allowed class, scanning from
        a packet-dependent start for load balance."""
        lo, hi = self._allowed_vc_range(head, out_port)
        owners = self.out_vc_owner[out_port]
        span = hi - lo
        start = (head.packet.packet_id + self.node) % span
        for i in range(span):
            candidate = lo + (start + i) % span
            if owners[candidate] is None:
                return candidate
        return None

    def _allowed_vc_range(self, head: Flit, out_port: int) -> Tuple[int, int]:
        """VC class restriction: [lo, hi) of usable output VCs."""
        if not self.dateline or out_port == LOCAL:
            return 0, self.num_vcs
        dim = "y" if out_port in (NORTH, SOUTH) else "x"
        crossed = head.crossed_dateline and head.travel_dim == dim
        half = self.num_vcs // 2
        return (half, self.num_vcs) if crossed else (0, half)

    def _update_dateline(self, head: Flit, out_port: int) -> None:
        """Track dateline crossings for the class restriction."""
        if not self.dateline or out_port == LOCAL or self.topo is None:
            return
        dim = "y" if out_port in (NORTH, SOUTH) else "x"
        if head.travel_dim != dim:
            head.travel_dim = dim
            head.crossed_dateline = False
        if self.topo.crosses_wrap_edge(self.node, out_port):
            head.crossed_dateline = True

    # --- injection --------------------------------------------------------------------

    def injection_space(self) -> int:
        return sum(self.vc_depth - len(vc.fifo)
                   for vc in self.vcs[LOCAL])

    def inject_flit(self, flit: Flit) -> bool:
        """Place one flit into an injection-port VC.

        A packet's flits all enter the same VC; heads pick the next VC
        (round-robin) with room for at least one flit.
        """
        if flit.is_head:
            chosen = None
            for i in range(self.num_vcs):
                v = (self._inject_rr + i) % self.num_vcs
                if len(self.vcs[LOCAL][v].fifo) < self.vc_depth:
                    chosen = v
                    break
            if chosen is None:
                return False
            self._inject_rr = (chosen + 1) % self.num_vcs
            self._inject_vc = chosen
        elif self._inject_vc is None:
            raise RuntimeError(
                f"node {self.node}: body flit injected with no open packet"
            )
        v = self._inject_vc
        if len(self.vcs[LOCAL][v].fifo) >= self.vc_depth:
            return False
        flit.vc = v
        self.accept_flit(LOCAL, flit)
        if flit.is_tail:
            self._inject_vc = None
        return True

    # --- introspection ----------------------------------------------------------------

    def buffered_flits(self) -> int:
        return sum(len(vc.fifo)
                   for port in self.vcs for vc in port)

    def reset(self) -> None:
        super().reset()
        for port_vcs in self.vcs:
            for vc in port_vcs:
                vc.fifo.clear()
                vc.active = False
                vc.out_port = None
                vc.out_vc = None
        for port in range(self.PORTS):
            self._sa_mask[port] = 0
            self._va_mask[port] = 0
            owners = self.out_vc_owner[port]
            for v in range(self.num_vcs):
                owners[v] = None
            credits = self.out_credits[port]
            if credits is not None:
                for v in range(self.num_vcs):
                    credits[v] = self.vc_depth
        self._sa_ports = 0
        self._va_ports = 0
        for arbiter in self.switch_arbiters:
            arbiter.reset()
        for arbiter in self.local_arbiters:
            arbiter.reset()
        for per_port in self.vc_arbiters:
            for arbiter in per_port:
                arbiter.reset()
        self._st_grants = []
        self._inject_vc = None
        self._inject_rr = 0

    def check_invariants(self) -> None:
        sa_ports = va_ports = 0
        for port in range(self.PORTS):
            sa = va = 0
            for v, vc in enumerate(self.vcs[port]):
                if vc.fifo:
                    if vc.active:
                        sa |= 1 << v
                    else:
                        va |= 1 << v
            if self._sa_mask[port] != sa or self._va_mask[port] != va:
                raise RuntimeError(
                    f"node {self.node} port {port}: allocation masks "
                    f"(sa={self._sa_mask[port]:#x}, "
                    f"va={self._va_mask[port]:#x}) disagree with VC "
                    f"state (sa={sa:#x}, va={va:#x})"
                )
            sa_ports |= bool(sa) << port
            va_ports |= bool(va) << port
        if self._sa_ports != sa_ports or self._va_ports != va_ports:
            raise RuntimeError(
                f"node {self.node}: port summaries "
                f"(sa={self._sa_ports:#x}, va={self._va_ports:#x}) "
                f"disagree with per-port masks "
                f"(sa={sa_ports:#x}, va={va_ports:#x})"
            )
        # Pending switch grants form a matching, each held by an active,
        # non-empty input VC that owns the granted output VC.
        grants = self._st_grants
        if len({g[0] for g in grants}) < len(grants) or \
                len({g[2] for g in grants}) < len(grants):
            raise RuntimeError(f"node {self.node}: pending switch grants "
                               f"{grants} are not a matching")
        for in_port, in_vc, out_port, out_vc in grants:
            vc = self.vcs[in_port][in_vc]
            if not (vc.active and vc.fifo
                    and (vc.out_port, vc.out_vc) == (out_port, out_vc)
                    and self.out_vc_owner[out_port][out_vc]
                    == (in_port, in_vc)):
                raise RuntimeError(
                    f"node {self.node}: switch grant "
                    f"{(in_port, in_vc, out_port, out_vc)} disagrees with "
                    f"its input VC or the output VC's owner")

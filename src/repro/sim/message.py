"""Packets and flits — the units of network transfer.

A packet is segmented into flits (flow-control units): one head flit
carrying the route, zero or more body flits, and a tail flit that releases
resources.  The paper's experiments use 5-flit packets ("a head flit
leading 4 data flits").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional


class FlitType(enum.IntEnum):
    """Role of a flit within its packet."""

    HEAD = 0
    BODY = 1
    TAIL = 2
    #: Single-flit packet: plays head and tail at once.
    HEAD_TAIL = 3

    @property
    def is_head(self) -> bool:
        return self in (FlitType.HEAD, FlitType.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self in (FlitType.TAIL, FlitType.HEAD_TAIL)


@dataclass(slots=True)
class Packet:
    """One network packet.

    ``route`` is the source-computed list of output-port indices, one per
    router visited (ending with the destination's ejection port), per the
    paper's source dimension-ordered routing.
    """

    packet_id: int
    src: int
    dst: int
    length_flits: int
    creation_cycle: int
    route: List[int] = field(default_factory=list)
    #: Set when the tail flit is ejected at the destination.
    eject_cycle: Optional[int] = None
    #: True when this packet counts toward the measured sample.
    in_sample: bool = False

    @property
    def latency(self) -> int:
        """Creation-to-last-flit-ejection latency (paper's definition,
        including source queuing)."""
        if self.eject_cycle is None:
            raise ValueError(f"packet {self.packet_id} not yet ejected")
        return self.eject_cycle - self.creation_cycle

    def make_flits(self, payloads: Optional[List[int]] = None) -> List["Flit"]:
        """Segment this packet into its flit sequence."""
        if self.length_flits < 1:
            raise ValueError(f"packet length must be >= 1, got {self.length_flits}")
        if payloads is not None and len(payloads) != self.length_flits:
            raise ValueError(
                f"got {len(payloads)} payloads for {self.length_flits} flits"
            )
        flits = []
        for i in range(self.length_flits):
            if self.length_flits == 1:
                ftype = FlitType.HEAD_TAIL
            elif i == 0:
                ftype = FlitType.HEAD
            elif i == self.length_flits - 1:
                ftype = FlitType.TAIL
            else:
                ftype = FlitType.BODY
            flits.append(Flit(
                packet=self,
                seq=i,
                ftype=ftype,
                payload=payloads[i] if payloads is not None else None,
            ))
        return flits


@dataclass(slots=True)
class Flit:
    """One flow-control unit.

    ``route_idx`` tracks the head flit's progress along the packet route
    (which hop's output port to use next); body/tail flits follow the
    connection their head established and never consult the route.
    ``payload`` carries the data bits when payload-level switching-activity
    tracking is enabled, else ``None``.
    """

    packet: Packet
    seq: int
    ftype: FlitType
    payload: Optional[int] = None
    route_idx: int = 0
    #: Virtual channel this flit occupies on its current input buffer,
    #: assigned by the upstream router (or at injection).
    vc: int = 0
    #: Cycle the flit entered its current input buffer.  Pipeline stages
    #: only consider flits that arrived in an earlier cycle, so each
    #: stage costs one full cycle.
    arrived_cycle: int = -1
    #: Dateline bookkeeping for torus deadlock avoidance (head flits
    #: only): whether the packet crossed a wraparound edge in the
    #: dimension it is currently traversing, and that dimension
    #: ("y"/"x"/None).
    crossed_dateline: bool = False
    travel_dim: Optional[str] = None
    #: Derived flags, filled by ``__post_init__`` (fields so the class
    #: can carry ``__slots__``).
    is_head: bool = field(init=False)
    is_tail: bool = field(init=False)

    def __post_init__(self) -> None:
        # Plain attributes, not properties: these are read on every hop
        # of every flit, and a dataclass-field/property pair would cost
        # two attribute lookups plus a call in the simulator's hottest
        # loops.
        self.is_head = self.ftype in (FlitType.HEAD, FlitType.HEAD_TAIL)
        self.is_tail = self.ftype in (FlitType.TAIL, FlitType.HEAD_TAIL)

    def next_output_port(self) -> int:
        """The output port this head flit takes at the current router."""
        route = self.packet.route
        if self.route_idx >= len(route):
            raise IndexError(
                f"packet {self.packet.packet_id} flit {self.seq}: route "
                f"exhausted at index {self.route_idx} (route {route})"
            )
        return route[self.route_idx]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flit(pkt={self.packet.packet_id}, seq={self.seq}, "
            f"{self.ftype.name}, hop={self.route_idx})"
        )

"""Communication workloads (paper section 4.1/4.3).

Traffic patterns decide, per node per cycle, whether a packet is created
and to which destination.  Injection is an open-loop Bernoulli process at
the prescribed packet injection rate (packets/cycle/node); created packets
wait in an unbounded source queue until the injection port accepts them,
so source queuing time is part of packet latency, as the paper specifies.
Each rate-driven pattern also declares ``flows()``: the expected
``(src, dst) -> packets/cycle`` per unit of rate, read from the tables
``packets_at`` samples.  The analytic estimator routes that table.

Patterns provided:

* :class:`UniformRandomTraffic` — uniformly random destinations other
  than the sender (the paper's default workload);
* :class:`BroadcastTraffic` — one node sends to all others in turn
  (section 4.3), so every destination receives the same share;
* :class:`HotspotTraffic` — uniform random, a fraction aimed at one node;
* :class:`NearestNeighborTraffic` — to a random adjacent node;
* :class:`TransposeTraffic`, :class:`BitComplementTraffic`,
  :class:`TornadoTraffic`, :class:`ShuffleTraffic` — fixed
  permutations (:class:`PermutationTraffic`);
* :class:`BurstyTraffic` — Markov-modulated uniform random traffic;
* :class:`TraceTraffic` — replays an explicit (cycle, src, dst) trace,
  the hook for "actual communication traces" the paper mentions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.topology import Topology

#: ``(src, dst) -> packets/cycle`` expected flow table.
FlowTable = Dict[Tuple[int, int], float]


def _uniform_destination(rng: random.Random, n: int, src: int) -> int:
    """A destination drawn uniformly from the ``n - 1`` nodes other than
    ``src`` (one ``randrange`` draw)."""
    dst = rng.randrange(n - 1)
    return dst + 1 if dst >= src else dst


class TrafficPattern:
    """Base class: per-cycle packet generation decisions.  A rate-driven
    subclass also defines ``flows()`` (see the module docstring), which
    is linear in the rate by construction."""

    def __init__(self, topo: Topology, rate: float = 0.0,
                 seed: int = 1) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"injection rate must be in [0, 1], got {rate}")
        self.topo = topo
        self.rate = rate
        self.rng = random.Random(seed)

    def packets_at(self, cycle: int) -> List[Tuple[int, int]]:
        """``(src, dst)`` pairs for packets created this cycle."""
        raise NotImplementedError

    def reset(self, seed: Optional[int] = None) -> None:
        """Restart the pattern's random stream."""
        if seed is not None:
            self.rng = random.Random(seed)


class UniformRandomTraffic(TrafficPattern):
    """Every node injects at ``rate`` to uniformly random destinations."""

    def packets_at(self, cycle: int) -> List[Tuple[int, int]]:
        pairs = []
        n = self.topo.num_nodes
        rng = self.rng
        for src in range(n):
            if rng.random() < self.rate:
                pairs.append((src, _uniform_destination(rng, n, src)))
        return pairs

    def flows(self) -> FlowTable:
        n = self.topo.num_nodes
        share = 1.0 / (n - 1)
        return {(src, dst): share
                for src in range(n) for dst in range(n) if dst != src}


class BroadcastTraffic(TrafficPattern):
    """One source node injects at ``rate`` to all other nodes in turn.

    The paper's section 4.3 broadcast: the node at (1, 2) injects at the
    maximum rate of 0.2 packets/cycle while every other node is silent,
    keeping total network injection equal to the uniform workload's.
    """

    def __init__(self, topo: Topology, source: int, rate: float,
                 seed: int = 1) -> None:
        super().__init__(topo, rate, seed)
        topo.coords(source)  # validates
        self.source = source
        self._targets = [n for n in range(topo.num_nodes) if n != source]
        self._next_target = 0

    def packets_at(self, cycle: int) -> List[Tuple[int, int]]:
        if self.rng.random() >= self.rate:
            return []
        dst = self._targets[self._next_target]
        self._next_target = (self._next_target + 1) % len(self._targets)
        return [(self.source, dst)]

    def flows(self) -> FlowTable:
        share = 1.0 / len(self._targets)
        return {(self.source, dst): share for dst in self._targets}

    def reset(self, seed: Optional[int] = None) -> None:
        super().reset(seed)
        self._next_target = 0


class PermutationTraffic(TrafficPattern):
    """Each node sends all its packets to one fixed partner; nodes the
    permutation maps onto themselves stay silent.  Subclasses define
    :meth:`destination`."""

    def __init__(self, topo: Topology, rate: float, seed: int = 1) -> None:
        super().__init__(topo, rate, seed)
        self._dst = {}
        for node in range(topo.num_nodes):
            dst = self.destination(node)
            if dst != node:
                self._dst[node] = dst

    def destination(self, node: int) -> int:
        """The partner ``node`` sends to."""
        raise NotImplementedError

    def packets_at(self, cycle: int) -> List[Tuple[int, int]]:
        rng = self.rng
        return [(src, dst) for src, dst in self._dst.items()
                if rng.random() < self.rate]

    def flows(self) -> FlowTable:
        return {pair: 1.0 for pair in self._dst.items()}


class TransposeTraffic(PermutationTraffic):
    """Node (x, y) sends to node (y, x); diagonal nodes stay silent."""

    def __init__(self, topo: Topology, rate: float, seed: int = 1) -> None:
        if topo.width != topo.height:
            raise ValueError("transpose traffic needs a square topology")
        super().__init__(topo, rate, seed)

    def destination(self, node: int) -> int:
        x, y = self.topo.coords(node)
        return self.topo.node_at(y, x)


class BitComplementTraffic(PermutationTraffic):
    """Node (x, y) sends to (width-1-x, height-1-y)."""

    def destination(self, node: int) -> int:
        topo = self.topo
        x, y = topo.coords(node)
        return topo.node_at(topo.width - 1 - x, topo.height - 1 - y)


class HotspotTraffic(TrafficPattern):
    """Uniform random, but a fraction of packets target one hot node."""

    def __init__(self, topo: Topology, rate: float, hotspot: int,
                 hot_fraction: float = 0.2, seed: int = 1) -> None:
        super().__init__(topo, rate, seed)
        topo.coords(hotspot)  # validates
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(
                f"hot fraction must be in [0, 1], got {hot_fraction}"
            )
        self.hotspot = hotspot
        self.hot_fraction = hot_fraction

    def packets_at(self, cycle: int) -> List[Tuple[int, int]]:
        pairs = []
        n = self.topo.num_nodes
        rng = self.rng
        for src in range(n):
            if rng.random() >= self.rate:
                continue
            if src != self.hotspot and rng.random() < self.hot_fraction:
                dst = self.hotspot
            else:
                dst = _uniform_destination(rng, n, src)
            pairs.append((src, dst))
        return pairs

    def flows(self) -> FlowTable:
        # The hot node itself sends uniformly; every other node aims
        # ``hot_fraction`` at it and spreads the rest uniformly over its
        # n-1 others, which can also pick the hot node.
        n = self.topo.num_nodes
        hot, frac = self.hotspot, self.hot_fraction
        table: FlowTable = {}
        for src in range(n):
            aim = 0.0 if src == hot else frac
            base = (1.0 - aim) / (n - 1)
            for dst in range(n):
                if dst != src:
                    table[(src, dst)] = base + (aim if dst == hot else 0.0)
        return table


class NearestNeighborTraffic(TrafficPattern):
    """Each node sends to a random adjacent node (distance-1 traffic)."""

    def __init__(self, topo: Topology, rate: float, seed: int = 1) -> None:
        super().__init__(topo, rate, seed)
        self._neighbors = {
            node: [topo.neighbor(node, p) for p in range(4)
                   if topo.neighbor(node, p) is not None]
            for node in range(topo.num_nodes)
        }

    def packets_at(self, cycle: int) -> List[Tuple[int, int]]:
        pairs = []
        rng = self.rng
        for src, neighbors in self._neighbors.items():
            if rng.random() < self.rate:
                pairs.append((src, rng.choice(neighbors)))
        return pairs

    def flows(self) -> FlowTable:
        # A neighbour listed twice (east and west on a ring of two) is
        # drawn twice as often.
        table: FlowTable = {}
        for src, neighbors in self._neighbors.items():
            share = 1.0 / len(neighbors)
            for dst in neighbors:
                table[(src, dst)] = table.get((src, dst), 0.0) + share
        return table


class TornadoTraffic(PermutationTraffic):
    """Node (x, y) sends half-way around both rings: the classic
    worst case for minimal routing on tori."""

    def __init__(self, topo: Topology, rate: float, seed: int = 1) -> None:
        self._dx = max(1, (topo.width + 1) // 2 - 1)
        self._dy = max(1, (topo.height + 1) // 2 - 1)
        super().__init__(topo, rate, seed)

    def destination(self, node: int) -> int:
        topo = self.topo
        x, y = topo.coords(node)
        return topo.node_at((x + self._dx) % topo.width,
                            (y + self._dy) % topo.height)


class ShuffleTraffic(PermutationTraffic):
    """Perfect-shuffle permutation on node indices (rotate the node id's
    bits left by one).  Requires a power-of-two node count."""

    def __init__(self, topo: Topology, rate: float, seed: int = 1) -> None:
        n = topo.num_nodes
        if n & (n - 1):
            raise ValueError(
                f"shuffle traffic needs a power-of-two node count, got {n}"
            )
        super().__init__(topo, rate, seed)

    def destination(self, node: int) -> int:
        n = self.topo.num_nodes
        bits = n.bit_length() - 1
        return ((node << 1) | (node >> (bits - 1))) & (n - 1)


class BurstyTraffic(UniformRandomTraffic):
    """Two-state Markov-modulated uniform random traffic.

    Each node alternates between an OFF state (silent) and an ON state
    injecting at ``rate / duty_cycle``, with mean burst length
    ``burst_length`` cycles — same average ``rate`` and flow table as
    the uniform pattern, much burstier arrivals.
    """

    def __init__(self, topo: Topology, rate: float,
                 burst_length: float = 10.0, duty_cycle: float = 0.25,
                 seed: int = 1) -> None:
        super().__init__(topo, rate, seed)
        if burst_length < 1.0:
            raise ValueError(
                f"burst length must be >= 1, got {burst_length}"
            )
        if not 0.0 < duty_cycle <= 1.0:
            raise ValueError(
                f"duty cycle must be in (0, 1], got {duty_cycle}"
            )
        on_rate = rate / duty_cycle
        if on_rate > 1.0:
            raise ValueError(
                f"rate {rate} at duty cycle {duty_cycle} needs an in-burst "
                f"rate above 1 packet/cycle"
            )
        self.on_rate = on_rate
        #: P(ON -> OFF) per cycle: bursts last burst_length on average.
        self._p_off = 1.0 / burst_length
        #: P(OFF -> ON) chosen so the steady-state ON fraction is the
        #: duty cycle.
        self._p_on = self._p_off * duty_cycle / (1.0 - duty_cycle) \
            if duty_cycle < 1.0 else 1.0
        self._state = [False] * topo.num_nodes

    def packets_at(self, cycle: int) -> List[Tuple[int, int]]:
        pairs = []
        n = self.topo.num_nodes
        rng = self.rng
        for src in range(n):
            if self._state[src]:
                if rng.random() < self._p_off:
                    self._state[src] = False
            else:
                if rng.random() < self._p_on:
                    self._state[src] = True
            if self._state[src] and rng.random() < self.on_rate:
                pairs.append((src, _uniform_destination(rng, n, src)))
        return pairs

    def reset(self, seed: Optional[int] = None) -> None:
        super().reset(seed)
        self._state = [False] * self.topo.num_nodes


class TraceTraffic(TrafficPattern):
    """Replays an explicit trace of ``(cycle, src, dst)`` records."""

    def __init__(self, topo: Topology,
                 trace: Sequence[Tuple[int, int, int]]) -> None:
        super().__init__(topo, seed=0)
        self._by_cycle: Dict[int, List[Tuple[int, int]]] = {}
        for cycle, src, dst in trace:
            if cycle < 0:
                raise ValueError(f"trace cycle must be >= 0, got {cycle}")
            topo.coords(src)
            topo.coords(dst)
            if src == dst:
                raise ValueError(f"trace record {cycle}: src == dst == {src}")
            self._by_cycle.setdefault(cycle, []).append((src, dst))

    def packets_at(self, cycle: int) -> List[Tuple[int, int]]:
        return self._by_cycle.get(cycle, [])

    @property
    def last_cycle(self) -> int:
        """Cycle of the final trace record (0 for an empty trace)."""
        return max(self._by_cycle) if self._by_cycle else 0


# --- traffic registry ---------------------------------------------------------

#: Sentinel default marking a registry parameter the caller must supply.
REQUIRED = object()


@dataclass(frozen=True)
class TrafficParam:
    """One extra constructor parameter a traffic kind accepts beyond
    ``(topo, rate, seed)``."""

    name: str
    kind: type = int
    default: Any = REQUIRED
    help: str = ""

    @property
    def required(self) -> bool:
        return self.default is REQUIRED


@dataclass(frozen=True)
class TrafficKind:
    """Registry entry: a named, declaratively-parameterised traffic
    pattern that the CLI and the experiment orchestrator can build and
    validate without pattern-specific code."""

    name: str
    factory: Any
    params: Tuple[TrafficParam, ...] = ()
    #: Whether ``rate`` is per node (vs whole-network, e.g. broadcast).
    per_node: bool = True
    description: str = ""

    def resolve_params(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Validate caller params against the declaration and fill in
        defaults; raises :class:`ValueError` on unknown or missing ones."""
        known = {p.name for p in self.params}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ValueError(
                f"traffic {self.name!r} got unknown parameter(s) {unknown}; "
                f"accepts: {sorted(known) or 'none'}"
            )
        resolved = {}
        for param in self.params:
            if param.name in params:
                resolved[param.name] = params[param.name]
            elif param.required:
                raise ValueError(
                    f"traffic {self.name!r} requires parameter "
                    f"{param.name!r} ({param.help or param.kind.__name__})"
                )
            else:
                resolved[param.name] = param.default
        return resolved


#: All registered rate-driven traffic kinds, by name.
TRAFFIC_REGISTRY: Dict[str, TrafficKind] = {}


def register_traffic(name: str, factory, params: Sequence[TrafficParam] = (),
                     per_node: bool = True,
                     description: str = "") -> TrafficKind:
    """Register a traffic pattern class under ``name``."""
    kind = TrafficKind(name, factory, tuple(params), per_node, description)
    TRAFFIC_REGISTRY[name] = kind
    return kind


def traffic_names() -> Tuple[str, ...]:
    """Registered traffic kind names, sorted."""
    return tuple(sorted(TRAFFIC_REGISTRY))


def validate_traffic_params(name: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Check ``name`` is registered and ``params`` match its declaration.

    Returns the resolved parameter dict (defaults filled in).
    """
    try:
        kind = TRAFFIC_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown traffic {name!r}; options: {traffic_names()}"
        ) from None
    return kind.resolve_params(params)


def make_traffic(name: str, topo: Topology, rate: float, seed: int = 1,
                 **params) -> TrafficPattern:
    """Build a registered traffic pattern by name.

    Extra keyword arguments are validated against the kind's declared
    :class:`TrafficParam` list (e.g. ``source`` for broadcast,
    ``hotspot``/``hot_fraction`` for hotspot traffic).
    """
    resolved = validate_traffic_params(name, params)
    kind = TRAFFIC_REGISTRY[name]
    return kind.factory(topo, rate=rate, seed=seed, **resolved)


register_traffic(
    "uniform", UniformRandomTraffic,
    description="uniformly random destinations (the paper's default)")
register_traffic(
    "broadcast", BroadcastTraffic, per_node=False,
    params=(TrafficParam("source", int, help="broadcasting node id"),),
    description="one source sends to all other nodes (section 4.3)")
register_traffic(
    "transpose", TransposeTraffic,
    description="node (x, y) sends to (y, x)")
register_traffic(
    "bitcomp", BitComplementTraffic,
    description="node (x, y) sends to (W-1-x, H-1-y)")
register_traffic(
    "hotspot", HotspotTraffic,
    params=(TrafficParam("hotspot", int, help="hot node id"),
            TrafficParam("hot_fraction", float, 0.2,
                         "share of packets sent to the hot node")),
    description="uniform random with a fraction aimed at one hot node")
register_traffic(
    "neighbor", NearestNeighborTraffic,
    description="random adjacent-node (distance-1) traffic")
register_traffic(
    "tornado", TornadoTraffic,
    description="half-way-around-the-ring worst case for tori")
register_traffic(
    "shuffle", ShuffleTraffic,
    description="perfect-shuffle permutation (power-of-two node counts)")
register_traffic(
    "bursty", BurstyTraffic,
    params=(TrafficParam("burst_length", float, 10.0,
                         "mean ON-burst length in cycles"),
            TrafficParam("duty_cycle", float, 0.25,
                         "steady-state fraction of time spent ON")),
    description="two-state Markov-modulated uniform random traffic")

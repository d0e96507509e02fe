"""Deterministic fault injection: specs, schedules and parsing.

Degraded fabrics — broken links, flaky routers, stuck virtual channels —
are a usage category the paper's framework (Figure 3) implies but never
exercises.  This module supplies the *description* side of that story:

* :class:`FaultEvent` — one primitive state change (kill/restore a link,
  freeze/thaw a router, wedge an output VC) at an absolute cycle;
* :class:`FaultSpec` — a reproducible fault scenario: explicit events
  plus counts of randomly-placed faults drawn from a dedicated seed;
* :func:`build_schedule` — expand a spec against a concrete network
  configuration into a sorted, deterministic :class:`FaultSchedule`;
* :func:`parse_fault_specs` — the CLI grammar
  (``repro run --faults link_kill:node=5,port=east,at=1200``).

The *application* side lives in the simulator:
:meth:`repro.sim.network.Network.apply_fault` consumes one event at a
time, driven by the engine between cycles through a single hook — so a
seeded spec produces bit-identical results run after run (the faulted
rows of tests/test_kernel_goldens.py pin them).

Everything here is picklable and ``dataclasses.asdict``-able: fault
specs ride inside :class:`~repro.core.config.RunProtocol`, cross process
pools, and hash into experiment cache keys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

#: Primitive fault-event kinds, in application order within a cycle.
FAULT_KINDS = ("link_kill", "link_restore", "vc_stuck",
               "router_freeze", "router_thaw")

#: What a router does with a packet whose routed output port is faulted:
#: ``"misroute"`` detours around the dead link when a detour exists
#: (falling back to dropping), ``"drop"`` discards the packet outright.
FAULT_POLICIES = ("misroute", "drop")

#: Sentinel owner wedged into a VC router's output-VC table by a
#: ``vc_stuck`` fault: no input VC ever matches it, so the slot is
#: permanently lost to allocation.
STUCK_VC = (-1, -1)


@dataclass(frozen=True)
class FaultEvent:
    """One primitive fault state change at an absolute simulation cycle.

    ``port`` and ``vc`` are meaningful only for the kinds that need them
    (link events and ``vc_stuck``); ``-1`` marks "not applicable".
    """

    kind: str
    cycle: int
    node: int
    port: int = -1
    vc: int = -1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"options: {FAULT_KINDS}")
        if self.cycle < 0:
            raise ValueError(f"fault cycle must be >= 0, got {self.cycle}")
        if self.node < 0:
            raise ValueError(f"fault node must be >= 0, got {self.node}")
        if self.kind in ("link_kill", "link_restore", "vc_stuck") \
                and self.port < 0:
            raise ValueError(f"{self.kind} fault needs an output port")
        if self.kind == "vc_stuck" and self.vc < 0:
            raise ValueError("vc_stuck fault needs a VC index")

    def describe(self) -> str:
        parts = [f"{self.kind}@{self.cycle}", f"node={self.node}"]
        if self.port >= 0:
            parts.append(f"port={self.port}")
        if self.vc >= 0:
            parts.append(f"vc={self.vc}")
        return " ".join(parts)

    def _sort_key(self) -> Tuple[int, int, int, int, int]:
        return (self.cycle, FAULT_KINDS.index(self.kind), self.node,
                self.port, self.vc)


@dataclass(frozen=True)
class FaultSpec:
    """A reproducible fault scenario.

    Explicit ``events`` are applied verbatim.  The ``link_kills`` /
    ``link_flips`` / ``router_freezes`` / ``stuck_vcs`` counts place that
    many random faults — locations and onset cycles drawn from a
    dedicated ``random.Random(seed)`` stream, independent of the traffic
    seed — with onsets uniform in ``[onset_start, onset_end)``.  Flips
    and freezes are transient (``flip_duration`` / ``freeze_duration``
    cycles); kills and stuck VCs are permanent.
    """

    seed: int = 0
    policy: str = "misroute"
    link_kills: int = 0
    link_flips: int = 0
    flip_duration: int = 500
    router_freezes: int = 0
    freeze_duration: int = 500
    stuck_vcs: int = 0
    onset_start: int = 0
    onset_end: int = 2000
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.policy not in FAULT_POLICIES:
            raise ValueError(f"unknown fault policy {self.policy!r}; "
                             f"options: {FAULT_POLICIES}")
        for name in ("link_kills", "link_flips", "router_freezes",
                     "stuck_vcs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("flip_duration", "freeze_duration"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.onset_start < 0 or self.onset_end <= self.onset_start:
            raise ValueError(
                f"onset window [{self.onset_start}, {self.onset_end}) "
                f"is empty or negative"
            )
        if not isinstance(self.events, tuple):
            # Normalise lists so the spec stays hashable/asdict-stable.
            object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ValueError(f"events must be FaultEvent, "
                                 f"got {type(event).__name__}")

    @property
    def has_faults(self) -> bool:
        """Whether this spec produces any fault at all."""
        return bool(self.events) or bool(
            self.link_kills or self.link_flips or self.router_freezes
            or self.stuck_vcs)

    def with_(self, **changes) -> "FaultSpec":
        """A copy with fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        parts = []
        for name, label in (("link_kills", "kill"), ("link_flips", "flip"),
                            ("router_freezes", "freeze"),
                            ("stuck_vcs", "stuck")):
            count = getattr(self, name)
            if count:
                parts.append(f"{count} {label}")
        if self.events:
            parts.append(f"{len(self.events)} explicit")
        inner = ", ".join(parts) if parts else "no faults"
        return f"faults({inner}; seed={self.seed}, policy={self.policy})"


@dataclass(frozen=True)
class FaultSchedule:
    """A spec expanded against one configuration: the sorted, concrete
    event timeline the engine feeds to the network."""

    events: Tuple[FaultEvent, ...]
    policy: str = "misroute"

    def describe(self) -> str:
        if not self.events:
            return "fault schedule: (empty)"
        lines = [f"fault schedule ({len(self.events)} events, "
                 f"policy={self.policy}):"]
        lines += [f"  {event.describe()}" for event in self.events]
        return "\n".join(lines)


def build_schedule(spec: FaultSpec, config) -> FaultSchedule:
    """Expand a :class:`FaultSpec` into a concrete, sorted event
    timeline for ``config``'s topology.

    Deterministic: the same (spec, config) pair always yields the same
    schedule, regardless of call order — random placements
    come from one fresh ``random.Random(spec.seed)`` consumed in a fixed
    sequence.  Raises :class:`ValueError` when the spec does not fit the
    configuration (more kills than links, stuck VCs on a VC-less router,
    events naming nonexistent nodes/ports).
    """
    from repro.sim.topology import topology_for

    topo = topology_for(config)
    links = sorted((node, port) for node, port, _ in topo.channels())
    rng = random.Random(spec.seed)
    events: List[FaultEvent] = []

    def onset() -> int:
        return rng.randrange(spec.onset_start, spec.onset_end)

    # Random link faults: kills and flips drawn without replacement from
    # one sample, so a flip never restores an already-dead link.
    broken = spec.link_kills + spec.link_flips
    if broken:
        if broken > len(links):
            raise ValueError(
                f"{broken} random link faults requested but the topology "
                f"has only {len(links)} directed links"
            )
        chosen = rng.sample(links, broken)
        for node, port in chosen[:spec.link_kills]:
            events.append(FaultEvent("link_kill", onset(), node, port))
        for node, port in chosen[spec.link_kills:]:
            at = onset()
            events.append(FaultEvent("link_kill", at, node, port))
            events.append(FaultEvent("link_restore",
                                     at + spec.flip_duration, node, port))
    if spec.router_freezes:
        if spec.router_freezes > topo.num_nodes:
            raise ValueError(
                f"{spec.router_freezes} router freezes requested but the "
                f"topology has only {topo.num_nodes} nodes"
            )
        for node in rng.sample(range(topo.num_nodes), spec.router_freezes):
            at = onset()
            events.append(FaultEvent("router_freeze", at, node))
            events.append(FaultEvent("router_thaw",
                                     at + spec.freeze_duration, node))
    if spec.stuck_vcs:
        if not config.router.is_vc_kind:
            raise ValueError(
                f"stuck_vcs faults need a VC router, got "
                f"{config.router.kind!r}"
            )
        for _ in range(spec.stuck_vcs):
            node, port = links[rng.randrange(len(links))]
            vc = rng.randrange(config.router.num_vcs)
            events.append(FaultEvent("vc_stuck", onset(), node, port, vc))

    for event in spec.events:
        _validate_event(event, topo, config)
        events.append(event)
    events.sort(key=FaultEvent._sort_key)
    return FaultSchedule(events=tuple(events), policy=spec.policy)


def _validate_event(event: FaultEvent, topo, config) -> None:
    """Reject explicit events that name nonexistent hardware."""
    if event.node >= topo.num_nodes:
        raise ValueError(
            f"fault {event.describe()}: node outside "
            f"0..{topo.num_nodes - 1}"
        )
    if event.kind in ("link_kill", "link_restore", "vc_stuck"):
        if topo.neighbor(event.node, event.port) is None:
            raise ValueError(
                f"fault {event.describe()}: node {event.node} has no "
                f"outgoing link on port {event.port}"
            )
    if event.kind == "vc_stuck":
        if not config.router.is_vc_kind:
            raise ValueError(
                f"fault {event.describe()}: vc_stuck needs a VC router, "
                f"got {config.router.kind!r}"
            )
        if event.vc >= config.router.num_vcs:
            raise ValueError(
                f"fault {event.describe()}: VC outside "
                f"0..{config.router.num_vcs - 1}"
            )


# --- CLI grammar -------------------------------------------------------------

_PORT_ALIASES = {"north": 0, "south": 1, "east": 2, "west": 3,
                 "n": 0, "s": 1, "e": 2, "w": 3}


def _parse_port(text: str) -> int:
    port = _PORT_ALIASES.get(text.lower())
    if port is None:
        try:
            port = int(text)
        except ValueError:
            raise ValueError(
                f"bad port {text!r}: use north/south/east/west or 0-3"
            ) from None
    return port


def _parse_fields(body: str, spec_text: str) -> dict:
    fields = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        if not sep:
            raise ValueError(
                f"bad fault spec {spec_text!r}: expected name=value, "
                f"got {item!r}"
            )
        fields[name.strip()] = value.strip()
    return fields


def _take_int(fields: dict, name: str, spec_text: str,
              default: Optional[int] = None) -> int:
    if name not in fields:
        if default is not None:
            return default
        raise ValueError(f"fault spec {spec_text!r} is missing {name}=")
    try:
        return int(fields.pop(name))
    except ValueError:
        raise ValueError(
            f"fault spec {spec_text!r}: {name} must be an integer"
        ) from None


def parse_fault_specs(specs: Sequence[str], *, seed: int = 0,
                      policy: str = "misroute") -> FaultSpec:
    """Parse CLI fault descriptions into one :class:`FaultSpec`.

    Grammar (one spec per string, ``kind:name=value,...``)::

        link_kill:node=5,port=east,at=1200
        link_flip:node=5,port=2,at=1000,for=500
        router_freeze:node=3,at=500[,for=800]
        vc_stuck:node=2,port=east,vc=0,at=800
        random:kills=2,flips=1,freezes=1,stuck=1[,start=0,end=2000]

    ``port`` accepts names (north/south/east/west) or indices; ``for``
    gives a transient fault's duration in cycles; ``random`` sets the
    seeded random-placement counts.
    """
    events: List[FaultEvent] = []
    random_fields = dict(seed=seed)
    for spec_text in specs:
        kind, sep, body = spec_text.partition(":")
        kind = kind.strip()
        if not sep:
            raise ValueError(
                f"bad fault spec {spec_text!r}: expected kind:name=value,..."
            )
        fields = _parse_fields(body, spec_text)
        if kind == "random":
            random_fields["link_kills"] = _take_int(
                fields, "kills", spec_text, 0)
            random_fields["link_flips"] = _take_int(
                fields, "flips", spec_text, 0)
            random_fields["router_freezes"] = _take_int(
                fields, "freezes", spec_text, 0)
            random_fields["stuck_vcs"] = _take_int(
                fields, "stuck", spec_text, 0)
            if "seed" in fields:
                random_fields["seed"] = _take_int(fields, "seed", spec_text)
            if "start" in fields:
                random_fields["onset_start"] = _take_int(
                    fields, "start", spec_text)
            if "end" in fields:
                random_fields["onset_end"] = _take_int(
                    fields, "end", spec_text)
        elif kind in ("link_kill", "link_flip", "router_freeze", "vc_stuck"):
            node = _take_int(fields, "node", spec_text)
            at = _take_int(fields, "at", spec_text)
            if kind == "router_freeze":
                events.append(FaultEvent("router_freeze", at, node))
                if "for" in fields:
                    events.append(FaultEvent(
                        "router_thaw",
                        at + _take_int(fields, "for", spec_text), node))
            else:
                if "port" not in fields:
                    raise ValueError(
                        f"fault spec {spec_text!r} is missing port="
                    )
                port = _parse_port(fields.pop("port"))
                if kind == "vc_stuck":
                    events.append(FaultEvent(
                        "vc_stuck", at, node, port,
                        _take_int(fields, "vc", spec_text)))
                else:
                    events.append(FaultEvent("link_kill", at, node, port))
                    if kind == "link_flip":
                        events.append(FaultEvent(
                            "link_restore",
                            at + _take_int(fields, "for", spec_text, 500),
                            node, port))
        else:
            raise ValueError(
                f"unknown fault kind {kind!r} in {spec_text!r}; options: "
                f"link_kill, link_flip, router_freeze, vc_stuck, random"
            )
        if fields:
            raise ValueError(
                f"fault spec {spec_text!r}: unknown fields "
                f"{sorted(fields)}"
            )
    return FaultSpec(policy=policy, events=tuple(events), **random_fields)

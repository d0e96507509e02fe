"""Microarchitectural events and energy accounting.

This is Orion's integration point between performance simulation and power
modeling (section 2.1): "Users define events associated with each module.
Power models ... are hooked to these events so when an event occurs during
the execution, it triggers the specific power model, which calculates and
accumulates the energy consumed."

We substitute LSE's event subsystem with a typed event vocabulary plus an
:class:`EnergyAccountant` that accumulates per-node, per-component energy
and event counts.  Routers emit events into a
:class:`repro.core.power_binding.PowerBinding`, which counts them (with
their observed switching activity in data mode) and, at flush time,
prices the counts into joules via the component power models and
deposits them here.
"""

from __future__ import annotations

from typing import Dict, List

#: Event vocabulary — one entry per power-relevant module operation.
BUFFER_WRITE = "buffer_write"
BUFFER_READ = "buffer_read"
ARBITRATION = "arbitration"
XBAR_TRAVERSAL = "xbar_traversal"
LINK_TRAVERSAL = "link_traversal"
CB_WRITE = "cb_write"
CB_READ = "cb_read"

EVENT_TYPES = (
    BUFFER_WRITE,
    BUFFER_READ,
    ARBITRATION,
    XBAR_TRAVERSAL,
    LINK_TRAVERSAL,
    CB_WRITE,
    CB_READ,
)

#: Component vocabulary — the per-node power breakdown categories of the
#: paper's figures 5(c), 7(c) and 7(f).
INPUT_BUFFER = "input_buffer"
CENTRAL_BUFFER = "central_buffer"
CROSSBAR = "crossbar"
ARBITER = "arbiter"
LINK = "link"
#: Clock distribution (populated only with the clock-power extension).
CLOCK = "clock"

COMPONENTS = (INPUT_BUFFER, CENTRAL_BUFFER, CROSSBAR, ARBITER, LINK,
              CLOCK)

#: The component each event type is charged to — the routing used when
#: the binding prices its event counters into joules (see
#: :class:`repro.core.power_binding.PowerBinding`).
EVENT_COMPONENT = {
    BUFFER_WRITE: INPUT_BUFFER,
    BUFFER_READ: INPUT_BUFFER,
    ARBITRATION: ARBITER,
    XBAR_TRAVERSAL: CROSSBAR,
    LINK_TRAVERSAL: LINK,
    CB_WRITE: CENTRAL_BUFFER,
    CB_READ: CENTRAL_BUFFER,
}


class EnergyAccountant:
    """Per-node, per-component energy and event-count accumulator.

    Mirrors the paper's measurement protocol (section 4.1): "The simulator
    records energy consumption of each component (input buffer, crossbar,
    arbiter, link) of a node over the entire simulation excluding the
    first 1000 cycles" — the warm-up exclusion is implemented by
    :meth:`reset` at the end of warm-up.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError(f"need >= 1 node, got {num_nodes}")
        self.num_nodes = num_nodes
        self._energy: List[Dict[str, float]] = []
        self._counts: List[Dict[str, int]] = []
        self.reset()

    def reset(self) -> None:
        """Zero all accumulators (used at the end of warm-up)."""
        self._energy = [dict.fromkeys(COMPONENTS, 0.0)
                        for _ in range(self.num_nodes)]
        self._counts = [dict.fromkeys(EVENT_TYPES, 0)
                        for _ in range(self.num_nodes)]

    def add(self, node: int, component: str, event: str, energy_j: float,
            count: int = 1) -> None:
        """Record ``count`` occurrences of ``event`` costing ``energy_j``
        joules total, charged to ``component`` at ``node``."""
        self._energy[node][component] += energy_j
        self._counts[node][event] += count

    # --- queries ------------------------------------------------------------

    def node_energy(self, node: int) -> Dict[str, float]:
        """Energy (J) per component at one node."""
        return dict(self._energy[node])

    def node_counts(self, node: int) -> Dict[str, int]:
        """Event counts per event type at one node."""
        return dict(self._counts[node])

    def snapshot(self):
        """Copies of the per-node energy and count tables — the
        cumulative view windowed telemetry diffs between boundaries."""
        return ([dict(e) for e in self._energy],
                [dict(c) for c in self._counts])

    def node_total(self, node: int) -> float:
        """Total energy (J) at one node."""
        return sum(self._energy[node].values())

    def component_energy(self, component: str) -> float:
        """Network-wide energy (J) of one component category."""
        if component not in COMPONENTS:
            raise ValueError(
                f"unknown component {component!r}; options: {COMPONENTS}"
            )
        return sum(e[component] for e in self._energy)

    def total_energy(self) -> float:
        """Network-wide total energy (J)."""
        return sum(sum(e.values()) for e in self._energy)

    def event_count(self, event: str, node: int = None) -> int:
        """Occurrences of one event type, network-wide or at one node."""
        if event not in EVENT_TYPES:
            raise ValueError(f"unknown event {event!r}; options: {EVENT_TYPES}")
        if node is not None:
            return self._counts[node][event]
        return sum(c[event] for c in self._counts)

    def breakdown(self) -> Dict[str, float]:
        """Network-wide energy per component (J)."""
        return {c: self.component_energy(c) for c in COMPONENTS}

    def spatial_map(self) -> List[float]:
        """Per-node total energy (J), indexed by node id — the raw data of
        the paper's Figure 6."""
        return [self.node_total(n) for n in range(self.num_nodes)]
